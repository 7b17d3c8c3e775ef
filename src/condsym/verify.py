"""Grid construction, the batch walk and reduction of checks, and FD
cross-validation.

``scan`` walks (P, N+1) coordinate rows in bounded batches: one
``evaluate_many`` of the field per batch, then each check (a residual
kind, the laws of one Xn, or the FD comparison) on the stacked jets.  A
guard that fails on a batch names its bad rows; ``Tally.set_aside`` counts
them as excluded (or as overflowed), and the others are evaluated again.  A
``Tally`` reduces the gaps of each check to counts, a worst gap and a
pass.  The FD check reads the values alone of the whole stencils of a
batch's points, and the bound on a batch counts them.  Traversal and
reduction orders are fixed (sample order, sums carried row after row),
so every report is bitwise reproducible for identical inputs.
"""

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from ._kernels import triu
from .errors import DimensionMismatch, DomainError
from .fields import Point, check_coords
from .operators import evaluate_residual, residual_scale


@dataclass(frozen=True)
class GridSpec:
    """Tensor grid over (t, x_1..x_N).

    ``t_range`` and each entry of ``x_ranges`` are (lo, hi, count).
    """

    t_range: tuple
    x_ranges: tuple

    def __post_init__(self):
        t_range = tuple(self.t_range)
        x_ranges = tuple(tuple(r) for r in self.x_ranges)
        for lo, hi, count in (t_range,) + x_ranges:
            if int(count) < 2:
                raise ValueError("axis counts must be at least 2")
            if not lo < hi:
                raise ValueError("axis ranges need lo < hi")
        object.__setattr__(self, "t_range", t_range)
        object.__setattr__(self, "x_ranges", x_ranges)

    @property
    def spatial_dim(self):
        return len(self.x_ranges)

    @property
    def total_points(self):
        total = int(self.t_range[2])
        for r in self.x_ranges:
            total *= int(r[2])
        return total

    def axes(self):
        return [
            np.linspace(lo, hi, int(count))
            for lo, hi, count in (self.t_range,) + self.x_ranges
        ]

    def coords(self):
        """Every grid point as a row (t, x_1..x_N) of a (P, N+1) array, in
        a fixed order: t outermost, last spatial axis fastest."""
        mesh = np.meshgrid(*self.axes(), indexing="ij")
        return np.stack([m.ravel() for m in mesh], axis=1)


@dataclass(frozen=True)
class ResidualReport:
    """Aggregate of one residual kind over one grid; ``max_abs`` and
    ``rms`` are scale-normalized."""

    equation: str
    family: str
    points_evaluated: int
    points_excluded: int
    max_abs: float
    rms: float
    worst_point: object
    tolerance: float
    passed: bool

    def to_dict(self):
        wp = self.worst_point
        return {
            "equation": self.equation,
            "family": self.family,
            "points_evaluated": self.points_evaluated,
            "points_excluded": self.points_excluded,
            "max_abs": self.max_abs,
            "rms": self.rms,
            "worst_point": None if wp is None else {"t": wp.t, "x": list(wp.x)},
            "tolerance": self.tolerance,
            "pass": self.passed,
        }


def within_tolerance(gap, tol):
    """The pass rule of every check: a finite gap of at most ``tol``, so
    that a NaN gap fails even at an infinite ``tol``."""
    return math.isfinite(gap) and gap <= tol


class Tally:
    """The reduction of one check's gaps, in sample order: counts, the
    worst normalized gap and its sample, and the rms."""

    def __init__(self):
        self.evaluated = self.excluded = self._added = 0
        self.max_norm = self._sumsq = 0.0
        self.finite = True
        self._best = None  # (rows, normalized gaps) of the batch that set max_norm

    def set_aside(self, error, count):
        """Count ``count`` rows that ``error`` dropped: outside the domain
        for a DomainError, else past the float range (an overflow, or a
        division by a factor that underflowed), evaluated and not finite."""
        if isinstance(error, DomainError):
            self.excluded += count
        else:
            self.evaluated += count
            self.finite = False

    def add(self, points, raw, scale=1.0):
        """Rows in sample order: coordinates (k, N+1), raw gaps and their
        scales (k,), or one float scale for every row."""
        norm = np.abs(raw) / scale
        if not norm.size:
            return
        top = np.maximum.reduce(norm)  # NaN where any row is
        self.evaluated += norm.size
        self._added += norm.size
        scale_ok = math.isfinite(scale) if isinstance(scale, float) else np.isfinite(scale).all()
        self.finite = self.finite and math.isfinite(top) and bool(scale_ok)
        # one row after another, as a running sum adds; np.sum may not
        squares = norm * norm
        squares[0] += self._sumsq
        self._sumsq = float(np.add.accumulate(squares)[-1])
        if top != top:  # a NaN row never is the worst
            top = np.fmax.reduce(norm)
        if self._best is None:
            # the first row sets the maximum, even a NaN that no row beats
            self.max_norm, self._best = float(norm[0]), (points, norm)
        if top > self.max_norm:
            self.max_norm, self._best = float(top), (points, norm)

    @property
    def rms(self):
        """The root mean square of the normalized gaps that ``add`` got,
        0.0 before any; an overflowed row has no gap to square."""
        return math.sqrt(self._sumsq / self._added) if self._added else 0.0

    @property
    def worst(self):
        """The first sample that reaches the worst gap, as a Point, or None."""
        if self._best is None:
            return None
        points, norm = self._best
        # no row equals a NaN maximum, which only the first row sets
        row = points[int(np.argmax(norm == self.max_norm))]
        return Point(row[0], tuple(row[1:]))

    @property
    def gap(self):
        """The worst normalized gap, or inf once a gap was not finite."""
        return self.max_norm if self.finite else math.inf

    def passed(self, tol):
        """The pass rule of every check over samples: some evaluated, at
        most half excluded, and the worst gap within tolerance."""
        return (self.evaluated > 0
                and self.excluded <= 0.5 * (self.evaluated + self.excluded)
                and within_tolerance(self.gap, tol))


# A batch of rows holds 4096 Hessian entries: 1024 rows at N = 1, 455 at
# N = 2 and 256 at N = 3.  A batch's field call costs about the same
# whatever its row count, so fuller batches run faster; the bound caps
# the memory a batch takes.  Against 2048, 4096 runs the FD check about
# 1.4 times and the grid suite about 1.2 times as fast, for 0.5 MB more
# peak memory; larger bounds gain less per megabyte (BENCH_22.json).
_BATCH_ENTRIES = 4096


def batches(params, coords, values=0):
    """Consecutive batches of the rows ``coords``, each row holding a jet in
    dim N + 1 and ``values`` more numbers."""
    step = max(1, _BATCH_ENTRIES // (values + params.jet_dim**2))
    for start in range(0, len(coords), step):
        yield coords[start : start + step]


def _guarded(compute, count, tallies):
    """``compute(keep)`` on the ``count`` rows of a batch, run again without
    the rows a failing guard names until none fails.  ``keep`` selects the
    rows: ``slice(None)`` at first, so that no row is copied, then an index
    array.  Each DomainError or ArithmeticError sets the rows it drops
    aside in every tally of ``tallies``; an error that names no rows drops
    every row left.

    Returns (result, keep); the result is None when no row is left.  Each
    guard site fails at most once, so there are at most as many retries as
    guard sites.
    """
    keep, left = slice(None), np.arange(count)
    while left.size:
        try:
            return compute(keep), keep
        except (DomainError, ArithmeticError) as exc:
            bad = getattr(exc, "rows", None)
            kept = left[:0] if bad is None else left[~bad]
            for tally in tallies:
                tally.set_aside(exc, left.size - kept.size)
            keep = left = kept
    return None, left


def scan(field, params, coords, checks, tallies, values=0):
    """Walk the rows ``coords`` in batches and reduce each check's gaps.

    Per batch, one ``field.evaluate_many``, or DimensionMismatch unless it
    returns jets in dim N + 1; a row that the field rejects is set aside in
    every tally.  Then each ``checks[i](points, jets)`` runs on the rows
    left, and returns one (gaps, scales) pair for each tally in
    ``tallies[i]``; a row that it rejects is set aside in those tallies
    only.  The checks read ``values`` numbers per row besides its jet,
    which the bound on a batch counts.
    """
    def field_jets(rows):
        jets = field.evaluate_many(params, rows)
        if jets.dim != params.jet_dim:
            raise DimensionMismatch(f"field returned dim {jets.dim}, expected {params.jet_dim}")
        return jets

    every = [tally for group in tallies for tally in group]
    # a non-finite value is counted in its tally, not raised as a warning
    with np.errstate(all="ignore"):
        for batch in batches(params, coords, values):
            jets, keep = _guarded(lambda rows: field_jets(batch[rows]), len(batch), every)
            if jets is None:
                continue
            points = batch[keep]
            for check, group in zip(checks, tallies):
                out, rows = _guarded(
                    lambda rows: check(points[rows], jets.take(rows)), len(points), group
                )
                if out is not None:
                    kept = points[rows]
                    for tally, (gaps, scales) in zip(group, out, strict=True):
                        tally.add(kept, gaps, scales)


def run_residual_suite(field, kinds, params, grid, tol, family_id=None):
    """One ResidualReport per kind, from one :func:`scan` of the grid."""
    if grid.spatial_dim != params.spatial_dim:
        raise DimensionMismatch(
            f"grid has {grid.spatial_dim} spatial axes, params expect "
            f"{params.spatial_dim}"
        )
    fid = repr(field) if family_id is None else str(family_id)
    kinds = sorted(kinds, key=lambda k: k.value)
    tallies = [Tally() for _ in kinds]
    checks = [
        lambda points, jets, kind=kind: (
            (evaluate_residual(kind, jets, params), residual_scale(kind, jets, params)),
        )
        for kind in kinds
    ]
    scan(field, params, grid.coords(), checks, [[tally] for tally in tallies])
    return [
        ResidualReport(
            equation=kind.value,
            family=fid,
            points_evaluated=tally.evaluated,
            points_excluded=tally.excluded,
            max_abs=tally.max_norm,
            rms=tally.rms,
            worst_point=tally.worst,
            tolerance=tol,
            passed=tally.passed(tol),
        )
        for kind, tally in zip(kinds, tallies)
    ]


@functools.lru_cache
def _stencil(d):
    """The FD stencil in dimension d: a read-only (rows, d) table of steps
    in units of h: +1 and -1 on each axis, then the (++, +-, --, -+)
    corners of each axis pair in ``np.triu_indices`` order; the base point
    is not a row.  Its zeros are -0.0, so that p + h * step keeps every
    coordinate that is not stepped bit for bit."""
    eye = np.eye(d)
    steps = [sign * eye[i] for i in range(d) for sign in (1.0, -1.0)]
    steps += [si * eye[i] + sj * eye[j] for i, j in itertools.combinations(range(d), 2)
              for si, sj in ((1.0, 1.0), (1.0, -1.0), (-1.0, -1.0), (-1.0, 1.0))]
    offsets = np.array(steps)
    offsets[offsets == 0.0] = -0.0
    offsets.flags.writeable = False
    return offsets


def fd_check(field, params, h):
    """The FD cross-check as a check for :func:`scan`, and the number of
    stencil values it reads per point.

    Its gap at a point is the max relative deviation of the jet's
    derivatives from central differences, with denominator 1 + |jet
    entry|, and not finite (inf in ``Tally.gap``) where a stencil value or
    jet entry is not.  First derivatives use (f(p+h) - f(p-h)) / 2h; second
    derivatives the standard three-point and four-point (mixed) stencils,
    with f(p) the jet's value.  One ``values_many`` call reads the stencils
    of the points, 2(N+1)^2 values each; a guard that names stencil rows
    names the points they belong to.  ValueError unless ``h`` is positive
    and finite.
    """
    if not (math.isfinite(h) and h > 0.0):
        raise ValueError(f"h must be positive and finite, got {h}")
    d = params.jet_dim
    steps = h * _stencil(d)
    n_rows = len(steps)
    iu = triu(d, 1)

    def deviations(points, jets):
        stencils = points[:, None, :] + steps
        try:
            values = field.values_many(params, stencils.reshape(-1, d))
        except (DomainError, ArithmeticError) as exc:
            bad = getattr(exc, "rows", None)
            if bad is not None:
                exc.rows = bad.reshape(-1, n_rows).any(axis=1)
            raise
        f = values.reshape(-1, n_rows)
        f0 = jets.value[:, None]
        plus, minus = f[:, : 2 * d : 2], f[:, 1 : 2 * d : 2]
        fpp, fpm, fmm, fmp = np.moveaxis(f[:, 2 * d :].reshape(len(f), -1, 4), 2, 0)
        fd = np.concatenate((
            (plus - minus) / (2.0 * h),
            (plus - 2.0 * f0 + minus) / (h * h),
            (fpp - fpm - fmp + fmm) / (4.0 * h * h),
        ), axis=1)
        grad, hess = jets.grad, jets.hess
        exact = np.concatenate(
            (grad, np.diagonal(hess, axis1=1, axis2=2), hess[:, iu[0], iu[1]]), axis=1
        )
        return ((np.max(np.abs(fd - exact) / (1.0 + np.abs(exact)), axis=1), 1.0),)

    return deviations, n_rows


def fd_crosscheck(field, params, points, h):
    """Max relative deviation of jet derivatives from central differences
    over ``points``: the gap of :func:`fd_check`, reduced by one
    :func:`scan` of the points.

    A non-finite jet entry or stencil value, or an overflow, gives inf.
    A stencil that leaves the field's domain raises DomainError; an empty
    ``points`` raises ValueError (nothing compared is no pass), as does an
    ``h`` that is not positive and finite.
    """
    if not points:
        raise ValueError("fd_crosscheck needs at least one point")
    check, values = fd_check(field, params, h)
    coords = check_coords(params, [(p.t,) + p.x for p in points])
    tally = Tally()
    scan(field, params, coords, [check], [[tally]], values)
    if tally.excluded:
        raise DomainError(
            f"the FD stencils of {tally.excluded} of {len(points)} points leave the domain"
        )
    return tally.gap


__all__ = ["GridSpec", "ResidualReport", "within_tolerance", "Tally", "batches",
           "scan", "run_residual_suite", "fd_check", "fd_crosscheck"]
