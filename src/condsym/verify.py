"""Grid construction, residual aggregation and FD cross-validation.

The residual suite walks a grid as a (P, N+1) array of coordinate rows
and evaluates it in bounded batches of rows: one ``evaluate_many`` of
the field per batch, then each residual kind and its scale on the
stacked jets.  A guard that fails on a batch names its bad rows; those
rows are counted as excluded (or as overflowed) one by one, and the
others are evaluated again.  The FD cross-check reads the values alone
of the whole stencils of many points, by one ``values_many`` call, and
the jets of their base points, by one ``evaluate_many``, under the same
bound on a batch, and sets aside the points whose stencil rows a guard
names.  Traversal and reduction orders are fixed (grid order, sums
carried row after row), so every report is bitwise reproducible for
identical inputs.
"""

import itertools
import math
from dataclasses import dataclass

import numpy as np

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


def _point(row):
    return Point(row[0], tuple(row[1:]))


@dataclass(frozen=True)
class ResidualReport:
    """Aggregate of one residual kind over one grid.

    ``max_abs`` and ``rms`` are scale-normalized; the raw maximum is
    kept in ``raw_max_abs`` for diagnostics and is not serialized.
    A report passes iff every evaluated residual and scale is finite and
    the normalized maximum meets :func:`verdict`.
    """

    equation: str
    family: str
    points_evaluated: int
    points_excluded: int
    max_abs: float
    rms: float
    worst_point: object
    tolerance: float
    passed: bool
    raw_max_abs: float

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


def verdict(evaluated, excluded, gap, tol):
    """The pass rule of a check over samples: at least one sample
    evaluated, no more than half of them excluded, and the worst gap
    within tolerance."""
    return (evaluated > 0 and excluded <= 0.5 * (evaluated + excluded)
            and within_tolerance(gap, tol))


class _Tally:
    """Running aggregates of one residual kind, in grid order."""

    def __init__(self):
        self.evaluated = 0
        self.excluded = 0
        self.max_norm = 0.0
        self.max_raw = 0.0
        self.sumsq = 0.0
        self.worst = None
        self.finite = True

    def set_aside(self, excluded, overflowed):
        """Count the rows of two boolean masks: outside the domain, and
        past the float range (a non-finite result)."""
        self.excluded += int(excluded.sum())
        overflows = int(overflowed.sum())
        self.evaluated += overflows
        self.finite = self.finite and not overflows

    def add(self, points, raw, scale):
        """Rows in grid order: coordinates (k, N+1), raw residuals and
        scales (k,)."""
        size = np.abs(raw)
        norm = size / scale
        self.evaluated += norm.size
        self.finite = self.finite and bool(
            np.isfinite(raw).all() and np.isfinite(scale).all()
        )
        # np.cumsum adds one row after another, as a running sum does;
        # np.sum may add pairwise
        self.sumsq = float(np.cumsum(np.append(self.sumsq, norm * norm))[-1])
        larger = size[size > self.max_raw]
        if larger.size:
            self.max_raw = float(larger.max())
        if self.worst is None:
            # the first row sets the maximum, even a NaN that no row beats
            self.max_norm, self.worst = float(norm[0]), _point(points[0])
        # the first row that reaches the maximum; a NaN never does
        k = int(np.argmax(np.where(np.isnan(norm), -np.inf, norm)))
        if norm[k] > self.max_norm:
            self.max_norm, self.worst = float(norm[k]), _point(points[k])

    def report(self, equation, family, tol):
        evaluated, excluded = self.evaluated, self.excluded
        ok = self.finite and verdict(evaluated, excluded, self.max_norm, tol)
        return ResidualReport(
            equation=equation,
            family=family,
            points_evaluated=evaluated,
            points_excluded=excluded,
            max_abs=self.max_norm,
            rms=math.sqrt(self.sumsq / evaluated) if evaluated else 0.0,
            worst_point=self.worst,
            tolerance=tol,
            passed=ok,
            raw_max_abs=self.max_raw,
        )


# A batch of grid rows holds 2048 Hessian entries: 512 rows at N = 1, 227
# at N = 2 and 128 at N = 3, which bounds the memory a batch takes.
_BATCH_ENTRIES = 2048


def _batch_rows(params, values=0):
    """The rows of one batch: each holds a jet in dim N + 1 and ``values`` more numbers."""
    return max(1, _BATCH_ENTRIES // (values + params.jet_dim**2))


def field_jets(field, params, rows):
    """``field.evaluate_many`` at ``rows``, or DimensionMismatch unless
    the field returned jets in dimension N + 1."""
    jets = field.evaluate_many(params, rows)
    if jets.dim != params.jet_dim:
        raise DimensionMismatch(f"field returned dim {jets.dim}, expected {params.jet_dim}")
    return jets


def _guarded(compute, count):
    """``compute(keep)`` on an index array ``keep`` into ``count`` rows,
    run again without the rows a failing guard names until none fails.

    Returns (result, keep, excluded, overflowed), the last two boolean
    (count,) masks of the rows dropped by DomainError and by an
    ArithmeticError (an overflow, or a division by a factor that
    underflowed).  An error that names no rows drops every row left;
    the result is None when no row is left.  Each guard site fails at
    most once, so there are at most as many retries as guard sites.
    """
    keep = np.arange(count)
    excluded = np.zeros(count, dtype=bool)
    overflowed = np.zeros(count, dtype=bool)
    while keep.size:
        try:
            return compute(keep), keep, excluded, overflowed
        except (DomainError, ArithmeticError) as exc:
            bad = getattr(exc, "rows", None)
            if bad is None:
                bad = np.ones(keep.size, dtype=bool)
            dropped = excluded if isinstance(exc, DomainError) else overflowed
            dropped[keep[bad]] = True
            keep = keep[~bad]
    return None, keep, excluded, overflowed


def run_residual_suite(field, kinds, params, grid, tol, family_id=None):
    """One ResidualReport per kind; domain errors count as exclusions,
    overflows as non-finite evaluations.

    The grid is evaluated in batches of rows, each batch by one
    ``field.evaluate_many`` whose jets every kind shares.  A row that the
    field rejects counts for every kind, one that a kind's residual or
    scale rejects only for that kind.
    """
    if grid.spatial_dim != params.spatial_dim:
        raise DimensionMismatch(
            f"grid has {grid.spatial_dim} spatial axes, params expect "
            f"{params.spatial_dim}"
        )
    fid = repr(field) if family_id is None else str(family_id)
    kinds = sorted(kinds, key=lambda k: k.value)
    tallies = [_Tally() for _ in kinds]
    coords = grid.coords()
    step = _batch_rows(params)
    # a non-finite value is counted in its report, not raised as a warning
    with np.errstate(all="ignore"):
        for start in range(0, len(coords), step):
            batch = coords[start : start + step]
            jets, keep, excluded, overflowed = _guarded(
                lambda rows: field_jets(field, params, batch[rows]), len(batch)
            )
            for tally in tallies:
                tally.set_aside(excluded, overflowed)
            if jets is None:
                continue
            points = batch[keep]
            for kind, tally in zip(kinds, tallies):

                def residual(rows):
                    sub = jets.take(rows)
                    return (evaluate_residual(kind, sub, params),
                            residual_scale(kind, sub, params))

                out, rows, excluded, overflowed = _guarded(residual, len(keep))
                tally.set_aside(excluded, overflowed)
                if out is not None:
                    tally.add(points[rows], *out)
    return [tally.report(kind.value, fid, tol) for kind, tally in zip(kinds, tallies)]


def _rel(a, b):
    """Relative deviations; inf where either side is not finite."""
    err = np.abs(a - b) / (1.0 + np.abs(b))
    err[~np.isfinite(err)] = math.inf
    return err


def _stencil_steps(d):
    """The FD stencil in dimension d: its row count and the (row, axis,
    sign) of each step, as arrays.  Row 0 is the base point, then come +h
    and -h on each axis, then the (++, +-, --, -+) corners of each axis
    pair in ``np.triu_indices`` order."""
    steps = []
    for i in range(d):
        steps += [(1 + 2 * i, i, 1.0), (2 + 2 * i, i, -1.0)]
    row = 1 + 2 * d
    for i, j in itertools.combinations(range(d), 2):
        for si, sj in ((1.0, 1.0), (1.0, -1.0), (-1.0, -1.0), (-1.0, 1.0)):
            steps += [(row, i, si), (row, j, sj)]
            row += 1
    rows, axes, signs = zip(*steps)
    return row, np.array(rows), np.array(axes), np.array(signs)


def fd_point_errors(field, params, coords, h):
    """Per-point deviations of jet derivatives from central differences.

    ``coords`` holds one point (t, x_1..x_N) per row.  Returns (errors,
    outside): the max relative deviation of each point, inf where its
    stencil overflows or meets a non-finite value, and a boolean mask of
    the points whose stencil leaves the field's domain (their errors are
    inf too).  First derivatives use (f(p+h) - f(p-h)) / 2h; second
    derivatives the standard three-point and four-point (mixed)
    second-order stencils.  The relative error denominator is
    1 + |jet entry|.

    A batch reads the values of the whole stencils of many points, base
    rows included, by one ``values_many`` call, and the jets of the base
    points alone by one ``evaluate_many`` call.  A point counts its
    stencil's values and its jet's (N+1)² Hessian entries, and a batch
    holds at most ``_BATCH_ENTRIES`` of them, as in the residual suite:
    157 points at N = 1, 73 at N = 2 and 41 at N = 3.  A guard that fails
    names stencil rows; the points they belong to are set aside and the
    rest are evaluated again.  An error that names no rows sets aside
    every point of its batch.
    """
    if not (math.isfinite(h) and h > 0.0):
        raise ValueError(f"h must be positive and finite, got {h}")
    coords = check_coords(params, coords)
    d = params.jet_dim
    n_rows, rows, axes, signs = _stencil_steps(d)
    steps = signs * h
    iu = np.triu_indices(d, 1)
    per_batch = _batch_rows(params, n_rows)
    errors = np.full(len(coords), math.inf)
    outside = np.zeros(len(coords), dtype=bool)

    def deviations(points):
        stencils = np.repeat(points[:, None, :], n_rows, axis=1)
        stencils[:, rows, axes] += steps
        try:
            values = field.values_many(params, stencils.reshape(-1, d))
        except (DomainError, ArithmeticError) as exc:
            bad = getattr(exc, "rows", None)
            if bad is not None:
                exc.rows = bad.reshape(-1, n_rows).any(axis=1)
            raise
        jets = field_jets(field, params, points)
        f = values.reshape(-1, n_rows)
        f0 = f[:, :1]
        plus, minus = f[:, 1 : 2 * d + 1 : 2], f[:, 2 : 2 * d + 2 : 2]
        fpp, fpm, fmm, fmp = np.moveaxis(f[:, 2 * d + 1 :].reshape(len(f), -1, 4), 2, 0)
        fd = np.concatenate((
            (plus - minus) / (2.0 * h),
            (plus - 2.0 * f0 + minus) / (h * h),
            (fpp - fpm - fmp + fmm) / (4.0 * h * h),
        ), axis=1)
        grad, hess = jets.grad, jets.hess
        exact = np.concatenate(
            (grad, np.diagonal(hess, axis1=1, axis2=2), hess[:, iu[0], iu[1]]), axis=1
        )
        return _rel(fd, exact).max(axis=1)

    with np.errstate(all="ignore"):
        for start in range(0, len(coords), per_batch):
            batch = coords[start : start + per_batch]
            out, keep, excluded, _ = _guarded(
                lambda points: deviations(batch[points]), len(batch)
            )
            if out is not None:
                errors[start + keep] = out
            outside[start : start + len(batch)] = excluded
    return errors, outside


def fd_crosscheck(field, params, points, h):
    """Max relative deviation of jet derivatives from central differences
    over ``points``, evaluated by :func:`fd_point_errors`, whose batches
    read the values of the whole stencils of many points and the jets of
    their base points.

    A non-finite jet entry or stencil value, or an overflow, gives inf.
    A stencil that leaves the field's domain raises DomainError; an empty
    ``points`` raises ValueError (nothing compared is no pass), as does an
    ``h`` that is not positive and finite.
    """
    if not points:
        raise ValueError("fd_crosscheck needs at least one point")
    errors, outside = fd_point_errors(
        field, params, [(p.t,) + p.x for p in points], h
    )
    if outside.any():
        p = points[int(np.argmax(outside))]
        raise DomainError(f"the FD stencil at t={p.t}, x={p.x} leaves the domain")
    return float(errors.max())


__all__ = ["GridSpec", "ResidualReport", "within_tolerance", "verdict", "field_jets",
           "run_residual_suite", "fd_point_errors", "fd_crosscheck"]
