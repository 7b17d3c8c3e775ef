"""Grid construction, residual aggregation and FD cross-validation.

Traversal and reduction orders are fixed, so every report is bitwise
reproducible for identical inputs.
"""

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, DomainError
from .fields import Point, check_point, evaluate
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

    def points(self):
        """Deterministic traversal: t outermost, last spatial axis fastest."""
        for combo in itertools.product(*self.axes()):
            yield Point(combo[0], tuple(combo[1:]))


@dataclass(frozen=True)
class ResidualReport:
    """Aggregate of one residual kind over one grid.

    ``max_abs`` and ``rms`` are scale-normalized; the raw maximum is
    kept in ``raw_max_abs`` for diagnostics and is not serialized.
    A report passes iff at least one point was evaluated, every evaluated
    residual and scale is finite, the normalized maximum is within
    tolerance, and no more than half the grid was excluded.
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

    def overflowed(self):
        # a value past the float range is a non-finite result
        self.evaluated += 1
        self.finite = False

    def add(self, pt, raw, scale):
        norm = float(abs(raw)) / scale
        self.evaluated += 1
        self.finite = self.finite and math.isfinite(raw) and math.isfinite(scale)
        self.sumsq += norm * norm
        if abs(raw) > self.max_raw:
            self.max_raw = float(abs(raw))
        if self.worst is None or norm > self.max_norm:
            self.max_norm = norm
            self.worst = pt

    def report(self, equation, family, tol):
        evaluated, excluded = self.evaluated, self.excluded
        ok = bool(
            self.finite
            and evaluated > 0
            and within_tolerance(self.max_norm, tol)
            and excluded <= 0.5 * (evaluated + excluded)
        )
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


def run_residual_suite(field, kinds, params, grid, tol, g=None, family_id=None):
    """One ResidualReport per kind; domain errors count as exclusions,
    overflows as non-finite evaluations.

    The field is evaluated once per grid point and its jet shared by
    every kind.  An error from the field counts for every kind, one from
    a kind's residual or scale only for that kind.
    """
    if grid.spatial_dim != params.spatial_dim:
        raise DimensionMismatch(
            f"grid has {grid.spatial_dim} spatial axes, params expect "
            f"{params.spatial_dim}"
        )
    fid = repr(field) if family_id is None else str(family_id)
    kinds = sorted(kinds, key=lambda k: k.value)
    tallies = [_Tally() for _ in kinds]
    for pt in grid.points():
        try:
            jet = evaluate(field, params, pt)
        except DomainError:
            for tally in tallies:
                tally.excluded += 1
            continue
        except OverflowError:
            for tally in tallies:
                tally.overflowed()
            continue
        for kind, tally in zip(kinds, tallies):
            try:
                raw = evaluate_residual(kind, jet, params, g)
                scale = residual_scale(kind, jet, params)
            except DomainError:
                tally.excluded += 1
                continue
            except OverflowError:
                tally.overflowed()
                continue
            tally.add(pt, raw, scale)
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


def fd_crosscheck(field, params, points, h):
    """Max relative deviation of jet derivatives from central differences.

    First derivatives use (f(p+h) - f(p-h)) / 2h; second derivatives the
    standard three-point and four-point (mixed) second-order stencils.
    The relative error denominator is 1 + |jet entry|.  The whole stencil
    of each point, the point itself first, is evaluated as one batch by
    ``field.evaluate_many``; the jet is the batch's first row.  Points are
    not batched together, which keeps a batch at 1 + 2*(N+1)**2 rows.  A
    non-finite jet entry or stencil value, or an overflow, gives inf.
    Stencil points outside the field's domain raise DomainError, and an
    empty ``points`` raises ValueError: nothing compared is no pass.
    """
    if h <= 0.0:
        raise ValueError("h must be positive")
    if not points:
        raise ValueError("fd_crosscheck needs at least one point")
    d = params.jet_dim
    n_rows, rows, axes, signs = _stencil_steps(d)
    steps = signs * h
    iu = np.triu_indices(d, 1)
    worst = 0.0
    with np.errstate(all="ignore"):
        for p in points:
            check_point(params, p)
            coords = np.empty((n_rows, d))
            coords[:] = p.coords()
            coords[rows, axes] += steps
            try:
                jets = field.evaluate_many(params, coords)
            except OverflowError:
                worst = math.inf
                continue
            if jets.dim != params.jet_dim:
                raise DimensionMismatch(
                    f"field returned dim {jets.dim}, expected {params.jet_dim}"
                )
            f = jets.value
            f0, hess = f[0], jets.hess[0]
            plus, minus = f[1 : 2 * d + 1 : 2], f[2 : 2 * d + 2 : 2]
            fpp, fpm, fmm, fmp = f[2 * d + 1 :].reshape(-1, 4).T
            fd = np.concatenate((
                (plus - minus) / (2.0 * h),
                (plus - 2.0 * f0 + minus) / (h * h),
                (fpp - fpm - fmp + fmm) / (4.0 * h * h),
            ))
            exact = np.concatenate((jets.grad[0], np.diagonal(hess), hess[iu]))
            worst = max(worst, float(_rel(fd, exact).max()))
    return worst


__all__ = ["GridSpec", "ResidualReport", "within_tolerance", "run_residual_suite",
           "fd_crosscheck"]
