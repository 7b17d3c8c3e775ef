"""Grid construction, residual aggregation and FD cross-validation.

Traversal and reduction orders are fixed, so every report is bitwise
reproducible for identical inputs.
"""

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, DomainError
from .fields import Point, evaluate
from .operators import evaluate_residual, residual_scale


@dataclass(frozen=True)
class GridSpec:
    """Tensor grid over (t, x_1..x_N).

    ``t_range`` and each entry of ``x_ranges`` are (lo, hi, count);
    ``exclusion`` is an optional predicate Point -> bool marking points
    to skip before evaluation (True = exclude).
    """

    t_range: tuple
    x_ranges: tuple
    exclusion: object = None

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


def run_residual_suite(field, kinds, params, grid, tol, g=None, family_id=None):
    """One ResidualReport per kind; domain errors count as exclusions,
    overflows as non-finite evaluations."""
    if grid.spatial_dim != params.spatial_dim:
        raise DimensionMismatch(
            f"grid has {grid.spatial_dim} spatial axes, params expect "
            f"{params.spatial_dim}"
        )
    fid = repr(field) if family_id is None else str(family_id)
    reports = []
    for kind in sorted(kinds, key=lambda k: k.value):
        evaluated = 0
        excluded = 0
        max_norm = 0.0
        max_raw = 0.0
        sumsq = 0.0
        worst = None
        finite = True
        for pt in grid.points():
            if grid.exclusion is not None and grid.exclusion(pt):
                excluded += 1
                continue
            try:
                jet = evaluate(field, params, pt)
                raw = evaluate_residual(kind, jet, params, g)
                scale = residual_scale(kind, jet, params)
            except DomainError:
                excluded += 1
                continue
            except OverflowError:
                # a value past the float range is a non-finite result
                evaluated += 1
                finite = False
                continue
            norm = float(abs(raw)) / scale
            evaluated += 1
            finite = finite and math.isfinite(raw) and math.isfinite(scale)
            sumsq += norm * norm
            if abs(raw) > max_raw:
                max_raw = float(abs(raw))
            if worst is None or norm > max_norm:
                max_norm = norm
                worst = pt
        total = evaluated + excluded
        ok = bool(
            finite
            and evaluated > 0
            and max_norm <= tol
            and excluded <= 0.5 * total
        )
        rms = math.sqrt(sumsq / evaluated) if evaluated else 0.0
        reports.append(
            ResidualReport(
                equation=kind.value,
                family=fid,
                points_evaluated=evaluated,
                points_excluded=excluded,
                max_abs=max_norm,
                rms=rms,
                worst_point=worst,
                tolerance=tol,
                passed=ok,
                raw_max_abs=max_raw,
            )
        )
    return reports


def _rel(a, b):
    """Relative deviation; inf when either side is not finite."""
    err = abs(a - b) / (1.0 + abs(b))
    return err if math.isfinite(err) else math.inf


def fd_crosscheck(field, params, points, h):
    """Max relative deviation of jet derivatives from central differences.

    First derivatives use (f(p+h) - f(p-h)) / 2h; second derivatives the
    standard three-point and four-point (mixed) second-order stencils.
    The relative error denominator is 1 + |jet entry|.  A non-finite jet
    entry or stencil value gives inf.  Stencil points outside the field's
    domain raise DomainError.
    """
    if h <= 0.0:
        raise ValueError("h must be positive")

    def value_at(coords):
        return evaluate(field, params, Point(coords[0], tuple(coords[1:]))).value

    worst = 0.0
    for p in points:
        jet = evaluate(field, params, p)
        base = [p.t] + list(p.x)
        d = len(base)
        f0 = jet.value
        plus = [0.0] * d
        minus = [0.0] * d
        for i in range(d):
            stepped = list(base)
            stepped[i] = base[i] + h
            plus[i] = value_at(stepped)
            stepped[i] = base[i] - h
            minus[i] = value_at(stepped)
            fd1 = (plus[i] - minus[i]) / (2.0 * h)
            worst = max(worst, _rel(fd1, jet.grad[i]))
            fd2 = (plus[i] - 2.0 * f0 + minus[i]) / (h * h)
            worst = max(worst, _rel(fd2, jet.hess[i, i]))
        for i in range(d):
            for j in range(i + 1, d):
                stepped = list(base)
                stepped[i] = base[i] + h
                stepped[j] = base[j] + h
                fpp = value_at(stepped)
                stepped[j] = base[j] - h
                fpm = value_at(stepped)
                stepped[i] = base[i] - h
                fmm = value_at(stepped)
                stepped[j] = base[j] + h
                fmp = value_at(stepped)
                fd2 = (fpp - fpm - fmp + fmm) / (4.0 * h * h)
                worst = max(worst, _rel(fd2, jet.hess[i, j]))
    return float(worst)


__all__ = ["GridSpec", "ResidualReport", "run_residual_suite", "fd_crosscheck"]
