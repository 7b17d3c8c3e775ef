"""Grids, residual reports, finite-difference cross-checks."""

import json
import math

import numpy as np
import pytest

from condsym import jet2
from condsym.errors import DimensionMismatch, DomainError
from condsym.fields import (
    ModelParams,
    Point,
    RandomPolynomialField,
    ScalarField,
    parse_profile,
)
from condsym.operators import ResidualKind
from condsym.solutions import DEFAULT_FAMILIES, SolutionField, default_params
from condsym.verify import GridSpec, fd_crosscheck, run_residual_suite

P2 = ModelParams(2, 2.0)


class _Paraboloid(ScalarField):
    """u = x1^2 + x2^2, no time dependence."""

    def evaluate(self, params, point):
        j1 = jet2.seed(3, 1, point.x[0])
        j2 = jet2.seed(3, 2, point.x[1])
        return jet2.add(jet2.mul(j1, j1), jet2.mul(j2, j2))


class _HalfPlane(ScalarField):
    """Defined only for x1 > 0."""

    def evaluate(self, params, point):
        if point.x[0] <= 0.0:
            raise DomainError("left half plane excluded")
        jt = jet2.seed(3, 0, point.t)
        j1 = jet2.seed(3, 1, point.x[0])
        return jet2.add(jet2.mul(jt, j1), jet2.ln(j1))


class _NaNAfter(ScalarField):
    """``base`` for the first ``finite`` evaluations, all-NaN jets after."""

    def __init__(self, base, finite):
        self.base = base
        self.left = finite

    def evaluate(self, params, point):
        self.left -= 1
        if self.left >= 0:
            return self.base.evaluate(params, point)
        nan = math.nan
        d = params.jet_dim
        return jet2.Jet2(nan, [nan] * d, [[nan] * d] * d)


def test_grid_spec_validation():
    with pytest.raises(ValueError):
        GridSpec((1.0, 0.5, 4), ((-1.0, 1.0, 4),))
    with pytest.raises(ValueError):
        GridSpec((0.5, 2.0, 1), ((-1.0, 1.0, 4),))
    with pytest.raises(ValueError):
        GridSpec((0.5, 2.0, 4), ((-1.0, -1.0, 4),))


def test_grid_points_order_and_count():
    grid = GridSpec((0.0, 1.0, 2), ((0.0, 1.0, 2), (0.0, 1.0, 2)))
    pts = list(grid.points())
    assert len(pts) == 8 == grid.total_points
    assert pts[0] == Point(0.0, (0.0, 0.0))
    assert pts[1] == Point(0.0, (0.0, 1.0))  # last axis varies fastest
    assert pts[-1] == Point(1.0, (1.0, 1.0))
    assert list(grid.points()) == pts  # deterministic


def test_suite_reports_raw_and_normalized():
    # spatial Hessian determinant of x1^2 + x2^2 is 4 at every point;
    # the matrix entries are 2, so the normalized value is 4 / (1+2)^2
    grid = GridSpec((0.5, 1.0, 2), ((0.5, 1.0, 2), (0.5, 1.0, 2)))
    (report,) = run_residual_suite(
        _Paraboloid(), [ResidualKind.MONGE_AMPERE], P2, grid, 1e-8
    )
    assert report.raw_max_abs == pytest.approx(4.0, abs=1e-13)
    assert report.max_abs == pytest.approx(4.0 / 9.0, abs=1e-13)
    assert report.rms == pytest.approx(4.0 / 9.0, abs=1e-13)
    assert report.points_evaluated == 8
    assert report.points_excluded == 0
    assert not report.passed


def test_report_dict_shape():
    grid = GridSpec((0.5, 1.0, 2), ((0.5, 1.0, 2), (0.5, 1.0, 2)))
    (report,) = run_residual_suite(
        _Paraboloid(), [ResidualKind.MONGE_AMPERE], P2, grid, 1e-8, family_id="para"
    )
    d = report.to_dict()
    assert sorted(d) == [
        "equation",
        "family",
        "max_abs",
        "pass",
        "points_evaluated",
        "points_excluded",
        "rms",
        "tolerance",
        "worst_point",
    ]
    assert d["family"] == "para"
    assert d["equation"] == "monge-ampere"
    assert isinstance(d["pass"], bool)
    assert set(d["worst_point"]) == {"t", "x"}
    json.dumps(d)  # plain types only


def test_domain_errors_count_as_exclusions():
    grid = GridSpec((0.5, 1.0, 3), ((-1.0, 1.0, 4), (-1.0, 1.0, 2)))
    (report,) = run_residual_suite(
        _HalfPlane(), [ResidualKind.MONGE_AMPERE], P2, grid, 1e-8
    )
    assert report.points_excluded == 12  # x1 in {-1, -1/3} for every (t, x2)
    assert report.points_evaluated == 12


def test_fully_excluded_grid_fails():
    grid = GridSpec((0.5, 1.0, 2), ((0.5, 1.0, 2), (0.5, 1.0, 2)))
    excl = GridSpec(grid.t_range, grid.x_ranges, exclusion=lambda p: True)
    (report,) = run_residual_suite(
        _Paraboloid(), [ResidualKind.MONGE_AMPERE], P2, excl, 1e-8
    )
    assert report.points_evaluated == 0
    assert not report.passed
    assert report.to_dict()["worst_point"] is None


def test_majority_exclusion_fails_even_if_accurate():
    grid = GridSpec(
        (0.5, 1.0, 3),
        ((-1.0, 1.0, 4), (-1.0, 1.0, 2)),
        exclusion=lambda p: p.x[0] <= 0.5,
    )
    (report,) = run_residual_suite(
        _HalfPlane(), [ResidualKind.MONGE_AMPERE], P2, grid, 1e-2
    )
    assert report.points_excluded > 0.5 * (
        report.points_excluded + report.points_evaluated
    )
    assert not report.passed


@pytest.mark.parametrize("finite, passed", [(10**6, True), (1, False), (0, False)])
def test_non_finite_residual_fails(finite, passed):
    # NaN after a finite first point used to pass: max(0.0, nan) is 0.0
    fam = DEFAULT_FAMILIES["radial-z1"]
    params = default_params(fam)
    grid = GridSpec((0.8, 1.4, 3), ((0.2, 0.9, 4),) * 2)
    field = _NaNAfter(SolutionField(fam), finite)
    (report,) = run_residual_suite(
        field, [ResidualKind.DIFFUSION], params, grid, 1e-8
    )
    assert report.points_evaluated == grid.total_points
    assert report.passed is passed


def test_grid_params_dim_mismatch():
    grid = GridSpec((0.5, 1.0, 2), ((0.0, 1.0, 2),))
    with pytest.raises(DimensionMismatch):
        run_residual_suite(_Paraboloid(), [ResidualKind.MONGE_AMPERE], P2, grid, 1e-8)


def test_kinds_are_sorted_in_output():
    grid = GridSpec((0.5, 1.0, 2), ((0.5, 1.0, 2), (0.5, 1.0, 2)))
    reports = run_residual_suite(
        _Paraboloid(),
        [ResidualKind.MONGE_AMPERE, ResidualKind.DIFFUSION],
        P2,
        grid,
        1e-8,
    )
    assert [r.equation for r in reports] == ["diffusion", "monge-ampere"]


def test_fd_crosscheck_polynomial_is_exact_at_coarse_h():
    # degree-2 field: central differences are exact up to rounding, so a
    # coarse step keeps the rounding floor far below 1e-10
    params = ModelParams(2, 2.0)
    field = RandomPolynomialField(5, params, 2)
    pts = [Point(1.0, (0.3, -0.4)), Point(0.7, (0.9, 0.2))]
    assert fd_crosscheck(field, params, pts, h=1e-2) < 1e-10


def test_fd_crosscheck_cubic_small_error():
    params = ModelParams(2, 2.0)
    field = RandomPolynomialField(6, params, 3)
    pts = [Point(1.0, (0.3, -0.4))]
    assert fd_crosscheck(field, params, pts, h=1e-4) < 1e-4


def test_fd_crosscheck_on_catalog_family():
    fam = DEFAULT_FAMILIES["general-z"]
    params = default_params(fam)
    field = SolutionField(fam)
    pts = [Point(1.0, (0.5, 0.2)), Point(1.5, (0.8, -0.3))]
    assert fd_crosscheck(field, params, pts, h=1e-4) < 1e-4


def test_fd_crosscheck_rejects_bad_h():
    params = ModelParams(1, 2.0)
    field = RandomPolynomialField(5, params, 2)
    with pytest.raises(ValueError):
        fd_crosscheck(field, params, [Point(1.0, (0.0,))], h=0.0)


def test_fd_crosscheck_propagates_domain_errors():
    params = ModelParams(2, 2.0)
    with pytest.raises(DomainError):
        fd_crosscheck(_HalfPlane(), params, [Point(1.0, (1e-5, 0.0))], h=1e-4)


@pytest.mark.parametrize("finite", [1, 0])
def test_fd_crosscheck_non_finite_is_inf(finite):
    params = ModelParams(2, 2.0)
    field = _NaNAfter(RandomPolynomialField(6, params, 3), finite)
    pts = [Point(1.0, (0.3, -0.4))]
    assert fd_crosscheck(field, params, pts, h=1e-4) == math.inf
