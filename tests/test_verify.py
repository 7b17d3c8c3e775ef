"""Grids, residual reports, finite-difference cross-checks."""

import dataclasses
import itertools
import json
import math

import numpy as np
import pytest

from condsym import jet2
from condsym.errors import BranchError, DimensionMismatch, DomainError, ZeroDynamicalExponent
from condsym.fields import (
    ModelParams,
    Point,
    RandomPolynomialField,
    ScalarField,
    check_coords,
    parse_profile,
)
from condsym.operators import ResidualKind, evaluate_residual, residual_scale
from condsym.solutions import (
    DEFAULT_FAMILIES,
    OneDimGeneric,
    SolutionField,
    default_grid,
    default_params,
)
from condsym.symmetry import Rot, Xn, Yk, Yphi, pushforward_field
from condsym.verify import (
    _BATCH_ENTRIES,
    GridSpec,
    ResidualReport,
    Tally,
    _stencil,
    fd_check,
    fd_crosscheck,
    run_residual_suite,
    scan,
    within_tolerance,
)

P2 = ModelParams(2, 2.0)


class _Paraboloid(ScalarField):
    """u = x1^2 + x2^2, no time dependence."""

    def evaluate_many(self, params, coords):
        _, j1, j2 = jet2.coordinates(3, check_coords(params, coords))
        return j1 * j1 + j2 * j2


class _HalfPlane(ScalarField):
    """Defined only for x1 > 0."""

    def evaluate_many(self, params, coords):
        coords = check_coords(params, coords)
        jet2.guard(coords[..., 1] <= 0.0, "left half plane excluded")
        jt, j1, _ = jet2.coordinates(3, coords)
        return jt * j1 + jet2.ln(j1)


class _NaNAfter(ScalarField):
    """``base`` for the first ``finite`` rows evaluated, counted across
    calls, and all-NaN jets after."""

    def __init__(self, base, finite):
        self.base = base
        self.left = finite

    def evaluate_many(self, params, coords):
        jets = self.base.evaluate_many(params, coords)
        value, grad, hess = (np.array(a) for a in (jets.value, jets.grad, jets.hess))
        late = np.arange(value.size).reshape(value.shape) >= self.left
        self.left -= value.size
        value[late], grad[late], hess[late] = math.nan, math.nan, math.nan
        return jet2.Jet2(value, grad, hess)


def test_grid_spec_validation():
    with pytest.raises(ValueError):
        GridSpec((1.0, 0.5, 4), ((-1.0, 1.0, 4),))
    with pytest.raises(ValueError):
        GridSpec((0.5, 2.0, 1), ((-1.0, 1.0, 4),))
    with pytest.raises(ValueError):
        GridSpec((0.5, 2.0, 4), ((-1.0, -1.0, 4),))


def test_grid_points_order_and_count():
    grid = GridSpec((0.0, 1.0, 2), ((0.0, 1.0, 2), (0.0, 1.0, 2)))
    rows = grid.coords()
    assert rows.shape == (8, 3) and len(rows) == grid.total_points
    assert rows[0].tolist() == [0.0, 0.0, 0.0]
    assert rows[1].tolist() == [0.0, 0.0, 1.0]  # last axis varies fastest
    assert rows[-1].tolist() == [1.0, 1.0, 1.0]
    assert np.array_equal(grid.coords(), rows)  # deterministic


def test_suite_reports_raw_and_normalized():
    # spatial Hessian determinant of x1^2 + x2^2 is 4 at every point;
    # the matrix entries are 2, so the normalized value is 4 / (1+2)^2
    grid = GridSpec((0.5, 1.0, 2), ((0.5, 1.0, 2), (0.5, 1.0, 2)))
    (report,) = run_residual_suite(
        _Paraboloid(), [ResidualKind.MONGE_AMPERE], P2, grid, 1e-8
    )
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


def test_report_serializes_every_field():
    # a report holds nothing that its dict leaves out; ``passed`` is "pass"
    grid = GridSpec((0.5, 1.0, 2), ((0.5, 1.0, 2), (0.5, 1.0, 2)))
    (report,) = run_residual_suite(_Paraboloid(), [ResidualKind.MONGE_AMPERE], P2, grid, 1e-8)
    names = [f.name for f in dataclasses.fields(ResidualReport)]
    assert [{"passed": "pass"}.get(name, name) for name in names] == list(report.to_dict())


def test_domain_errors_count_as_exclusions():
    grid = GridSpec((0.5, 1.0, 3), ((-1.0, 1.0, 4), (-1.0, 1.0, 2)))
    (report,) = run_residual_suite(
        _HalfPlane(), [ResidualKind.MONGE_AMPERE], P2, grid, 1e-8
    )
    assert report.points_excluded == 12  # x1 in {-1, -1/3} for every (t, x2)
    assert report.points_evaluated == 12


def test_fully_excluded_grid_fails():
    grid = GridSpec((0.5, 1.0, 2), ((-1.0, -0.5, 2), (0.5, 1.0, 2)))
    (report,) = run_residual_suite(
        _HalfPlane(), [ResidualKind.MONGE_AMPERE], P2, grid, 1e-8
    )
    assert report.points_evaluated == 0
    assert report.points_excluded == 8
    assert not report.passed
    assert report.to_dict()["worst_point"] is None


def test_majority_exclusion_fails_even_if_accurate():
    # x1 in {-1, -0.5, 0, 0.5}: three of every four points leave the domain
    grid = GridSpec((0.5, 1.0, 3), ((-1.0, 0.5, 4), (-1.0, 1.0, 2)))
    (report,) = run_residual_suite(
        _HalfPlane(), [ResidualKind.MONGE_AMPERE], P2, grid, 1e-2
    )
    assert report.points_excluded > 0.5 * (
        report.points_excluded + report.points_evaluated
    )
    assert report.max_abs <= 1e-2
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


class _WrongDim(ScalarField):
    """Jets in one dimension too many."""

    def evaluate_many(self, params, coords):
        return jet2.constant(params.jet_dim + 1, np.zeros(len(coords)))


@pytest.mark.parametrize("run", [
    lambda f, grid: run_residual_suite(f, [ResidualKind.DIFFUSION], P2, grid, 1e-8),
    lambda f, grid: fd_crosscheck(f, P2, [Point(r[0], tuple(r[1:])) for r in grid.coords()], 1e-4),
], ids=["suite", "fd"])
def test_jets_of_the_wrong_dimension_are_refused(run):
    grid = GridSpec((0.5, 1.0, 2), ((0.5, 1.0, 2),) * 2)
    with pytest.raises(DimensionMismatch, match="field returned dim 4, expected 3"):
        run(_WrongDim(), grid)


@pytest.mark.parametrize("xs", [
    [(0.1,)],
    [(0.1, 0.2, 0.3)],
    [(0.1, 0.2), (0.1,)],
    [(0.1, 0.2), (0.1, 0.2, 0.3), (0.1, 0.2)],
], ids=["short", "long", "mixed-short", "mixed-long"])
def test_fd_crosscheck_refuses_points_of_the_wrong_dimension(xs):
    field = RandomPolynomialField(3, P2, 3)
    with pytest.raises(DimensionMismatch):
        fd_crosscheck(field, P2, [Point(1.0, x) for x in xs], 1e-4)


class _Nowhere(ScalarField):
    """Refuses every batch by an error that names no rows."""

    def evaluate_many(self, params, coords):
        raise DomainError("defined nowhere")


def test_an_error_that_names_no_rows_sets_aside_every_row_left():
    grid = GridSpec((0.5, 1.0, 2), ((0.5, 1.0, 2),) * 2)
    (report,) = run_residual_suite(_Nowhere(), [ResidualKind.DIFFUSION], P2, grid, 1e-8)
    assert (report.points_evaluated, report.points_excluded, report.passed) == (0, 8, False)

    def overflows(points, jets):
        raise OverflowError("no rows named")

    tally = Tally()
    scan(RandomPolynomialField(3, P2, 3), P2, grid.coords(), [overflows], [[tally]])
    assert (tally.evaluated, tally.excluded, tally.gap) == (8, 0, math.inf)


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


@pytest.mark.parametrize("h", [math.nan, math.inf, -math.inf, -1e-4])
def test_fd_crosscheck_rejects_a_step_that_is_not_positive_and_finite(h):
    params = ModelParams(1, 2.0)
    field = RandomPolynomialField(5, params, 2)
    with pytest.raises(ValueError, match="h must be positive and finite"):
        fd_crosscheck(field, params, [Point(1.0, (0.0,))], h=h)


def test_fd_crosscheck_rejects_no_points():
    # nothing compared is no pass
    params = ModelParams(1, 2.0)
    field = RandomPolynomialField(5, params, 2)
    with pytest.raises(ValueError, match="at least one point"):
        fd_crosscheck(field, params, [], h=1e-4)


def test_fd_crosscheck_propagates_domain_errors():
    params = ModelParams(2, 2.0)
    with pytest.raises(DomainError):
        fd_crosscheck(_HalfPlane(), params, [Point(1.0, (1e-5, 0.0))], h=1e-4)


@pytest.mark.parametrize("finite", [1, 0])
def test_fd_crosscheck_non_finite_is_inf(finite):
    # _NaNAfter counts rows across the values of the stencils and the jets
    # of their base points
    params = ModelParams(2, 2.0)
    field = _NaNAfter(RandomPolynomialField(6, params, 3), finite)
    pts = [Point(1.0, (0.3, -0.4))]
    assert fd_crosscheck(field, params, pts, h=1e-4) == math.inf


def _fd_crosscheck_scalar_loop(field, params, points, h):
    """The reference: one scalar jet per stencil point, differences in the
    float order that ``fd_crosscheck`` keeps on its batch."""

    def value_at(coords):
        return field.evaluate(params, Point(coords[0], tuple(coords[1:]))).value

    def rel(a, b):
        err = abs(a - b) / (1.0 + abs(b))
        return err if math.isfinite(err) else math.inf

    worst = 0.0
    for p in points:
        jet = field.evaluate(params, p)
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
            worst = max(worst, rel(fd1, jet.grad[i]))
            fd2 = (plus[i] - 2.0 * f0 + minus[i]) / (h * h)
            worst = max(worst, rel(fd2, jet.hess[i, i]))
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
                worst = max(worst, rel(fd2, jet.hess[i, j]))
    return float(worst)


def _fd_points(params, count, seed, field):
    rng = np.random.default_rng(seed)
    points = []
    while len(points) < count:
        x = tuple(rng.uniform(-0.9, 0.9, params.spatial_dim))
        p = Point(rng.uniform(0.6, 1.9), x)
        try:
            fd_crosscheck(field, params, [p], 1e-4)
        except DomainError:
            continue
        points.append(p)
    return points


@pytest.mark.parametrize("which", ["random-N2", "random-N3", "radial-z1"])
def test_fd_crosscheck_matches_scalar_loop_bitwise(which):
    if which == "radial-z1":
        fam = DEFAULT_FAMILIES["radial-z1"]
        params = default_params(fam)
        field = SolutionField(fam)
    else:
        params = ModelParams(int(which[-1]), 2.0)
        field = RandomPolynomialField(8, params, 4)
    points = _fd_points(params, 25, 9, field)
    for k, p in enumerate(points):
        for h in (1e-4, 1e-2):
            got = fd_crosscheck(field, params, [p], h)
            assert got == _fd_crosscheck_scalar_loop(field, params, [p], h), (k, h)
    # many points: their stencils share batches
    for h in (1e-4, 1e-2):
        got = fd_crosscheck(field, params, points, h)
        assert got == _fd_crosscheck_scalar_loop(field, params, points, h), h


@pytest.mark.parametrize("name", sorted(DEFAULT_FAMILIES))
def test_fd_crosscheck_of_many_points_is_the_worst_single_point(name):
    # 61 points: a prime, so no batch size (56, 11 or 3 points) divides it
    fam = DEFAULT_FAMILIES[name]
    params = default_params(fam)
    field = SolutionField(fam)
    points = _fd_points(params, 61, 4, field)
    single = [fd_crosscheck(field, params, [p], 1e-4) for p in points]
    assert fd_crosscheck(field, params, points, 1e-4) == max(single)
    # the check on all the points as one batch gives each its own gap
    check, _ = fd_check(field, params, 1e-4)
    coords = np.array([p.coords() for p in points])
    ((gaps, scale),) = check(coords, field.evaluate_many(params, coords))
    assert gaps.tolist() == single and scale == 1.0


@pytest.mark.parametrize("d", [2, 3, 4])
@pytest.mark.parametrize("h", [1e-4, 1e-2, 2.0])
def test_stencil_table_steps_as_the_scatter_add_did(d, h):
    # the reference: the point repeated, one signed step of h added at
    # each (row, axis) of the stencil; the point itself is no row
    steps = []
    for i in range(d):
        steps += [(2 * i, i, 1.0), (1 + 2 * i, i, -1.0)]
    row = 2 * d
    for i, j in itertools.combinations(range(d), 2):
        for si, sj in ((1.0, 1.0), (1.0, -1.0), (-1.0, -1.0), (-1.0, 1.0)):
            steps += [(row, i, si), (row, j, sj)]
            row += 1
    rows, axes, signs = (np.array(c) for c in zip(*steps))
    points = np.random.default_rng(d).uniform(-2.0, 2.0, (50, d))
    points[0] = [0.0, -0.0] + [1e-300] * (d - 2)
    want = np.repeat(points[:, None, :], row, axis=1)
    want[:, rows, axes] += signs * h
    got = points[:, None, :] + h * _stencil(d)
    assert got.tobytes() == want.tobytes()


class _CountingField(ScalarField):
    """``base``, recording the rows of each ``values_many`` and each
    ``evaluate_many`` call."""

    def __init__(self, base):
        self.base = base
        self.value_calls = []
        self.jet_calls = []

    def evaluate(self, params, point):
        raise AssertionError("the FD check evaluates stencils in batches")

    def values_many(self, params, coords):
        self.value_calls.append(np.array(coords))
        return self.base.values_many(params, coords)

    def evaluate_many(self, params, coords):
        self.jet_calls.append(np.array(coords))
        return self.base.evaluate_many(params, coords)


@pytest.mark.parametrize("N", [1, 2, 3])
def test_fd_crosscheck_batches_whole_stencils_of_many_points(N):
    # the values of whole stencils and the jets of their points only, under
    # one bound on the entries of a batch; a point's value is its jet's
    params = ModelParams(N, 2.0)
    field = _CountingField(RandomPolynomialField(3, params, 3))
    rng = np.random.default_rng(5)
    count, h = 691, 1e-4  # a prime, so no batch size divides it
    coords = np.column_stack(
        (rng.uniform(0.6, 1.9, count), rng.uniform(-0.9, 0.9, (count, N)))
    )
    fd_crosscheck(field, params, [Point(r[0], tuple(r[1:])) for r in coords], h)
    d = N + 1
    stencil = 2 * d * d
    per_batch = _BATCH_ENTRIES // (stencil + d * d)
    assert per_batch * (stencil + d * d) <= _BATCH_ENTRIES
    assert (per_batch + 1) * (stencil + d * d) > _BATCH_ENTRIES
    assert len(field.value_calls) == len(field.jet_calls) == -(-count // per_batch) >= 2
    assert max(len(points) for points in field.jet_calls) == per_batch
    # every point once, in order, and its stencil around it, without it
    assert np.array_equal(np.concatenate(field.jet_calls), coords)
    for rows, points in zip(field.value_calls, field.jet_calls):
        stencils = rows.reshape(len(points), stencil, d)
        assert not (stencils == points[:, None]).all(axis=2).any()
        assert stencils.tobytes() == (points[:, None] + h * _stencil(d)).tobytes()
        steps = stencils - points[:, None]
        assert (np.count_nonzero(steps, axis=2) == [1] * 2 * d
                + [2] * (stencil - 2 * d)).all()
        assert np.allclose(np.abs(steps[steps != 0.0]), h, rtol=1e-6)


class _HessianOffBy(ScalarField):
    """``base`` with Hessian entry (1, 2) and its mirror moved by ``delta``."""

    def __init__(self, base, delta):
        self.base = base
        self.delta = delta

    def evaluate(self, params, point):
        raise AssertionError("the FD check evaluates stencils as one batch")

    def evaluate_many(self, params, coords):
        jets = self.base.evaluate_many(params, coords)
        hess = jets.hess.copy()
        hess[:, 1, 2] += self.delta
        hess[:, 2, 1] += self.delta
        return jet2.Jet2(jets.value, jets.grad, hess)


def test_fd_crosscheck_rejects_a_perturbed_hessian_entry():
    fam = DEFAULT_FAMILIES["radial-z1"]
    params = default_params(fam)
    pts = [Point(1.0, (0.5, 0.2)), Point(1.5, (0.8, -0.3))]
    exact = _HessianOffBy(SolutionField(fam), 0.0)
    assert fd_crosscheck(exact, params, pts, 1e-4) < 1e-5
    perturbed = _HessianOffBy(SolutionField(fam), 1e-3)
    assert fd_crosscheck(perturbed, params, pts, 1e-4) > 1e-4


def test_fd_crosscheck_overflow_is_inf():
    fam = OneDimGeneric(q=parse_profile("exp:1,800"))
    params = default_params(fam)
    pts = [Point(1.0, (0.2,))]
    with pytest.raises(OverflowError):
        SolutionField(fam).evaluate(params, pts[0])
    assert fd_crosscheck(SolutionField(fam), params, pts, 1e-4) == math.inf


class _OverflowPastFive(ScalarField):
    """The paraboloid for 0 < x1 <= 5.  Past 5 an overflow guard fails, and
    it runs before the guard of the domain x1 > 0."""

    def evaluate(self, params, point):
        raise AssertionError("the FD check evaluates stencils in batches")

    def evaluate_many(self, params, coords):
        x1 = coords[:, 1]
        jet2.guard(x1 > 5.0, "math range error", OverflowError)
        jet2.guard(x1 <= 0.0, "left half plane excluded")
        return _Paraboloid().evaluate_many(params, coords)


def test_fd_crosscheck_mixed_batch_of_overflow_and_domain_errors():
    over, out, fine = Point(1.0, (6.0, 0.0)), Point(1.0, (1e-5, 0.0)), Point(1.0, (0.5, 0.2))
    field = _OverflowPastFive()
    for points in ([over, out], [out, over], [fine, over, out]):
        with pytest.raises(DomainError):
            fd_crosscheck(field, P2, points, 1e-4)
    assert fd_crosscheck(field, P2, [fine, over, fine], 1e-4) == math.inf
    assert fd_crosscheck(field, P2, [fine, fine], 1e-2) < 1e-10
    # through one scan, the stencil that leaves the domain is set aside
    # and the overflowed one is evaluated and not finite
    check, values = fd_check(field, P2, 1e-4)
    tally = Tally()
    coords = np.array([p.coords() for p in (over, out, fine)])
    scan(field, P2, coords, [check], [[tally]], values)
    assert (tally.excluded, tally.evaluated, tally.gap) == (1, 2, math.inf)
    assert tally.max_norm < 1e-4


def test_within_tolerance_is_one_rule():
    assert within_tolerance(0.0, 0.0)
    assert within_tolerance(1e-9, 1e-9)
    assert not within_tolerance(2e-9, 1e-9)
    # a non-finite gap fails, even at an infinite tolerance
    for gap in (math.nan, math.inf):
        assert not within_tolerance(gap, math.inf)


def _tally(*batches, excluded=0):
    tally = Tally()
    for gaps in batches:
        gaps = np.array(gaps, dtype=float)
        tally.add(np.zeros((len(gaps), 3)), gaps)
    tally.set_aside(DomainError("outside"), excluded)
    return tally


def test_tally_reduces_gaps_in_sample_order():
    tally = Tally()
    tally.add(np.array([[0.0, 1.0], [1.0, 2.0]]), np.array([-3.0, 1.0]), np.array([2.0, 1.0]))
    tally.add(np.array([[2.0, 3.0], [3.0, 4.0]]), np.array([1.0, 1.5]))
    # 1.5 / 1.0 only ties -3 / 2, so the first sample that reached it stays
    assert (tally.evaluated, tally.excluded, tally.finite) == (4, 0, True)
    assert (tally.max_norm, tally.gap) == (1.5, 1.5)
    assert tally.worst == Point(0.0, (1.0,))
    tally.add(np.array([[4.0, 5.0], [5.0, 6.0]]), np.array([2.0, 2.0]))
    assert (tally.max_norm, tally.worst) == (2.0, Point(4.0, (5.0,)))
    sumsq = ((((1.5**2 + 1.0) + 1.0) + 1.5**2) + 4.0) + 4.0
    assert tally.rms == math.sqrt(sumsq / 6)
    assert tally.passed(2.0) and not tally.passed(1.9)


def test_tally_add_of_no_rows_changes_nothing():
    tally = _tally([0.5, 0.25])
    before = dict(vars(tally))
    tally.add(np.zeros((0, 3)), np.zeros(0))
    tally.add(np.zeros((0, 3)), np.zeros(0), np.zeros(0))
    assert vars(tally) == before
    empty = Tally()
    empty.add(np.zeros((0, 3)), np.zeros(0))
    assert (empty.evaluated, empty.gap, empty.worst, empty.passed(1.0)) == (0, 0.0, None, False)


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_tally_fails_closed_on_a_non_finite_gap(bad):
    for batches in (([bad, 0.1],), ([0.1], [0.2, bad]), ([0.1, bad, 0.2],)):
        tally = _tally(*batches)
        assert tally.gap == math.inf
        assert not tally.passed(math.inf)
    # a finite gap over an infinite scale normalizes to 0, and still fails
    tally = Tally()
    tally.add(np.zeros((1, 3)), np.array([1.0]), np.array([math.inf]))
    assert (tally.max_norm, tally.gap) == (0.0, math.inf)


def test_tally_fails_closed_on_an_overflowed_row():
    tally = _tally([0.1, 0.2])
    tally.set_aside(OverflowError("math range error"), 1)
    assert (tally.evaluated, tally.excluded) == (3, 0)
    assert tally.max_norm == 0.2 and tally.gap == math.inf
    assert not tally.passed(math.inf)
    overflowed = Tally()
    overflowed.set_aside(OverflowError("math range error"), 2)
    assert (overflowed.evaluated, overflowed.gap, overflowed.worst) == (2, math.inf, None)
    assert not overflowed.passed(math.inf)


def test_tally_rms_counts_the_gaps_it_squared():
    # an overflowed row has no gap: it counts as evaluated, not in the rms
    tally = _tally([1.0])
    tally.set_aside(OverflowError("math range error"), 3)
    assert (tally.evaluated, tally.rms) == (4, 1.0)


def test_tally_caps_exclusions_at_half():
    assert _tally([0.1, 0.2], excluded=2).passed(1.0)
    assert not _tally([0.1, 0.2], excluded=3).passed(1.0)
    assert not _tally(excluded=1).passed(1.0)  # nothing evaluated is no pass


@pytest.mark.parametrize("error, excluded", [
    (DomainError("outside"), True),
    (BranchError("off branch"), True),
    (ZeroDynamicalExponent("z = 0"), True),
    (OverflowError("math range error"), False),
    (ZeroDivisionError("division by zero"), False),
    (FloatingPointError("underflow"), False),
], ids=lambda v: type(v).__name__ if isinstance(v, Exception) else None)
def test_tally_set_aside_maps_an_error_to_a_count(error, excluded):
    # a DomainError sets rows aside as excluded; any other error counts
    # them as evaluated, with no gap, and makes the gap inf
    tally = _tally([0.1, 0.2])
    tally.set_aside(error, 3)
    if excluded:
        assert (tally.evaluated, tally.excluded, tally.gap) == (2, 3, 0.2)
        assert not tally.passed(1.0)  # 3 of 5 excluded is more than half
    else:
        assert (tally.evaluated, tally.excluded, tally.gap) == (5, 0, math.inf)
        assert not tally.passed(math.inf)
    assert (tally.max_norm, tally.rms) == (0.2, math.sqrt((0.1 * 0.1 + 0.2 * 0.2) / 2))


def _residual_suite_scalar_loop(field, kinds, params, grid, tol):
    """The reference: the per-point driver, one scalar jet per grid point,
    reduced by running aggregates in grid order.  Returns, per kind,
    (points_evaluated, points_excluded, max_abs, rms, worst_point, passed)."""
    out = []
    kinds = sorted(kinds, key=lambda k: k.value)
    tallies = [
        {"ev": 0, "ex": 0, "max": 0.0, "sumsq": 0.0, "worst": None, "finite": True}
        for _ in kinds
    ]

    def overflowed(tally):
        tally["ev"] += 1
        tally["finite"] = False

    for combo in itertools.product(*grid.axes()):
        pt = Point(combo[0], tuple(combo[1:]))
        try:
            jet = field.evaluate(params, pt)
        except DomainError:
            for tally in tallies:
                tally["ex"] += 1
            continue
        except OverflowError:
            for tally in tallies:
                overflowed(tally)
            continue
        for kind, tally in zip(kinds, tallies):
            try:
                raw = evaluate_residual(kind, jet, params)
                scale = residual_scale(kind, jet, params)
            except DomainError:
                tally["ex"] += 1
                continue
            except OverflowError:
                overflowed(tally)
                continue
            norm = float(abs(raw)) / scale
            tally["ev"] += 1
            tally["finite"] = tally["finite"] and math.isfinite(raw) and math.isfinite(scale)
            tally["sumsq"] += norm * norm
            if tally["worst"] is None or norm > tally["max"]:
                tally["max"] = norm
                tally["worst"] = pt
    for tally in tallies:
        ev, ex = tally["ev"], tally["ex"]
        passed = bool(
            tally["finite"] and ev > 0 and within_tolerance(tally["max"], tol)
            and ex <= 0.5 * (ev + ex)
        )
        rms = math.sqrt(tally["sumsq"] / ev) if ev else 0.0
        out.append((ev, ex, tally["max"], rms, tally["worst"], passed))
    return out


def _same_float(a, b):
    return a == b or (math.isnan(a) and math.isnan(b))


_PARITY_TRANSFORMS = {
    "Xn": ("radial-z1", Xn(1, 0.05)),
    "Xn-branch": ("radial-z1", Xn(1, -0.6)),
    "Yk": ("general-z", Yk(1, (0.1, -0.05))),
    "Yphi": ("z0-linear", Yphi((parse_profile("sin:1,1,0"), parse_profile("const:1")),
                               (0.1, -0.1))),
    "rot": ("z0-sqrt", Rot(1, 2, 0.1)),
}
def _parity_cases():
    cases = {}
    for name, fam in DEFAULT_FAMILIES.items():
        cases[name] = (lambda fam=fam: SolutionField(fam), default_params(fam),
                       default_grid(fam))
    for name, (fam_name, element) in _PARITY_TRANSFORMS.items():
        fam = DEFAULT_FAMILIES[fam_name]
        params = default_params(fam)
        cases[name] = (
            lambda fam=fam, element=element, params=params:
                pushforward_field(element, params, SolutionField(fam)),
            params, default_grid(fam),
        )
    radial = DEFAULT_FAMILIES["radial-z1"]
    small = GridSpec((0.8, 1.4, 3), ((0.2, 0.9, 4),) * 2)
    for name, finite in (("nan-after-0", 0), ("nan-after-1", 1), ("nan-after-many", 7)):
        cases[name] = (lambda finite=finite: _NaNAfter(SolutionField(radial), finite),
                       default_params(radial), small)
    overflow = OneDimGeneric(q=parse_profile("exp:1,800"))
    cases["overflow"] = (lambda: SolutionField(overflow), default_params(overflow),
                         default_grid(overflow))
    cases["half-plane"] = (_HalfPlane, P2, GridSpec((0.5, 1.0, 3), ((-1.0, 1.0, 9),) * 2))
    cases["random"] = (lambda: RandomPolynomialField(4, P2, 3), P2,
                       GridSpec((0.5, 1.5, 5), ((-1.0, 1.0, 6),) * 2))
    return cases


_CASES = _parity_cases()


@pytest.mark.parametrize("name", sorted(_CASES))
def test_residual_suite_matches_scalar_loop(name):
    make, params, grid = _CASES[name]
    kinds = list(ResidualKind)
    got = run_residual_suite(make(), kinds, params, grid, 1e-8)
    with np.errstate(all="ignore"):
        want = _residual_suite_scalar_loop(make(), kinds, params, grid, 1e-8)
    for report, (ev, ex, max_abs, rms, worst, passed) in zip(got, want):
        assert (report.points_evaluated, report.points_excluded, report.passed) == (
            ev, ex, passed), report.equation
        # a point and a batch run the same numpy code, so every case agrees
        # bit for bit
        assert _same_float(report.max_abs, max_abs), report.equation
        assert _same_float(report.rms, rms), report.equation
        assert report.worst_point == worst, report.equation
