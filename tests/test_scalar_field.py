"""The ScalarField contract: a field writes ``evaluate_many`` once, for one
row (N + 1,) or rows (P, N + 1), and ``evaluate`` reads it at a Point;
a field that defines only ``evaluate`` gets a default ``evaluate_many``
that calls it once per row, and fails a whole batch at an error of any
row."""

import math

import numpy as np
import pytest

from condsym import jet2
from condsym.cli import parse_group
from condsym.errors import DimensionMismatch, DomainError
from condsym.fields import ModelParams, Point, RandomPolynomialField, ScalarField
from condsym.operators import ResidualKind
from condsym.solutions import (
    DEFAULT_FAMILIES,
    SolutionField,
    default_grid,
    default_params,
)
from condsym.symmetry import pushforward_field
from condsym.verify import GridSpec, Tally, batches, run_residual_suite, scan

# one element of each kind on a 2-D family it leaves mostly in the domain
_TRANSFORMS = {
    "Xn": ("radial-z1", "Xn:n=1,eps=0.05"),
    "Yk": ("general-z", "Yk:k=1,v=0.1,-0.05"),
    "Yphi": ("z0-linear", "Yphi:e=0.1,-0.1;profiles=sin:1,1,0|const:1"),
    "Rot": ("z0-sqrt", "rot:a=1,b=2,angle=0.1"),
}


def _library_fields():
    for name, fam in sorted(DEFAULT_FAMILIES.items()):
        yield name, SolutionField(fam), default_params(fam), default_grid(fam)
    for kind, (name, spec) in _TRANSFORMS.items():
        fam = DEFAULT_FAMILIES[name]
        params = default_params(fam)
        field = pushforward_field(parse_group(spec), params, SolutionField(fam))
        yield kind, field, params, default_grid(fam)
    params = ModelParams(2, 2.0)
    yield "random", RandomPolynomialField(3, params, 3), params, default_grid(
        DEFAULT_FAMILIES["radial-z1"]
    )


_LIBRARY = list(_library_fields())


def _rows_inside(field, params, grid, count=6):
    rows = []
    for row in grid.coords()[::7]:
        try:
            field.evaluate_many(params, row)
        except DomainError:
            continue
        rows.append(row)
        if len(rows) == count:
            return np.array(rows)
    raise AssertionError("too few grid rows inside the domain")


class _Paraboloid(ScalarField):
    """u = t + x1^2 + x2^2, defining only ``evaluate``."""

    def evaluate(self, params, point):
        jt = jet2.seed(3, 0, point.t)
        j1 = jet2.seed(3, 1, point.x[0])
        j2 = jet2.seed(3, 2, point.x[1])
        return jt + j1 * j1 + j2 * j2


def test_a_field_must_define_one_of_the_two_methods():
    with pytest.raises(TypeError, match="neither evaluate nor evaluate_many"):

        class _Nothing(ScalarField):
            pass


@pytest.mark.parametrize("label,field,params,grid", _LIBRARY, ids=[f[0] for f in _LIBRARY])
def test_one_row_is_the_unbatched_jet_at_that_point(label, field, params, grid):
    d = params.jet_dim
    for row in _rows_inside(field, params, grid):
        one = field.evaluate_many(params, row)
        assert type(one.value) is float
        assert one.grad.shape == (d,) and one.hess.shape == (d, d)
        at = field.evaluate(params, Point(row[0], tuple(row[1:])))
        assert one.value == at.value
        assert one.grad.tobytes() == at.grad.tobytes()
        assert one.hess.tobytes() == at.hess.tobytes()


@pytest.mark.parametrize("label,field,params,grid", _LIBRARY, ids=[f[0] for f in _LIBRARY])
def test_bad_shapes_are_dimension_mismatches(label, field, params, grid):
    d = params.jet_dim
    p = d + 2  # a length that is not a row
    for shape in ((p,), (p, d + 1), (p, 1, d)):
        with pytest.raises(DimensionMismatch):
            field.evaluate_many(params, np.ones(shape))


@pytest.mark.parametrize("label,field,params,grid", _LIBRARY, ids=[f[0] for f in _LIBRARY])
def test_a_point_of_the_wrong_dimension_is_refused(label, field, params, grid):
    n = params.spatial_dim
    for x in ((0.5,) * (n - 1), (0.5,) * (n + 1)):
        with pytest.raises(DimensionMismatch):
            field.evaluate(params, Point(1.0, x))


def test_an_evaluate_only_field_refuses_a_point_of_the_wrong_dimension():
    # its default evaluate_many checks the row, alone and under a pushforward
    params = ModelParams(2, 2.0)
    pushed = pushforward_field(parse_group("Xn:n=1,eps=0.05"), params, _Paraboloid())
    for x in ((0.5,), (0.5,) * 3):
        with pytest.raises(DimensionMismatch):
            _Paraboloid().evaluate_many(params, Point(1.0, x).coords())
        with pytest.raises(DimensionMismatch):
            pushed.evaluate(params, Point(1.0, x))


def test_evaluate_only_field_answers_one_row_and_rows():
    params = ModelParams(2, 2.0)
    field = _Paraboloid()
    rows = np.array([[1.0, 0.5, -0.5], [0.3, -1.0, 2.0]])
    batch = field.evaluate_many(params, rows)
    assert batch.value.tolist() == [1.5, 5.3]
    assert batch.hess.shape == (2, 3, 3)
    one = field.evaluate_many(params, rows[1])
    assert one.value == 5.3 and one.grad.tolist() == [1.0, -2.0, 4.0]
    assert field.evaluate(params, Point(0.3, (-1.0, 2.0))).value == 5.3
    for shape in ((5,), (5, 4), (5, 1, 3)):
        with pytest.raises(DimensionMismatch):
            field.evaluate_many(params, np.ones(shape))


def test_empty_batch_through_the_stacking_default():
    params = ModelParams(2, 2.0)
    empty = _Paraboloid().evaluate_many(params, np.empty((0, 3)))
    assert empty.value.shape == (0,)
    assert empty.grad.shape == (0, 3) and empty.hess.shape == (0, 3, 3)


def test_the_bare_base_is_no_field():
    # its two methods would call each other without end
    with pytest.raises(TypeError, match="base class"):
        ScalarField()
    assert isinstance(_Paraboloid(), ScalarField)


def _outcome(evaluate):
    """(values, None) of a call that returns, or (None, error) of one that
    raises DomainError or ArithmeticError."""
    try:
        with np.errstate(all="ignore"):
            return evaluate(), None
    except (DomainError, ArithmeticError) as exc:
        return None, exc


def _probe_rows(params):
    """Rows at or past the edges of the library's domains: an exp that
    overflows at t = -800, the axis x = 0 (also where radial-z1 shifts
    it, to x_1 = -0.5 at t = 1), a pole at x_1 = 0."""
    n = params.spatial_dim
    return np.array([
        [1.0] + [0.0] * n,
        [1.0, -0.5] + [0.0] * (n - 1),
        [-800.0] + [0.5] * n,
        [1.0, 0.0] + [0.5] * (n - 1),
        [1.0] + [0.5] * (n - 1) + [0.0],
    ])


# the library fields whose probe rows leave their domain or overflow
_PROBED_OUTSIDE = {"general-yphi", "general-z", "ma-only", "one-dim-z0", "radial-z1",
                   "z0-linear", "z0-sqrt", "Xn", "Yk", "Yphi", "Rot"}


@pytest.mark.parametrize("label,field,params,grid", _LIBRARY, ids=[f[0] for f in _LIBRARY])
def test_values_many_is_the_value_of_evaluate_many(label, field, params, grid):
    rows = np.concatenate((grid.coords(), _probe_rows(params)))
    values, err = _outcome(lambda: field.values_many(params, rows))
    jets, jet_err = _outcome(lambda: field.evaluate_many(params, rows))
    # the same guard names the same rows
    assert (err is None) == (jet_err is None) == (label not in _PROBED_OUTSIDE)
    while err is not None:
        assert type(err) is type(jet_err) and str(err) == str(jet_err)
        assert np.array_equal(err.rows, jet_err.rows)
        rows = rows[~err.rows]
        values, err = _outcome(lambda: field.values_many(params, rows))
        jets, jet_err = _outcome(lambda: field.evaluate_many(params, rows))
    assert jet_err is None and len(rows) >= 100
    assert values.shape == (len(rows),)
    assert values.tobytes() == jets.value.tobytes()
    for row in rows[:: len(rows) // 5]:
        one = field.values_many(params, row)
        assert type(one) is float and one == field.evaluate_many(params, row).value


@pytest.mark.parametrize("N", [1, 2, 3])
def test_random_field_values_are_the_value_of_its_jets(N):
    params = ModelParams(N, 2.0)
    rows = np.random.default_rng(N).uniform(-3.0, 3.0, (500, N + 1))
    for degree in range(6):
        field = RandomPolynomialField(7, params, degree)
        values = field.values_many(params, rows)
        assert values.tobytes() == field.evaluate_many(params, rows).value.tobytes()
        assert field.values_many(params, rows[0]) == field.evaluate_many(params, rows[0]).value
    with pytest.raises(DimensionMismatch):
        field.values_many(ModelParams(N + 1, 2.0), np.ones((3, N + 2)))


class _RightHalf(ScalarField):
    """The paraboloid for x1 > 0, defining only ``evaluate``."""

    def evaluate(self, params, point):
        if point.x[0] <= 0.0:
            raise DomainError("left half plane excluded")
        return _Paraboloid().evaluate(params, point)


def test_evaluate_only_field_values_through_the_default():
    params = ModelParams(2, 2.0)
    rows = np.array([[1.0, 0.5, -0.5], [0.3, -1.0, 2.0], [0.2, 2.0, 1.0]])
    assert _RightHalf().values_many(params, rows[::2]).tolist() == [1.5, 5.2]
    assert _RightHalf().values_many(params, rows[2]) == 5.2
    # the error of the row, as evaluate raised it: it names no rows
    for evaluate in (_RightHalf().values_many, _RightHalf().evaluate_many):
        with pytest.raises(DomainError, match="left half plane excluded") as info:
            evaluate(params, rows)
        assert getattr(info.value, "rows", None) is None


class _FailsAt(ScalarField):
    """The paraboloid, defining only ``evaluate``, which raises ``error``
    at the point of the row ``bad`` alone."""

    def __init__(self, bad, error):
        self.bad = Point(bad[0], tuple(bad[1:]))
        self.error = error

    def evaluate(self, params, point):
        if point == self.bad:
            raise self.error("refused at one row")
        return _Paraboloid().evaluate(params, point)


@pytest.mark.parametrize("error", [DomainError, OverflowError])
def test_an_error_at_one_row_fails_the_whole_batch_of_the_default(error):
    params = ModelParams(2, 2.0)
    grid = GridSpec((0.5, 1.0, 5), ((0.5, 1.0, 7), (0.5, 1.0, 13)))
    rows = grid.coords()
    assert len(rows) == len(next(batches(params, rows))) == 455  # one batch
    field = _FailsAt(rows[200], error)
    assert len(field.evaluate_many(params, np.delete(rows, 200, axis=0)).value) == 454
    (report,) = run_residual_suite(field, [ResidualKind.MONGE_AMPERE], params, grid, 1e-8)
    if error is DomainError:
        assert (report.points_evaluated, report.points_excluded) == (0, 455)
    else:
        assert (report.points_evaluated, report.points_excluded) == (455, 0)
        tally = Tally()
        scan(field, params, rows, [lambda points, jets: ((jets.value, 1.0),)], [[tally]])
        assert (tally.evaluated, tally.gap) == (455, math.inf)
    assert not report.passed
    # a single row raises the error of evaluate itself
    with pytest.raises(error, match="refused at one row") as info:
        field.evaluate_many(params, rows[200])
    assert getattr(info.value, "rows", None) is None
