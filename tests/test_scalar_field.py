"""The ScalarField contract: a field writes ``evaluate_many`` once, for one
row (N + 1,) or rows (P, N + 1), and ``evaluate`` reads it at a Point;
a field that defines only ``evaluate`` gets a stacking ``evaluate_many``."""

import numpy as np
import pytest

from condsym import jet2
from condsym.cli import parse_group
from condsym.errors import DimensionMismatch, DomainError
from condsym.fields import ModelParams, Point, RandomPolynomialField, ScalarField
from condsym.solutions import (
    DEFAULT_FAMILIES,
    SolutionField,
    default_grid,
    default_params,
)
from condsym.symmetry import pushforward_field

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
