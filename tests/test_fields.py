"""Model parameters, time profiles, polynomial fields."""

import dataclasses
import math

import numpy as np
import pytest

from condsym import fields, jet2, solutions, symmetry
from condsym.errors import DimensionMismatch
from condsym.fields import (
    ModelParams,
    Point,
    PolynomialFunction,
    ProfileFunction,
    RandomPolynomialField,
    monomial_table,
    parse_profile,
    random_polynomial_function,
)


def test_model_params():
    p = ModelParams(2, 1.5)
    assert p.spatial_dim == 2 and p.z == 1.5
    assert p.jet_dim == 3
    with pytest.raises(DimensionMismatch):
        ModelParams(0, 1.0)


# a sample of every record in ``fields``, ``symmetry`` and ``solutions``
# with an ``int`` field, where each such field may be set to 2
_INT_RECORDS = [
    ModelParams(3, 2.0),
    symmetry.Xn(1, 0.01),
    symmetry.Yk(1, (0.5, 0.0)),
    symmetry.Rot(1, 3, 0.3),
    symmetry.GenXn(1),
    symmetry.GenYk(1, 1),
    symmetry.GenJab(1, 3),
    solutions.DEFAULT_FAMILIES["radial-z1"],
    solutions.DEFAULT_FAMILIES["general-z"],
    solutions.MAOnly(spatial_dim=2, phi=parse_profile("poly:1,1")),
    fields.RandomPolynomialField(3, ModelParams(2, 2.0), 3),
]


def _int_fields(record):
    return [f.name for f in dataclasses.fields(record) if f.type is int]


def test_every_record_with_an_int_field_has_a_sample():
    records = {
        cls
        for module in (fields, symmetry, solutions)
        for cls in vars(module).values()
        if isinstance(cls, type) and dataclasses.is_dataclass(cls)
        and cls.__module__ == module.__name__ and _int_fields(cls)
    }
    assert records == {type(sample) for sample in _INT_RECORDS}


@pytest.mark.parametrize(
    "sample, name",
    [(sample, name) for sample in _INT_RECORDS for name in _int_fields(sample)],
    ids=lambda v: v if isinstance(v, str) else type(v).__name__,
)
def test_an_int_field_refuses_a_fraction_and_keeps_an_integral_float(sample, name):
    for bad in (1.5, math.inf, math.nan, "2"):
        with pytest.raises(ValueError, match=f"^{name} must be an integer$"):
            dataclasses.replace(sample, **{name: bad})
    record = dataclasses.replace(sample, **{name: 2.0})
    assert getattr(record, name) == 2 and type(getattr(record, name)) is int
    assert record == dataclasses.replace(sample, **{name: 2})


def test_point_coords_order():
    p = Point(1.5, (2.0, -3.0))
    assert p.coords().tolist() == [1.5, 2.0, -3.0]


@pytest.mark.parametrize(
    "text,t,expected",
    [
        ("const:4", 1.7, (4.0, 0.0, 0.0)),
        ("poly:2,1", 3.0, (5.0, 1.0, 0.0)),
        ("poly:1,0,2", 2.0, (9.0, 8.0, 4.0)),
        ("exp:2,-1", 0.0, (2.0, -2.0, 2.0)),
        ("sin:1,2,0", 0.0, (0.0, 2.0, 0.0)),
    ],
)
def test_profile_values(text, t, expected):
    prof = parse_profile(text)
    v, d1, d2 = prof(t)
    assert (v, d1, d2) == pytest.approx(expected, abs=1e-14)


def test_profile_jet_matches_call():
    prof = parse_profile("sin:1.5,0.7,0.3")
    t = 1.2
    j = prof.jet(jet2.seed(1, 0, t))
    v, d1, d2 = prof(t)
    assert j.value == pytest.approx(v, abs=1e-14)
    assert j.grad[0] == pytest.approx(d1, abs=1e-14)
    assert j.hess[0, 0] == pytest.approx(d2, abs=1e-14)


def test_profile_spec_round_trip():
    for text in ["const:4", "poly:2,1", "exp:2,-1", "sin:1,2,0", "poly:0.5,0,1.25"]:
        prof = parse_profile(text)
        again = parse_profile(prof.spec())
        assert again == prof
        assert prof.spec() == text


def test_profile_arity_checked():
    with pytest.raises(ValueError):
        parse_profile("exp:1")
    with pytest.raises(ValueError):
        parse_profile("sin:1,2")
    with pytest.raises(ValueError):
        parse_profile("nope:1")


def test_profile_needs_a_kind_and_parameters():
    with pytest.raises(ValueError, match="at least one coefficient"):
        ProfileFunction("poly", ())
    with pytest.raises(ValueError, match="expected kind:params"):
        parse_profile("poly")


def test_monomial_table_counts():
    # dim 2, degree 3: C(2+3, 3) = 10 monomials
    table = monomial_table(2, 3)
    assert len(table) == 10
    assert all(sum(row) <= 3 for row in table)
    assert len(set(map(tuple, table))) == 10


def test_polynomial_function_derivatives():
    # f = 2 x^2 y + y at (3, 4): value 76, fx = 48, fy = 19, fxx = 16, fxy = 12
    f = PolynomialFunction(
        powers=np.array([[2, 1], [0, 1]], dtype=np.int64),
        coeffs=np.array([2.0, 1.0]),
    )
    j = f.at(np.array([3.0, 4.0]))
    assert j.value == 76.0
    assert j.grad.tolist() == [48.0, 19.0]
    assert j.hess[0, 0] == 16.0 and j.hess[0, 1] == 12.0 and j.hess[1, 1] == 0.0


def test_random_polynomial_determinism():
    f1 = random_polynomial_function(11, 3, 2)
    f2 = random_polynomial_function(11, 3, 2)
    f3 = random_polynomial_function(12, 3, 2)
    y = np.array([0.3, -0.8, 1.1])
    assert f1.at(y).value == f2.at(y).value
    assert f1.at(y).value != f3.at(y).value


@pytest.mark.parametrize("dim", [1, 2, 3, 4])
@pytest.mark.parametrize("degree", [0, 1, 2, 3])
def test_polynomial_jet_arithmetic_matches_kernel(dim, degree):
    # the same polynomial through jet arithmetic on seed jets and through
    # the poly_jet kernel at the coordinates
    rng = np.random.default_rng(100 * dim + degree)
    for seed in range(3):
        f = random_polynomial_function(seed, dim, degree)
        y = rng.uniform(-1.5, 1.5, dim)
        via_jets = f.jet(*(jet2.seed(dim, i, v) for i, v in enumerate(y)))
        via_kernel = f.at(y)
        for got, want in (
            (via_jets.value, via_kernel.value),
            (via_jets.grad, via_kernel.grad),
            (via_jets.hess, via_kernel.hess),
        ):
            np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12)


def test_random_field_shape_checks():
    params = ModelParams(2, 2.0)
    field = RandomPolynomialField(5, params, 3)
    j = field.evaluate(params, Point(1.0, (0.5, -0.5)))
    assert j.dim == 3
    with pytest.raises(DimensionMismatch):
        field.evaluate(params, Point(1.0, (0.5,)))
    with pytest.raises(DimensionMismatch):
        field.evaluate(ModelParams(3, 2.0), Point(1.0, (0.5, 0.1, -0.2)))
    with pytest.raises(DimensionMismatch):
        field.evaluate_many(params, np.ones((4, 2)))
    with pytest.raises(DimensionMismatch):
        field.evaluate_many(ModelParams(3, 2.0), np.ones((4, 4)))


def test_random_field_batch_is_its_points_bitwise():
    # evaluate_many is one kernel call on the rows, evaluate its one-row case
    params = ModelParams(3, 2.0)
    field = RandomPolynomialField(7, params, 4)
    rows = np.random.default_rng(7).uniform(-1.0, 1.0, (9, 4))
    batch = field.evaluate_many(params, rows)
    assert batch.value.shape == (9,) and batch.hess.shape == (9, 4, 4)
    for k, row in enumerate(rows):
        one = field.evaluate(params, Point(row[0], tuple(row[1:])))
        assert np.ndim(one.value) == 0
        for got, want in ((batch.value[k], one.value), (batch.grad[k], one.grad),
                          (batch.hess[k], one.hess)):
            assert np.asarray(got).tobytes() == np.asarray(want).tobytes()
    empty = field.evaluate_many(params, np.zeros((0, 4)))
    assert empty.grad.shape == (0, 4)


def test_polynomial_at_takes_a_point_or_rows():
    f = random_polynomial_function(2, 3, 3)
    rows = np.array([[0.3, -0.8, 1.1], [1.0, 0.5, -0.25]])
    assert f.at(rows).value.tobytes() == np.array([f.at(r).value for r in rows]).tobytes()
    for bad in (np.ones(2), np.ones((2, 2)), np.ones((1, 2, 3))):
        with pytest.raises(DimensionMismatch):
            f.at(bad)


def test_make_random_polynomial_coeff_bound():
    params = ModelParams(1, 2.0)
    field = RandomPolynomialField(3, params, 2, coeff_bound=0.25)
    assert field.coeff_bound == 0.25
    assert field.seed == 3 and field.degree == 2
