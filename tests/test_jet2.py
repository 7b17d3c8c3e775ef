"""Second-order forward-mode jets: arithmetic, composition, domains."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from condsym import jet2
from condsym.errors import DimensionMismatch, DomainError
from condsym.fields import ModelParams, RandomPolynomialField, ScalarField
from condsym.symmetry import Xn, pushforward_field


def test_seed_and_constant():
    a = jet2.seed(3, 1, 2.5)
    assert a.value == 2.5
    assert a.grad.tolist() == [0.0, 1.0, 0.0]
    assert not a.hess.any()
    c = jet2.constant(2, 7.0)
    assert c.value == 7.0
    assert not c.grad.any()


def test_constant_in_dim_zero_is_a_value_alone():
    c = jet2.constant(0, 7.0)
    assert c.value == 7.0 and c.dim == 0
    assert c.grad.shape == (0,) and c.hess.shape == (0, 0)
    batch = jet2.constant(0, [1.0, 2.0]) * 3.0
    assert batch.value.tolist() == [3.0, 6.0] and batch.grad.shape == (2, 0)
    with pytest.raises(DimensionMismatch):
        jet2.constant(-1, 7.0)


def test_jets_are_immutable():
    a = jet2.seed(2, 0, 1.0)
    with pytest.raises(AttributeError):
        a.value = 3.0
    with pytest.raises(ValueError):
        a.grad[0] = 9.0


def test_seed_bad_index():
    with pytest.raises(DimensionMismatch):
        jet2.seed(2, 2, 1.0)


def test_mul_frozen_oracle():
    # d(xy) at (3, 4): value 12, grad (4, 3), cross second derivative 1
    m = jet2.mul(jet2.seed(2, 0, 3.0), jet2.seed(2, 1, 4.0))
    assert m.value == 12.0
    assert m.grad.tolist() == [4.0, 3.0]
    assert m.hess.tolist() == [[0.0, 1.0], [1.0, 0.0]]


def test_sqrt_frozen_oracle():
    s = jet2.sqrt(jet2.seed(1, 0, 4.0))
    assert s.value == 2.0
    assert s.grad[0] == 0.25
    assert s.hess[0, 0] == -1.0 / 32.0


def test_power_frozen_oracle():
    p = jet2.power(jet2.seed(1, 0, 2.0), -3)
    assert p.value == 0.125
    assert p.grad[0] == -0.1875
    assert p.hess[0, 0] == 0.375


def test_power_integer_at_zero():
    p = jet2.power(jet2.seed(1, 0, 0.0), 3)
    assert p.value == 0.0 and p.grad[0] == 0.0 and p.hess[0, 0] == 0.0
    lin = jet2.power(jet2.seed(1, 0, 0.0), 1)
    assert lin.grad[0] == 1.0 and lin.hess[0, 0] == 0.0


def test_power_zero_exponent_is_one():
    p = jet2.power(jet2.seed(1, 0, -3.0), 0)
    assert p.value == 1.0 and p.grad[0] == 0.0


def test_power_negative_base_integer_exponent():
    p = jet2.power(jet2.seed(1, 0, -2.0), 2)
    assert p.value == 4.0 and p.grad[0] == -4.0 and p.hess[0, 0] == 2.0


@pytest.mark.parametrize(
    "build",
    [
        lambda a: jet2.ln(a),
        lambda a: jet2.sqrt(a),
        lambda a: jet2.power(a, 0.5),
        lambda a: jet2.power(a, -2.5),
    ],
)
def test_domain_errors_on_nonpositive(build):
    with pytest.raises(DomainError):
        build(jet2.seed(1, 0, -1.0))


def test_negative_power_of_zero_is_domain_error():
    with pytest.raises(DomainError):
        jet2.power(jet2.seed(1, 0, 0.0), -1)


def test_division_guard():
    with pytest.raises(ZeroDivisionError):
        jet2.div(jet2.constant(1, 1.0), jet2.constant(1, 0.0))


def test_operator_sugar_matches_free_functions():
    a = jet2.seed(2, 0, 1.3)
    b = jet2.seed(2, 1, -0.7)
    lhs = (a + 2.0) * b - b / (a + 3.0)
    rhs = jet2.sub(
        jet2.mul(jet2.add(a, jet2.constant(2, 2.0)), b),
        jet2.div(b, jet2.add(a, jet2.constant(2, 3.0))),
    )
    assert lhs.value == rhs.value
    assert (lhs.grad == rhs.grad).all()
    assert (lhs.hess == rhs.hess).all()
    neg = -a
    assert neg.value == -1.3 and neg.grad[0] == -1.0
    assert (a**2).value == pytest.approx(1.69)
    assert (2.0 - a).value == pytest.approx(0.7)
    assert (1.0 / (a + 1.0)).value == pytest.approx(1.0 / 2.3)


@pytest.mark.parametrize("other", ["a", None, [1.0], 1 + 2j])
def test_operators_refuse_non_numbers(other):
    a = jet2.seed(2, 0, 1.0)
    for op in ("__add__", "__sub__", "__mul__", "__truediv__"):
        for apply in (getattr(a, op), getattr(a, op.replace("__", "__r", 1))):
            assert apply(other) is NotImplemented
    with pytest.raises(TypeError):
        a + other
    with pytest.raises(TypeError):
        other * a
    with pytest.raises(TypeError):
        a / other


def test_numpy_scalars_still_combine():
    a = jet2.seed(2, 0, 1.5)
    for scaled in (np.float64(2.0) * a, a * np.float64(2.0), np.int64(2) * a):
        assert isinstance(scaled, jet2.Jet2)
        assert scaled.value == 3.0 and scaled.grad.tolist() == [2.0, 0.0]


def _fd_univariate(f, x, h=1e-5):
    d1 = (f(x + h) - f(x - h)) / (2 * h)
    d2 = (f(x + h) - 2 * f(x) + f(x - h)) / (h * h)
    return d1, d2


@pytest.mark.parametrize(
    "jet_f,ref_f",
    [
        (jet2.exp, math.exp),
        (jet2.sin, math.sin),
        (jet2.cos, math.cos),
        (jet2.atan, math.atan),
        (jet2.ln, math.log),
        (jet2.sqrt, math.sqrt),
    ],
)
@pytest.mark.parametrize("x", [0.3, 0.9, 1.7])
def test_univariate_against_finite_differences(jet_f, ref_f, x):
    j = jet_f(jet2.seed(1, 0, x))
    d1, d2 = _fd_univariate(ref_f, x)
    assert j.value == pytest.approx(ref_f(x), abs=1e-12)
    assert j.grad[0] == pytest.approx(d1, abs=1e-6)
    assert j.hess[0, 0] == pytest.approx(d2, abs=1e-4)


def test_atan2_principal_values_and_derivatives():
    for x, y in [(1.0, 0.5), (-1.0, 0.5), (-1.0, -0.5), (0.5, -1.0)]:
        th = jet2.atan2_jet(jet2.seed(2, 1, y), jet2.seed(2, 0, x))
        assert th.value == pytest.approx(math.atan2(y, x), abs=1e-14)
        r2 = x * x + y * y
        # d th / dx = -y / r^2, d th / dy = x / r^2
        assert th.grad[0] == pytest.approx(-y / r2, abs=1e-14)
        assert th.grad[1] == pytest.approx(x / r2, abs=1e-14)


def test_atan2_origin_rejected():
    with pytest.raises(DomainError):
        jet2.atan2_jet(jet2.seed(2, 1, 0.0), jet2.seed(2, 0, 0.0))


def test_compose_chain_rule():
    # F(x, y) = f(g1, g2) with g1 = x*y, g2 = x + y, f = g1 * exp(g2)
    x, y = 0.7, -0.4
    jx = jet2.seed(2, 0, x)
    jy = jet2.seed(2, 1, y)
    direct = jet2.mul(jet2.mul(jx, jy), jet2.exp(jet2.add(jx, jy)))
    g1 = jet2.mul(jx, jy)
    g2 = jet2.add(jx, jy)
    u = jet2.seed(2, 0, g1.value)
    v = jet2.seed(2, 1, g2.value)
    outer = jet2.mul(u, jet2.exp(v))
    composed = jet2.compose(outer, [g1, g2])
    assert composed.value == pytest.approx(direct.value, abs=1e-14)
    assert composed.grad == pytest.approx(direct.grad, abs=1e-12)
    assert composed.hess == pytest.approx(direct.hess, abs=1e-12)


def test_compose_refuses_mismatched_dimensions():
    outer = jet2.seed(2, 0, 1.0)
    with pytest.raises(DimensionMismatch, match="outer jet dim 2 does not match 1 inner jets"):
        jet2.compose(outer, [jet2.seed(3, 0, 1.0)])
    with pytest.raises(DimensionMismatch, match="share one source dimension"):
        jet2.compose(outer, [jet2.seed(3, 0, 1.0), jet2.seed(2, 0, 1.0)])


@given(
    st.lists(st.floats(-2.0, 2.0), min_size=2, max_size=2),
    st.integers(0, 3),
    st.integers(0, 3),
)
@settings(max_examples=60, deadline=None)
def test_hessians_are_exactly_symmetric(xy, p, q):
    jx = jet2.seed(2, 0, xy[0])
    jy = jet2.seed(2, 1, xy[1])
    f = jet2.mul(jet2.power(jx + 1e-3, p), jet2.power(jy - 2e-3, q))
    g = jet2.exp(jet2.mul(f, jet2.constant(2, 0.25)))
    for j in (f, g, jet2.compose(jet2.mul(jet2.seed(2, 0, g.value), jet2.seed(2, 1, 2.0)), [g, f])):
        assert (j.hess == j.hess.T).all()


@given(st.floats(0.2, 1.8), st.floats(-1.5, 1.5))
@settings(max_examples=40, deadline=None)
def test_polynomial_jet_matches_analytic_gradients(t, x):
    # u = 3 t^2 x - x^3 + t: all derivatives known in closed form
    jt = jet2.seed(2, 0, t)
    jx = jet2.seed(2, 1, x)
    u = jet2.mul(jet2.mul(jt, jt), jx) * 3.0 - jet2.mul(jet2.mul(jx, jx), jx) + jt
    assert u.value == pytest.approx(3 * t * t * x - x**3 + t, rel=1e-12, abs=1e-12)
    assert u.grad[0] == pytest.approx(6 * t * x + 1, rel=1e-12, abs=1e-12)
    assert u.grad[1] == pytest.approx(3 * t * t - 3 * x * x, rel=1e-12, abs=1e-12)
    assert u.hess[0, 0] == pytest.approx(6 * x, rel=1e-12, abs=1e-12)
    assert u.hess[0, 1] == pytest.approx(6 * t, rel=1e-12, abs=1e-12)
    assert u.hess[1, 1] == pytest.approx(-6 * x, rel=1e-12, abs=1e-12)


def test_univariate_direct_derivatives():
    # univariate(a, f0, f1, f2) consumes derivative values, not callables
    a = jet2.seed(1, 0, 2.0)
    j = jet2.univariate(a, 8.0, 12.0, 12.0)  # t^3 at t=2
    assert j.value == 8.0 and j.grad[0] == 12.0 and j.hess[0, 0] == 12.0


def test_zero_d_array_value_is_one_point():
    j = jet2.Jet2(np.array(2.5), [1.0, 0.0], np.zeros((2, 2)))
    assert type(j.value) is float and j.value == 2.5
    assert repr(j) == "Jet2(value=2.5, grad=[1.0, 0.0])"


def test_dim_mismatch_rejected():
    with pytest.raises(Exception):
        jet2.add(jet2.seed(2, 0, 1.0), jet2.seed(3, 0, 1.0))


def test_rpow_domain_rules():
    # the scalar twin of power: integer powers of negative bases, an exact
    # zero base as the only pole, fractional powers of positive bases only
    assert jet2.rpow(-2.0, 3) == -8.0
    assert jet2.rpow(0.0, 0) == 1.0
    assert jet2.rpow(4.0, -0.5) == 0.5
    # no near-zero guard, unlike power
    assert jet2.rpow(1e-300, -1) == pytest.approx(1e300)
    with pytest.raises(DomainError):
        jet2.power(jet2.seed(1, 0, 1e-300), -1)
    with pytest.raises(DomainError):
        jet2.rpow(0.0, -1)
    with pytest.raises(DomainError):
        jet2.rpow(-1.0, 0.5)


# ---------------------------------------------------------------------------
# batched jets: a leading point axis gives, point for point, the unbatched
# result


def _stack(jets):
    return jet2.Jet2(
        [j.value for j in jets],
        np.stack([j.grad for j in jets]),
        np.stack([j.hess for j in jets]),
    )


def _coordinates(x, y, dim):
    """The coordinate jets at (x, y): seeds in dim 2, values alone in dim 0."""
    if dim:
        return jet2.seed(dim, 0, x), jet2.seed(dim, 1, y)
    return jet2.constant(0, x), jet2.constant(0, y)


def _curved(x, y, dim=2):
    """Jets with non-zero gradient and Hessian at the points (x, y)."""
    jx, jy = _coordinates(x, y, dim)
    return jx * jy + jx * jx * 0.5 + 1.5 - jy * 0.25, jx - jy * jy


def _pairs(rng):
    x = rng.uniform(0.3, 1.7, 40)
    y = rng.uniform(-1.2, 1.2, 40)
    return x, y


_BITWISE = {
    "add": lambda a, b: a + b,
    "sub": lambda a, b: a - b,
    "neg": lambda a, b: -a,
    "mul": lambda a, b: a * b,
    "div": lambda a, b: a / b,
    "rdiv": lambda a, b: 2.0 / b,
    "scale": lambda a, b: jet2.scale(b, -1.5),
    "sqrt": lambda a, b: jet2.sqrt(a),
    "sin": lambda a, b: jet2.sin(b),
    "cos": lambda a, b: jet2.cos(b),
    "exp": lambda a, b: jet2.exp(b),
    "ln": lambda a, b: jet2.ln(a),
    "atan": lambda a, b: jet2.atan(b),
    "atan2": lambda a, b: jet2.atan2_jet(b, a),
    "power3": lambda a, b: jet2.power(b, 3),
    "power-2": lambda a, b: jet2.power(a, -2),
    "power0": lambda a, b: jet2.power(a, 0) * b,
    "power0.5": lambda a, b: jet2.power(a, 0.5),
    "power-1.5": lambda a, b: jet2.power(a, -1.5),
    "compose": lambda a, b: jet2.compose(jet2.mul(a, b), [a, b]),
}


@pytest.mark.parametrize("name", sorted(_BITWISE))
def test_batched_combinator_is_pointwise_bitwise(name):
    op = _BITWISE[name]
    x, y = _pairs(np.random.default_rng(11))
    batch = op(*_curved(x, y))
    scalar = [op(*_curved(xi, yi)) for xi, yi in zip(x, y)]
    assert batch.value.shape == (len(x),)
    assert batch.grad.shape == (len(x), 2) and batch.hess.shape == (len(x), 2, 2)
    assert np.array_equal(batch.value, [s.value for s in scalar])
    assert np.array_equal(batch.grad, np.stack([s.grad for s in scalar]))
    assert np.array_equal(batch.hess, np.stack([s.hess for s in scalar]))
    # in dim 0 the values alone, bit for bit
    a, b = _curved(x, y, dim=0)
    if name == "compose":
        # the outer jet is in as many variables as there are inner jets
        values = jet2.compose(jet2.mul(*_curved(x, y)), [a, b])
    else:
        values = op(a, b)
    assert values.grad.shape == (len(x), 0) and values.hess.shape == (len(x), 0, 0)
    assert np.array_equal(values.value, batch.value)


def test_unbatched_jets_keep_float_values():
    a, b = _curved(0.7, -0.4)
    ops = (a * b, a / b, jet2.exp(a), jet2.atan2_jet(a, b), jet2.power(a, 0.5))
    for j in (a, b) + ops:
        assert type(j.value) is float
        assert j.grad.shape == (2,) and j.hess.shape == (2, 2)


def test_mul_of_curved_jets_is_exactly_symmetric():
    # both factors have non-zero Hessians, so the two cross terms must be
    # summed in one order for both off-diagonal slots
    x, y = np.meshgrid(np.linspace(0.3, 1.7, 50), np.linspace(-1.2, 1.2, 50))
    batch = jet2.mul(*_curved(x.ravel(), y.ravel()))
    assert np.array_equal(batch.hess, batch.hess.mT)
    for xi, yi in zip(x.ravel(), y.ravel()):
        j = jet2.mul(*_curved(float(xi), float(yi)))
        assert np.array_equal(j.hess, j.hess.T)


def test_power_zero_keeps_the_point_axis():
    a = jet2.seed(2, 1, np.array([-1.0, 0.0, 2.5]))
    p = jet2.power(a, 0)
    assert p.value.tolist() == [1.0, 1.0, 1.0]
    assert p.grad.shape == (3, 2) and p.hess.shape == (3, 2, 2)
    assert not p.grad.any() and not p.hess.any()


def test_batched_jets_are_immutable():
    a = jet2.seed(2, 0, np.array([1.0, 2.0]))
    b = jet2.mul(a, a)
    for arr in (a.value, a.grad, a.hess, b.value, b.grad, b.hess):
        with pytest.raises(ValueError):
            arr[0] = 9.0


def test_seed_copies_a_batch():
    column = np.array([1.0, 2.0])
    a = jet2.seed(2, 0, column)
    column[0] = 5.0
    assert a.value.tolist() == [1.0, 2.0]
    assert column.flags.writeable


def test_constructor_checks_batch_shapes():
    jet2.Jet2([1.0, 2.0], np.zeros((2, 3)), np.zeros((2, 3, 3)))
    with pytest.raises(DimensionMismatch):
        jet2.Jet2([1.0, 2.0], np.zeros(3), np.zeros((3, 3)))
    with pytest.raises(DimensionMismatch):
        jet2.Jet2([1.0, 2.0], np.zeros((2, 3)), np.zeros((3, 3)))
    with pytest.raises(DimensionMismatch):
        jet2.Jet2(1.0, np.zeros((2, 3)), np.zeros((2, 3, 3)))


@pytest.mark.parametrize(
    "build",
    [
        lambda a: jet2.ln(a),
        lambda a: jet2.sqrt(a),
        lambda a: jet2.power(a, 0.5),
        lambda a: jet2.power(a, -2),
        lambda a: jet2.atan2_jet(a, a),
    ],
)
def test_one_bad_point_fails_the_batch(build):
    values = np.array([0.5, 1.0, 0.0, 2.0])
    with pytest.raises(DomainError):
        build(jet2.seed(1, 0, values))
    build(jet2.seed(1, 0, values[values != 0.0]))


def test_one_zero_denominator_fails_the_batch():
    with pytest.raises(ZeroDivisionError):
        jet2.div(jet2.constant(1, 1.0), jet2.seed(1, 0, np.array([1.0, 0.0])))


def test_nan_passes_the_guards_batched_as_unbatched():
    # a NaN compares false, so no guard fires; the NaN reaches the result
    for value in (math.nan, np.array([1.0, math.nan])):
        a = jet2.seed(1, 0, value)
        with np.errstate(invalid="ignore"):
            for j in (jet2.ln(a), jet2.sqrt(a), jet2.power(a, 0.5), jet2.power(a, -1),
                      jet2.div(a, a), jet2.atan2_jet(a, a)):
                assert np.isnan(j.value).any()


def test_guard_fires_on_any_point():
    jet2.guard(False, "never")
    jet2.guard(np.array([False, False]), "never")
    with pytest.raises(DomainError, match="bad"):
        jet2.guard(np.array([False, True]), "bad")
    with pytest.raises(ZeroDivisionError):
        jet2.guard(True, "bad", ZeroDivisionError)


@pytest.mark.parametrize(
    "build",
    [
        lambda a: jet2.ln(a),
        lambda a: jet2.sqrt(a),
        lambda a: jet2.power(a, 0.5),
        lambda a: jet2.power(a, -2),
        lambda a: jet2.atan2_jet(a, a),
    ],
)
def test_guard_on_a_batch_names_exactly_the_bad_rows(build):
    values = np.array([0.5, 0.0, 1.0, 0.0, 2.0])
    with pytest.raises(DomainError) as info:
        build(jet2.seed(1, 0, values))
    assert info.value.rows.tolist() == [False, True, False, True, False]


def test_unbatched_guard_raises_the_old_error():
    for build, error, message in (
        (lambda a: jet2.sqrt(a), DomainError, "sqrt of a non-positive value"),
        (lambda a: jet2.power(a, 0.5), DomainError, "fractional power of a non-positive base"),
        (lambda a: jet2.div(a, a), ZeroDivisionError, "jet division by (near-)zero value"),
    ):
        with pytest.raises(error) as info:
            build(jet2.seed(1, 0, 0.0))
        assert str(info.value) == message
        assert getattr(info.value, "rows", None) is None
    with pytest.raises(DomainError) as info:
        jet2.rpow(-1.0, 0.5)
    assert str(info.value) == "fractional power 0.5 of a non-positive value"
    assert info.value.rows is None


def test_batch_guard_message_is_short_and_rows_name_the_bad_points():
    # the message is fixed text, whatever the size of the batch
    base = np.linspace(-1.0, 2.0, 300)
    with pytest.raises(DomainError) as info:
        jet2.rpow(base, 0.5)
    assert len(str(info.value)) < 120
    assert "0.5" in str(info.value)
    assert info.value.rows.tolist() == (base <= 0.0).tolist()


def test_batched_rpow_is_one_power_within_an_ulp_of_the_float():
    # a float and a batch are raised by one np.power call: each row is bit
    # for bit its float raised alone and its base raised alone as a 1-row
    # batch, so a report does not depend on how rows were batched.  The
    # exponents are those of the diffusion residual, 2 - z - N and
    # 1 - z - N, and the integer powers of residual_scale
    base = np.exp(np.random.default_rng(27).uniform(math.log(1e-3), math.log(1e3), 10_000))
    exponents = {e - z - n for e in (1, 2) for z in (0.5, 2, 3) for n in (1, 2, 3)}
    for p in sorted(exponents | {2, 3, 4}):
        got = jet2.rpow(base, p).tolist()
        assert got == [float(jet2.rpow(b, p)) for b in base.tolist()], p
        assert got == [jet2.rpow(base[i:i + 1], p)[0] for i in range(base.size)], p
    with pytest.raises(DomainError) as info:
        jet2.rpow(np.array([1.0, 0.0, 2.0]), -1)
    assert info.value.rows.tolist() == [False, True, False]
    with pytest.raises(DomainError) as info:
        jet2.rpow(np.array([-1.0, 1.0]), 0.5)
    assert info.value.rows.tolist() == [True, False]


def test_overflow_on_a_batch_names_the_rows_math_rejects():
    # a float goes through the numpy call of a batch and overflows as math
    # does, with an OverflowError and no RuntimeWarning; on a batch the
    # rows where a finite argument overflows raise it together
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for overflow in (
            lambda: jet2.exp(jet2.seed(1, 0, 800.0)),
            lambda: jet2.power(jet2.seed(1, 0, 1e200), 2.5),
            lambda: jet2.rpow(1e200, 2),
            lambda: jet2.rpow(1e250, 1.5),
        ):
            with pytest.raises(OverflowError) as info:
                overflow()
            assert getattr(info.value, "rows", None) is None
    with np.errstate(over="ignore"):
        with pytest.raises(OverflowError) as info:
            jet2.exp(jet2.seed(1, 0, np.array([1.0, 800.0, np.inf])))
    assert info.value.rows.tolist() == [False, True, False]
    with pytest.raises(OverflowError) as info:
        jet2.rpow(np.array([2.0, 1e200, np.inf]), 2)
    assert info.value.rows.tolist() == [False, True, False]


# ---------------------------------------------------------------------------
# mixed operands: a point broadcasts against a batch as the batch of that
# point repeated would


def _same(got, want):
    assert type(got.value) is type(want.value)
    assert np.array_equal(got.value, want.value)
    assert np.array_equal(got.grad, want.grad) and np.array_equal(got.hess, want.hess)


_MIXED = {
    "add": jet2.add,
    "sub": jet2.sub,
    "mul": jet2.mul,
    "div": jet2.div,
    "atan2": lambda a, b: jet2.atan2_jet(b, a),
}


@pytest.mark.parametrize("name", sorted(_MIXED))
def test_a_point_combines_with_a_batch_as_the_batch_of_that_point(name):
    op = _MIXED[name]
    x, y = _pairs(np.random.default_rng(11))
    k = 3
    batch = _curved(x, y)
    point = _curved(float(x[k]), float(y[k]))
    repeated = _curved(np.full(len(x), x[k]), np.full(len(x), y[k]))
    _same(op(batch[0], point[1]), op(batch[0], repeated[1]))
    _same(op(point[0], batch[1]), op(repeated[0], batch[1]))


def test_compose_mixes_points_and_batches():
    x, y = _pairs(np.random.default_rng(11))
    k = 5
    (a, b), (pa, pb) = _curved(x, y), _curved(float(x[k]), float(y[k]))
    ra, rb = _curved(np.full(len(x), x[k]), np.full(len(x), y[k]))
    outer, point_outer, repeated_outer = a * b, pa * pb, ra * rb
    _same(jet2.compose(outer, [pa, pb]), jet2.compose(outer, [ra, rb]))
    _same(jet2.compose(point_outer, [a, b]), jet2.compose(repeated_outer, [a, b]))
    _same(jet2.compose(outer, [a, pb]), jet2.compose(outer, [a, rb]))


def test_take_an_int_gives_the_point_and_a_mask_the_rows():
    x, y = _pairs(np.random.default_rng(11))
    batch = jet2.mul(*_curved(x, y))
    for k in (0, 7, -1):
        one = batch.take(k)
        _same(one, jet2.mul(*_curved(float(x[k]), float(y[k]))))
        assert type(one.value) is float
        assert one.grad.shape == (2,) and one.hess.shape == (2, 2)
        assert not one.grad.flags.writeable and not one.hess.flags.writeable
    mask = x > 1.0
    rows = batch.take(mask)
    assert rows.value.tolist() == batch.value[mask].tolist()
    assert np.array_equal(rows.grad, batch.grad[mask])
    assert np.array_equal(rows.hess, batch.hess[mask])
    assert batch.take(np.flatnonzero(mask)).hess.tolist() == rows.hess.tolist()


# ---------------------------------------------------------------------------
# numbers: a plain number scales or shifts a jet, and the value is, bit for
# bit, what the combinator gives with the constant jet of that number


_NUMBER_OPS = {
    "c*a": (lambda a, c: c * a, lambda a, k: jet2.mul(k, a)),
    "a*c": (lambda a, c: a * c, jet2.mul),
    "a+c": (lambda a, c: a + c, jet2.add),
    "c+a": (lambda a, c: c + a, lambda a, k: jet2.add(k, a)),
    "a-c": (lambda a, c: a - c, jet2.sub),
    "c-a": (lambda a, c: c - a, lambda a, k: jet2.sub(k, a)),
    "a/c": (lambda a, c: a / c, jet2.div),
    "c/a": (lambda a, c: c / a, lambda a, k: jet2.div(k, a)),
}


def _number_operands():
    x, y = _pairs(np.random.default_rng(5))
    for kind, xs, ys, dim in (
        ("batch", x, y, 2), ("point", float(x[3]), float(y[3]), 2), ("dim0", x, y, 0)
    ):
        for c in (3, -1.5, np.float64(0.7)):
            yield pytest.param(_curved(xs, ys, dim)[0], c, id=f"{kind}-{type(c).__name__}")


@pytest.mark.parametrize("a, c", _number_operands())
@pytest.mark.parametrize("name", sorted(_NUMBER_OPS))
def test_a_number_operand_gives_the_constant_jets_value_bit_for_bit(name, a, c):
    by_number, by_jet = _NUMBER_OPS[name]
    got, want = by_number(a, c), by_jet(a, jet2.constant(a.dim, c))
    assert type(got.value) is type(want.value)
    assert np.asarray(got.value).tobytes() == np.asarray(want.value).tobytes()
    # the derivatives differ at most in the sign of a zero
    assert np.array_equal(got.grad, want.grad) and np.array_equal(got.hess, want.hess)


def test_a_shift_shares_the_derivatives_of_its_operand():
    a, _ = _curved(*_pairs(np.random.default_rng(5)))
    for shifted in (a + 2.0, 2.0 + a, a - 2):
        assert shifted._grad is a._grad and shifted._hess is a._hess


def test_dividing_by_a_near_zero_number_raises_divs_error():
    a, _ = _curved(0.7, -0.4)
    for c in (0.0, 1e-13, -0.0):
        with pytest.raises(ZeroDivisionError) as by_number:
            a / c
        with pytest.raises(ZeroDivisionError) as by_jet:
            jet2.div(a, jet2.constant(2, c))
        assert str(by_number.value) == str(by_jet.value)
    with pytest.raises(ZeroDivisionError):
        2.0 / jet2.seed(2, 0, 0.0)
    with pytest.raises(TypeError):
        a * "x"


# ---------------------------------------------------------------------------
# storage layout: the point axis last and C-contiguous, behind point-first
# read-only views


def _layouts():
    """(jet, P or None) for the result of every combinator, batched and
    unbatched, each with its name as the test id."""
    x, y = _pairs(np.random.default_rng(11))
    out = []
    for batch, (xs, ys) in ((len(x), (x, y)), (None, (float(x[0]), float(y[0])))):
        a, b = _curved(xs, ys)
        results = {name: op(a, b) for name, op in _BITWISE.items()}
        results["univariate"] = jet2.univariate(a, a.value, b.value, a.value)
        results["shift"] = a - 0.25
        results["seed"] = jet2.seed(2, 1, xs)
        results["constant"] = jet2.constant(2, xs)
        results["coordinates"] = jet2.coordinates(2, np.stack([xs, ys], axis=-1))[1]
        results["Jet2"] = jet2.Jet2(a.value, a.grad, a.hess)
        kind = "point" if batch is None else "batch"
        out += [pytest.param(jet, batch, id=f"{name}-{kind}") for name, jet in results.items()]
    whole = jet2.mul(*_curved(x, y))
    out += [
        pytest.param(_stack([whole.take(k) for k in range(len(x))]), len(x), id="stack"),
        pytest.param(whole.take(4), None, id="take-int"),
        pytest.param(whole.take(x > 1.0), int((x > 1.0).sum()), id="take-mask"),
        pytest.param(whole.take(slice(None)), len(x), id="take-slice"),
    ]
    return out


@pytest.mark.parametrize("jet, batch", _layouts())
def test_jets_store_the_point_axis_last_behind_point_first_views(jet, batch):
    rows = (batch,) if batch is not None else ()
    assert jet._grad.shape == (2, batch or 1) and jet._hess.shape == (2, 2, batch or 1)
    assert jet._grad.flags.c_contiguous and jet._hess.flags.c_contiguous
    assert jet.grad.shape == rows + (2,) and jet.hess.shape == rows + (2, 2)
    for arr in (jet._grad, jet._hess, jet.grad, jet.hess):
        assert not arr.flags.writeable
    assert np.shares_memory(jet.grad, jet._grad) and np.shares_memory(jet.hess, jet._hess)


def test_field_evaluations_store_the_point_axis_last():
    params = ModelParams(z=0.5, spatial_dim=2)
    field = RandomPolynomialField(3, params, 3)

    class PointByPoint(ScalarField):
        def evaluate(self, params, point):
            return field.evaluate_many(params, point.coords())

    coords = np.random.default_rng(2).uniform(0.5, 1.5, (7, 3))
    for f in (field, PointByPoint(), pushforward_field(Xn(-1, 0.1), params, field)):
        jet = f.evaluate_many(params, coords)
        assert jet._grad.shape == (3, 7) and jet._hess.shape == (3, 3, 7)
        assert jet._grad.flags.c_contiguous and jet._hess.flags.c_contiguous
        assert jet.grad.shape == (7, 3) and jet.hess.shape == (7, 3, 3)
