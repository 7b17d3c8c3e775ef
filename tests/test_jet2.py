"""Second-order forward-mode jets: arithmetic, composition, domains."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from condsym import jet2
from condsym.errors import DimensionMismatch, DomainError


def test_seed_and_constant():
    a = jet2.seed(3, 1, 2.5)
    assert a.value == 2.5
    assert a.grad.tolist() == [0.0, 1.0, 0.0]
    assert not a.hess.any()
    c = jet2.constant(2, 7.0)
    assert c.value == 7.0
    assert not c.grad.any()


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


def _curved(x, y):
    """Jets with non-zero gradient and Hessian at the points (x, y)."""
    jx, jy = jet2.seed(2, 0, x), jet2.seed(2, 1, y)
    return jx * jy + jx * jx * 0.5 + 1.5 - jy * 0.25, jx - jy * jy


def _linear(x, y):
    """Jets with zero Hessian, so that each output entry is one product and
    a last-bit difference in f0, f1 or f2 stays within a few ulps."""
    jx, jy = jet2.seed(2, 0, x), jet2.seed(2, 1, y)
    return jx * 0.75 + jy * 0.25 + 0.125, jy * 0.5 - jx * 0.25


def _pairs(rng, n=40):
    x = rng.uniform(0.3, 1.7, n)
    y = rng.uniform(-1.2, 1.2, n)
    return x, y


def _ulps(a, b):
    a, b = np.asarray(a), np.asarray(b)
    diff = np.abs(a - b)
    return float(np.max(np.where(diff == 0.0, 0.0, diff / np.spacing(np.abs(b)))))


_BITWISE = {
    "add": lambda a, b: a + b,
    "sub": lambda a, b: a - b,
    "neg": lambda a, b: -a,
    "mul": lambda a, b: a * b,
    "div": lambda a, b: a / b,
    "rdiv": lambda a, b: 2.0 / b,
    "sqrt": lambda a, b: jet2.sqrt(a),
    "sin": lambda a, b: jet2.sin(b),
    "cos": lambda a, b: jet2.cos(b),
    "power3": lambda a, b: jet2.power(b, 3),
    "power-2": lambda a, b: jet2.power(a, -2),
    "power0": lambda a, b: jet2.power(a, 0) * b,
    "compose": lambda a, b: jet2.compose(jet2.mul(a, b), [a, b]),
}

_NUMPY_ELEMENTARY = {
    "exp": lambda a, b: jet2.exp(b),
    "ln": lambda a, b: jet2.ln(a),
    "atan": lambda a, b: jet2.atan(b),
    "atan2": lambda a, b: jet2.atan2_jet(b, a),
    "power0.5": lambda a, b: jet2.power(a, 0.5),
    "power-1.5": lambda a, b: jet2.power(a, -1.5),
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


@pytest.mark.parametrize("name", sorted(_NUMPY_ELEMENTARY))
def test_batched_elementary_function_within_4_ulps(name):
    # numpy's exp, log, arctan, arctan2 and fractional pow may differ from
    # math's in the last bit; the unbatched path keeps math
    op = _NUMPY_ELEMENTARY[name]
    x, y = _pairs(np.random.default_rng(12), 400)
    batch = op(*_linear(x, y))
    scalar = [op(*_linear(xi, yi)) for xi, yi in zip(x, y)]
    assert _ulps(batch.value, [s.value for s in scalar]) <= 4
    assert _ulps(batch.grad, np.stack([s.grad for s in scalar])) <= 4
    assert _ulps(batch.hess, np.stack([s.hess for s in scalar])) <= 4


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
