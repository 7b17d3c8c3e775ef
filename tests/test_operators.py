"""Determinant residuals, and the diffusion residual on harmonic stationary
profiles."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from condsym import jet2
from condsym._kernels import det
from condsym.errors import DimensionMismatch, DomainError
from condsym.cli import CLIError, parse_family
from condsym.fields import ModelParams, Point, parse_profile, random_polynomial_function
from condsym.operators import (
    ResidualKind,
    diffusion_gcallback,
    diffusion_residual,
    evaluate_residual,
    general_residual,
    monge_ampere,
    residual_scale,
    w1,
    w1_matrix,
)
from condsym.solutions import SolutionField, Stationary, default_params

P1 = ModelParams(1, 2.0)
P2 = ModelParams(2, 2.0)


def test_w1_orientation_1d():
    # u = t*x at (2, 3): rows (u_t, u_x), (u_tx, u_xx) give det [[3, 2], [1, 0]]
    u = jet2.mul(jet2.seed(2, 0, 2.0), jet2.seed(2, 1, 3.0))
    assert w1(u, P1) == -2.0


def test_w1_orientation_2d():
    u = jet2.mul(
        jet2.mul(jet2.seed(3, 0, 1.0), jet2.seed(3, 1, 1.0)), jet2.seed(3, 2, 1.0)
    )
    assert w1(u, P2) == 1.0


def test_w1_matrix_layout():
    jt = jet2.seed(3, 0, 1.1)
    jx = jet2.seed(3, 1, 0.4)
    jy = jet2.seed(3, 2, -0.6)
    u = jet2.add(jet2.mul(jt, jx), jet2.mul(jy, jy))
    m = w1_matrix(u)
    assert m[0, 0] == u.grad[0]
    assert m[0, 1] == u.grad[1] and m[0, 2] == u.grad[2]
    assert m[1, 0] == u.hess[0, 1] and m[2, 0] == u.hess[0, 2]
    assert m[1, 1] == u.hess[1, 1] and m[2, 2] == u.hess[2, 2]


@given(st.integers(0, 10**6))
@settings(max_examples=30, deadline=None)
def test_w1_w2_ma_match_numpy_det(seed):
    rng = np.random.default_rng(seed)
    f = random_polynomial_function(seed, 3, 3)
    y = rng.uniform(-1.0, 1.0, 3)
    j = f.at(y)
    assert w1(j, P2) == pytest.approx(np.linalg.det(w1_matrix(j)), rel=1e-10, abs=1e-12)
    # the full space-time Hessian
    assert det(np.array(j.hess)) == pytest.approx(np.linalg.det(j.hess), rel=1e-10, abs=1e-12)
    assert monge_ampere(j, P2) == pytest.approx(
        np.linalg.det(j.hess[1:, 1:]), rel=1e-10, abs=1e-12
    )


def test_paraboloid_solves_z1_diffusion():
    # u = x1^2 + x2^2, z = 1: time-independent, both sides vanish
    params = ModelParams(2, 1.0)
    jx = jet2.seed(3, 1, 1.0)
    jy = jet2.seed(3, 2, 1.0)
    u = jet2.add(jet2.mul(jx, jx), jet2.mul(jy, jy))
    assert diffusion_residual(u, params) == pytest.approx(0.0, abs=1e-14)


def test_diffusion_equals_z0_form_exactly():
    # with z = 0, N = 2 the exponent 2-z-N is 0: w1 minus the plain Laplacian
    params = ModelParams(2, 0.0)
    rng = np.random.default_rng(3)
    for seed in range(5):
        f = random_polynomial_function(seed, 3, 3)
        y = rng.uniform(0.5, 1.5, 3)
        j = f.at(y)
        laplacian = 0.0
        for a in (1, 2):
            laplacian += j.hess[a, a]
        assert diffusion_residual(j, params) == w1(j, params) - laplacian


def test_general_residual_recovers_diffusion():
    # the callback receives u*u_ab, so the factorization differs by ulps only
    params = ModelParams(2, 1.5)
    f = random_polynomial_function(9, 3, 3)
    y = np.array([1.0, 0.4, -0.3])
    j = f.at(y)
    g = diffusion_gcallback(params)
    assert general_residual(j, params, g) == pytest.approx(
        diffusion_residual(j, params), rel=1e-12, abs=1e-12
    )


@pytest.mark.parametrize("params", [P2, ModelParams(2, 0.0), ModelParams(3, 0.5)])
def test_general_invariant_kind_is_the_diffusion_member(params):
    # the kind runs general_residual with diffusion_gcallback, bit for bit,
    # at one point and on a batch (at z = 0, N = 2 the u_a**2 term drops)
    f = random_polynomial_function(9, params.jet_dim, 3)
    rows = np.random.default_rng(2).uniform(0.2, 1.0, (7, params.jet_dim))
    g = diffusion_gcallback(params)
    for j in (f.at(rows[0]), f.at(rows)):
        got = evaluate_residual(ResidualKind.GENERAL_INVARIANT, j, params)
        assert np.asarray(got).tobytes() == np.asarray(general_residual(j, params, g)).tobytes()


def test_diffusion_domain_error_on_negative_u():
    # fractional power of a negative field value must not silently produce nan
    params = ModelParams(2, 1.5)
    u = jet2.constant(3, -2.0)
    u = jet2.add(u, jet2.mul(jet2.seed(3, 0, 1.0), jet2.seed(3, 1, 0.1)))
    with pytest.raises(DomainError):
        diffusion_residual(u, params)


def _stationary_jet(text, z, x1, x2):
    """The jet of the stationary family with seed ``text`` at (1, x1, x2)."""
    fam = Stationary(parse_profile(text), z)
    return SolutionField(fam).evaluate(default_params(fam), Point(1.0, (x1, x2)))


# on a stationary field at N = 2 the diffusion residual is -u**(-1-z) times
# the first equation of the reduced profile system, u*Lap(u) - z*|grad u|**2
@pytest.mark.parametrize("z", [1.0, 2.0, 0.5, 3.0])
@pytest.mark.parametrize(
    "text,w_window",
    [
        ("poly:0,1", (0.3, 1.2, -0.7, 0.7)),
        ("poly:0,0,1", (0.9, 1.5, -0.4, 0.4)),
        ("exp:1,0.5", (-0.5, 1.0, -0.8, 0.8)),
    ],
)
def test_harmonic_phi_kills_first_reduced_equation(z, text, w_window):
    lo1, hi1, lo2, hi2 = w_window
    params = ModelParams(2, z)
    rng = np.random.default_rng(17)
    worst = 0.0
    evaluated = 0
    for _ in range(25):
        a = float(rng.uniform(lo1, hi1))
        b = float(rng.uniform(lo2, hi2))
        try:
            j = _stationary_jet(text, z, a, b)
            residual = diffusion_residual(j, params)
        except DomainError:
            continue
        evaluated += 1
        worst = max(worst, abs(residual) / residual_scale(ResidualKind.DIFFUSION, j, params))
    assert evaluated >= 20
    assert worst < 1e-10


def test_harmonic_phi_poly_is_real_part():
    # f = w^2: at z = 0, u = h = 2 Re (x1 + i x2)^2 = 2 (x1^2 - x2^2)
    j = _stationary_jet("poly:0,0,1", 0.0, 1.2, 0.5)
    assert j.value == pytest.approx(2 * (1.2**2 - 0.5**2), abs=1e-14)
    lap = j.hess[1, 1] + j.hess[2, 2]
    assert lap == pytest.approx(0.0, abs=1e-13)


def test_harmonic_phi_exp_is_harmonic():
    j = _stationary_jet("exp:1,0.5", 0.0, 0.3, -0.9)
    assert j.value == pytest.approx(
        2 * math.exp(0.5 * 0.3) * math.cos(0.5 * -0.9), abs=1e-13
    )
    assert j.hess[1, 1] + j.hess[2, 2] == pytest.approx(0.0, abs=1e-13)


def test_harmonic_phi_rejects_sin():
    with pytest.raises(ValueError, match="sin seed"):
        Stationary(parse_profile("sin:1,1,0"))
    with pytest.raises(CLIError, match="bad family 'stationary'"):
        parse_family("stationary:f=sin:1,1,0")


def test_harmonic_phi_const_is_constant():
    j = _stationary_jet("const:1.5", 0.0, 0.3, -0.9)
    assert (j.value, j.dim) == (3.0, 3)
    assert not j.grad.any() and not j.hess.any()


def test_operators_refuse_jets_of_the_wrong_dimension():
    with pytest.raises(DimensionMismatch, match=r"jet dim 2 does not match N\+1 = 3"):
        w1(jet2.seed(2, 0, 1.0), P2)


def test_residual_scale_values():
    u = jet2.mul(jet2.seed(2, 0, 2.0), jet2.seed(2, 1, 3.0))  # t*x at (2,3)
    # w1 matrix entries: max |entry| = 3; scale (1+3)^2 = 16
    assert residual_scale(ResidualKind.DIFFUSION, u, P1) == 16.0
    # spatial hessian is the 1x1 zero matrix; scale (1+0)^1 = 1
    assert residual_scale(ResidualKind.MONGE_AMPERE, u, P1) == 1.0


def test_evaluate_residual_dispatch():
    f = random_polynomial_function(21, 3, 3)
    j = f.at(np.array([1.0, 0.2, 0.8]))
    for kind in (ResidualKind.DIFFUSION, ResidualKind.MONGE_AMPERE):
        val = evaluate_residual(kind, j, P2)
        assert isinstance(val, float) and math.isfinite(val)
    # a name that is no residual kind is refused
    with pytest.raises(ValueError):
        evaluate_residual("reduced-first", j, P2)
