"""Determinant residuals, reduced system, harmonic profile builder."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from condsym import jet2
from condsym._kernels import det
from condsym.errors import DimensionMismatch, DomainError
from condsym.fields import ModelParams, parse_profile, random_polynomial_function
from condsym.operators import (
    HarmonicPhi,
    ResidualKind,
    diffusion_gcallback,
    diffusion_residual,
    evaluate_residual,
    general_residual,
    monge_ampere,
    reduced_residuals,
    reduced_scale,
    residual_scale,
    w1,
    w1_matrix,
)

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


def test_reduced_residuals_on_paraboloid():
    # phi = w1^2 + w2^2: phi*lap(phi) - z*|grad phi|^2 = 4*phi - 4*z*phi
    z = 1.0
    w1j = jet2.seed(2, 0, 0.6)
    w2j = jet2.seed(2, 1, -0.8)
    phi = jet2.add(jet2.mul(w1j, w1j), jet2.mul(w2j, w2j))
    first, second = reduced_residuals(phi, z)
    assert first == pytest.approx(0.0, abs=1e-14)
    assert second == pytest.approx(4.0, abs=1e-14)


def test_reduced_residuals_need_two_variables():
    with pytest.raises(Exception):
        reduced_residuals(jet2.seed(3, 0, 1.0), 2.0)


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
    f = parse_profile(text)
    phi = HarmonicPhi(f, z)
    lo1, hi1, lo2, hi2 = w_window
    rng = np.random.default_rng(17)
    worst = 0.0
    for _ in range(25):
        a = float(rng.uniform(lo1, hi1))
        b = float(rng.uniform(lo2, hi2))
        try:
            j = phi.at(a, b)
        except DomainError:
            continue
        first, _ = reduced_residuals(j, z)
        scale = reduced_scale(j)
        worst = max(worst, abs(first) / scale)
    assert worst < 1e-10


def test_harmonic_phi_poly_is_real_part():
    # f = w^2: real part of (w1 + i w2)^2 is w1^2 - w2^2, doubled
    phi = HarmonicPhi(parse_profile("poly:0,0,1"), 1.0)
    j = phi.harmonic_jet(jet2.seed(2, 0, 1.2), jet2.seed(2, 1, 0.5))
    assert j.value == pytest.approx(2 * (1.2**2 - 0.5**2), abs=1e-14)
    lap = j.hess[0, 0] + j.hess[1, 1]
    assert lap == pytest.approx(0.0, abs=1e-13)


def test_harmonic_phi_exp_is_harmonic():
    phi = HarmonicPhi(parse_profile("exp:1,0.5"), 2.0)
    j = phi.harmonic_jet(jet2.seed(2, 0, 0.3), jet2.seed(2, 1, -0.9))
    assert j.value == pytest.approx(
        2 * math.exp(0.5 * 0.3) * math.cos(0.5 * -0.9), abs=1e-13
    )
    assert j.hess[0, 0] + j.hess[1, 1] == pytest.approx(0.0, abs=1e-13)


def test_harmonic_phi_rejects_sin():
    with pytest.raises(DomainError):
        HarmonicPhi(parse_profile("sin:1,1,0"), 2.0)
    with pytest.raises(TypeError):
        HarmonicPhi("poly:0,1", 2.0)


def test_harmonic_phi_const_is_constant():
    phi = HarmonicPhi(parse_profile("const:1.5"), 2.0)
    j = phi.harmonic_jet(jet2.seed(2, 0, 0.3), jet2.seed(2, 1, -0.9))
    assert (j.value, j.dim) == (3.0, 2)
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
    # the reduced residuals belong to a profile jet, not to a field jet
    with pytest.raises(ValueError):
        evaluate_residual("reduced-first", j, P2)
