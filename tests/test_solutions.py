"""Closed-form solution families and their domains."""

import math

import numpy as np
import pytest

from condsym import jet2
from condsym.errors import DimensionMismatch, DomainError, ZeroDynamicalExponent
from condsym.fields import ModelParams, Point, evaluate, parse_profile
from condsym.operators import (
    ResidualKind,
    diffusion_residual,
    monge_ampere,
)
from condsym.solutions import (
    DEFAULT_FAMILIES,
    GeneralYphi,
    GeneralZ,
    MAOnly,
    OneDimZ0,
    RadialZ1,
    RatioPolynomial,
    SolutionField,
    Z0Linear,
    Z0Sqrt,
    ansatz_profile,
    default_grid,
    default_params,
    evaluate_solution,
)
from condsym.symmetry import Yphi, pushforward_field


def test_radial_distance_oracle():
    fam = RadialZ1(1.0, 0.0, 0.0, 0)
    j = evaluate_solution(fam, default_params(fam), Point(7.0, (3.0, 4.0)))
    assert j.value == pytest.approx(5.0, abs=1e-13)


def test_z0_linear_oracle():
    fam = Z0Linear(parse_profile("const:2"), parse_profile("const:3"))
    params = default_params(fam)
    j = evaluate_solution(fam, params, Point(1.0, (1.0, 1.0)))
    assert j.value == pytest.approx(5.0, abs=1e-14)
    assert not j.hess[1:, 1:].any()


def test_general_z_oracle():
    fam = GeneralZ(0.5, 0.0, 0.0, 1, 2.0)
    j = evaluate_solution(fam, default_params(fam), Point(1.0, (1.0, 0.0)))
    assert j.value == pytest.approx(1.0, abs=1e-13)


def test_general_z_parameter_guards():
    with pytest.raises(ValueError):
        GeneralZ(0.5, 0.0, 0.0, 1, 1.0)
    with pytest.raises(ZeroDynamicalExponent):
        GeneralZ(0.5, 0.0, 0.0, 1, 0.0)
    with pytest.raises(ValueError):
        GeneralZ(-1.0, 0.0, 0.0, 1, 2.0)
    with pytest.raises(ZeroDynamicalExponent):
        GeneralYphi(1.0, 0.0, 0.0, 0.0, parse_profile("const:1"), parse_profile("const:1"))


def test_one_dim_z0_decaying_exponent_solves():
    fam = OneDimZ0(1.5, parse_profile("poly:2,1"))
    params = default_params(fam)
    worst = 0.0
    for t in np.linspace(0.5, 2.0, 7):
        for x in np.linspace(-1.0, 1.0, 7):
            j = evaluate_solution(fam, params, Point(float(t), (float(x),)))
            worst = max(worst, abs(diffusion_residual(j, params)))
    assert worst < 1e-13


def test_growing_exponent_is_not_a_solution():
    # flipping the sign of the exponent breaks the balance by O(1)
    params = ModelParams(1, 0.0)
    c, t, x = 1.5, 1.0, 0.7
    jt = jet2.seed(2, 0, t)
    jx = jet2.seed(2, 1, x)
    u = jet2.mul(jet2.mul(jet2.constant(2, c), jx), jet2.exp(jt))
    assert abs(diffusion_residual(u, params)) > 0.1


def test_z0_sqrt_radicand_sign():
    fam = Z0Sqrt(parse_profile("const:25"))
    params = default_params(fam)
    j = evaluate_solution(fam, params, Point(1.0, (1.0, 1.0)))
    # radicand = 25*1 - 2*1*(1+1) = 21
    assert j.value == pytest.approx(math.sqrt(21.0), abs=1e-13)
    assert abs(diffusion_residual(j, params)) < 1e-12
    # large t drives the radicand negative: excluded, not evaluated
    with pytest.raises(DomainError):
        evaluate_solution(fam, params, Point(7.0, (1.0, 1.0)))
    with pytest.raises(DomainError):
        evaluate_solution(fam, params, Point(1.0, (1.0, 0.0)))


def test_ratio_polynomial_jet():
    # p(r1, r2) = 1 + 2 r1 r2 at (0.5, -0.4)
    rp = RatioPolynomial(2, (((0, 0), 1.0), ((1, 1), 2.0)))
    a = jet2.seed(2, 0, 0.5)
    b = jet2.seed(2, 1, -0.4)
    j = rp.jet([a, b])
    assert j.value == pytest.approx(1.0 + 2 * 0.5 * -0.4, abs=1e-14)
    assert j.grad[0] == pytest.approx(-0.8, abs=1e-14)
    assert j.grad[1] == pytest.approx(1.0, abs=1e-14)


def test_ratio_polynomial_validation():
    with pytest.raises(ValueError):
        RatioPolynomial(0, (((0,), 1.0),))
    with pytest.raises(ValueError):
        RatioPolynomial(2, (((0, 0, 1), 1.0),))


def test_ma_only_homogeneity_and_residual():
    fam = DEFAULT_FAMILIES["ma-only"]
    params = default_params(fam)
    p = Point(1.0, (0.8, 0.5, 1.2))
    scaled = Point(1.0, (1.6, 1.0, 2.4))
    j1 = evaluate_solution(fam, params, p)
    j2 = evaluate_solution(fam, params, scaled)
    # degree-1 homogeneity in x forces the spatial Hessian determinant to zero
    assert j2.value == pytest.approx(2.0 * j1.value, rel=1e-12)
    assert abs(monge_ampere(j1, params)) < 1e-12


def test_ma_only_two_dim_uses_profile():
    fam = MAOnly(2, parse_profile("poly:1,1"))
    params = default_params(fam)
    j = evaluate_solution(fam, params, Point(1.0, (2.0, 1.0)))
    # u = x1 * (1 + x1/x2) = 2 * 3 = 6
    assert j.value == pytest.approx(6.0, abs=1e-13)
    assert abs(monge_ampere(j, params)) < 1e-12


def test_ma_only_arity_guards():
    with pytest.raises(DimensionMismatch):
        MAOnly(3, parse_profile("poly:1,1"))
    with pytest.raises(DimensionMismatch):
        MAOnly(4, RatioPolynomial(2, (((0, 0), 1.0),)))
    with pytest.raises(DimensionMismatch):
        MAOnly(1, parse_profile("poly:1,1"))


def test_family_z_and_dim_guards():
    fam = DEFAULT_FAMILIES["radial-z1"]
    with pytest.raises(ValueError):
        evaluate_solution(fam, ModelParams(2, 2.0), Point(1.0, (0.5, 0.5)))
    with pytest.raises(DimensionMismatch):
        evaluate_solution(fam, ModelParams(3, 1.0), Point(1.0, (0.5, 0.5, 0.5)))


def test_default_params_conflict():
    fam = DEFAULT_FAMILIES["general-z"]  # fixes z = 2
    assert default_params(fam).z == 2.0
    with pytest.raises(ValueError):
        default_params(fam, z=3.0)
    free = DEFAULT_FAMILIES["ma-only"]
    assert default_params(free, z=1.25).z == 1.25
    assert default_params(free).z == 2.0


def test_required_metadata():
    assert DEFAULT_FAMILIES["one-dim-z0"].spatial_dim == 1
    assert DEFAULT_FAMILIES["ma-only"].spatial_dim == 3
    assert DEFAULT_FAMILIES["one-dim-z1"].z == 1.0
    assert DEFAULT_FAMILIES["z0-sqrt"].z == 0.0
    assert DEFAULT_FAMILIES["one-dim-generic"].z is None
    assert DEFAULT_FAMILIES["ma-only"].designated == (ResidualKind.MONGE_AMPERE,)
    assert DEFAULT_FAMILIES["one-dim-z0"].designated == (ResidualKind.DIFFUSION,)


def test_shift_by_yphi_preserves_solutions():
    # pushing forward by Yphi with negated shifts replaces x_a by
    # x_a + e_a * phi_a(t), here with e = (0.3, -0.2)
    base = DEFAULT_FAMILIES["general-z"]
    profiles = (parse_profile("sin:1,1,0"), parse_profile("poly:0,0.5"))
    params = default_params(base)
    shifted = pushforward_field(Yphi(profiles, (-0.3, 0.2)), params, SolutionField(base))
    worst = 0.0
    count = 0
    for t in np.linspace(0.5, 2.0, 5):
        for x1 in np.linspace(0.3, 1.5, 5):
            for x2 in np.linspace(-0.5, 0.5, 5):
                try:
                    j = evaluate(shifted, params, Point(float(t), (float(x1), float(x2))))
                except DomainError:
                    continue
                count += 1
                worst = max(worst, abs(diffusion_residual(j, params)))
                worst = max(worst, abs(monge_ampere(j, params)))
    assert count > 50
    assert worst < 1e-10


def test_ansatz_profile_matches_field():
    # u(t, x) = t**s * phi(x * t**-s) with s = (n+1)/z; phi carries the
    # constant offsets, the field the time-dependent ones, and the two
    # agree because the cone is degree-1 homogeneous
    fam = GeneralZ(0.7, 0.4, -0.1, 1, 2.0)
    params = default_params(fam)
    prof = ansatz_profile(fam)
    t, x1, x2 = 1.2, 0.6, 0.3
    s = t ** ((fam.n + 1) / fam.z)
    direct = evaluate_solution(fam, params, Point(t, (x1, x2)))
    via_profile = s * prof.at(x1 / s, x2 / s).value
    assert via_profile == pytest.approx(direct.value, rel=1e-12)


def test_ansatz_profile_only_for_general_z():
    with pytest.raises(TypeError):
        ansatz_profile(DEFAULT_FAMILIES["radial-z1"])


def test_default_grids_are_admissible():
    for name, fam in DEFAULT_FAMILIES.items():
        grid = default_grid(fam)
        assert grid.spatial_dim == fam.spatial_dim
        assert grid.total_points >= 1000
        lo, hi, _ = grid.t_range
        assert lo > 0


def test_solution_field_adapter():
    fam = DEFAULT_FAMILIES["radial-z1"]
    field = SolutionField(fam)
    params = default_params(fam)
    j = evaluate(field, params, Point(1.0, (0.6, 0.8)))
    assert j.dim == 3
    assert "radial" in repr(field).lower() or "RadialZ1" in repr(field)
