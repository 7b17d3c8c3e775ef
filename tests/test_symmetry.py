"""Finite transformations, derivative laws, generators, commutators."""

import math

import numpy as np
import pytest

from condsym import jet2
from condsym.errors import BranchError, DimensionMismatch, DomainError
from condsym.fields import (
    ModelParams,
    Point,
    RandomPolynomialField,
    ScalarField,
    evaluate,
    parse_profile,
)
from condsym.operators import monge_ampere, w1
from condsym.symmetry import (
    GenJab,
    GenXn,
    GenYk,
    Rot,
    Xn,
    Yk,
    Yphi,
    commutator_gap,
    derivative_law_gap,
    expected_commutator,
    obstruction_term,
    pushforward_field,
    pushforward_identity_gap,
    transform_point,
    xn_transport,
)

P2 = ModelParams(2, 2.0)


def test_xn_generic_transform_oracle():
    # z=2, n=1, eps=0.1 at t=1: s = 0.8, t' = 1/0.8 = 1.25, A = 0.8^-1
    q, A = transform_point(Xn(1, 0.1), P2, Point(1.0, (0.4, -0.2)))
    assert A == pytest.approx(1.25, abs=1e-14)
    assert q.t == pytest.approx(1.25, abs=1e-14)
    assert q.x[0] == pytest.approx(0.5, abs=1e-14)
    assert q.x[1] == pytest.approx(-0.25, abs=1e-14)


def test_xn_time_translation():
    q, A = transform_point(Xn(-1, 0.3), P2, Point(1.0, (0.5, 0.5)))
    assert q.t == pytest.approx(1.6, abs=1e-14)  # t + z*eps
    assert A == 1.0
    assert q.x == (0.5, 0.5)


def test_xn_dilatation():
    q, A = transform_point(Xn(0, 0.2), P2, Point(1.0, (1.0, -1.0)))
    assert q.t == pytest.approx(math.exp(0.4), abs=1e-14)
    assert A == pytest.approx(math.exp(0.2), abs=1e-14)
    assert q.x[0] == pytest.approx(math.exp(0.2), abs=1e-14)


def test_xn_z0_branch():
    params = ModelParams(2, 0.0)
    p = Point(1.5, (1.0, 2.0))
    q, A = transform_point(Xn(2, 0.1), params, p)
    s = math.exp(0.1 * 1.5**2)
    assert q.t == 1.5
    assert A == pytest.approx(s, abs=1e-14)
    assert q.x[0] == pytest.approx(s, abs=1e-14)
    u = RandomPolynomialField(4, params, 3)
    tr = xn_transport(Xn(2, 0.1), params, u, p, evaluate(u, params, p))
    assert tr.C == pytest.approx(0.1 * 2 * 1.5, abs=1e-14)


def test_branch_error_outside_window():
    # s = 1 - z*n*eps*t^n goes nonpositive
    with pytest.raises(BranchError):
        transform_point(Xn(1, 0.6), P2, Point(1.0, (0.0, 0.0)))


def test_rot_moves_axes():
    g = Rot(1, 2, math.pi / 2)
    q, A = transform_point(g, P2, Point(1.0, (1.0, 0.0)))
    assert A == 1.0
    assert q.x[0] == pytest.approx(0.0, abs=1e-15)
    assert q.x[1] == pytest.approx(1.0, abs=1e-15)


def test_element_dimension_checks():
    with pytest.raises(DimensionMismatch):
        transform_point(Yk(1, (0.5,)), P2, Point(1.0, (0.0, 0.0)))
    with pytest.raises(DimensionMismatch):
        transform_point(Rot(1, 3, 0.1), P2, Point(1.0, (0.0, 0.0)))
    with pytest.raises(DimensionMismatch):
        transform_point(
            Yphi((parse_profile("const:1"),), (1.0, 2.0)), P2, Point(1.0, (0.0, 0.0))
        )


def _group_elements():
    sin_prof = parse_profile("sin:1,1,0")
    const_prof = parse_profile("const:1")
    return [
        ("xn generic", lambda e: Xn(1, e), P2),
        ("xn generic n=2", lambda e: Xn(2, e), P2),
        ("xn generic n=-2", lambda e: Xn(-2, e), P2),
        ("xn shift", lambda e: Xn(-1, e), P2),
        ("xn dilate", lambda e: Xn(0, e), P2),
        ("xn z0", lambda e: Xn(2, e), ModelParams(2, 0.0)),
        ("yk", lambda e: Yk(1, (e, -0.5 * e)), P2),
        ("yphi", lambda e: Yphi((sin_prof, const_prof), (e, 2.0 * e)), P2),
        ("rot", lambda e: Rot(1, 2, e), P2),
    ]


@pytest.mark.parametrize("label,make,params", _group_elements())
def test_composition_is_additive(label, make, params):
    p = Point(0.9, (0.7, -0.3))
    e1, e2 = 0.02, 0.013
    q1, a1 = transform_point(make(e1), params, p)
    q2, a2 = transform_point(make(e2), params, q1)
    q12, a12 = transform_point(make(e1 + e2), params, p)
    assert q2.t == pytest.approx(q12.t, abs=1e-10)
    assert np.asarray(q2.x) == pytest.approx(np.asarray(q12.x), abs=1e-10)
    assert a1 * a2 == pytest.approx(a12, abs=1e-10)


@pytest.mark.parametrize("label,make,params", _group_elements())
def test_inverse_round_trip(label, make, params):
    p = Point(0.9, (0.7, -0.3))
    g = make(0.05)
    q, A = transform_point(g, params, p)
    back, a_inv = transform_point(g.inverse(), params, q)
    assert back.t == pytest.approx(p.t, abs=1e-10)
    assert np.asarray(back.x) == pytest.approx(np.asarray(p.x), abs=1e-10)
    assert A * a_inv == pytest.approx(1.0, abs=1e-10)


@pytest.mark.parametrize("label,make,params", _group_elements())
def test_pushforward_defining_relation(label, make, params):
    # u'(g p) = A * u(p): the pushforward pulls back by the inverse of the
    # map that transform_point applies
    u = RandomPolynomialField(4, params, 3)
    g = make(0.02)
    p = Point(0.8, (0.4, -0.6))
    q, A = transform_point(g, params, p)
    pushed = pushforward_field(g, params, u)
    lhs = evaluate(pushed, params, q).value
    rhs = A * evaluate(u, params, p).value
    assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-13)


@pytest.mark.parametrize("g", [Yk(-1, (0.1, 0.1)), Xn(-2, 0.01)])
def test_pole_at_zero_time_is_domain_error(g):
    p = Point(0.0, (0.5, 0.5))
    with pytest.raises(DomainError):
        transform_point(g, P2, p)
    with pytest.raises(DomainError):
        evaluate(pushforward_field(g, P2, RandomPolynomialField(4, P2, 3)), P2, p)


def test_pushforward_by_yk_shifts_space():
    u = RandomPolynomialField(4, P2, 3)
    g = Yk(2, (0.3, -0.1))
    p = Point(0.8, (0.4, -0.6))
    shifted = pushforward_field(g, P2, u)
    moved = Point(p.t, (0.4 + 0.3 * 0.8**2, -0.6 - 0.1 * 0.8**2))
    assert evaluate(shifted, P2, moved).value == pytest.approx(
        evaluate(u, P2, p).value, rel=1e-12
    )


def test_derivative_law_gap_small():
    u = RandomPolynomialField(9, P2, 3)
    p = Point(1.1, (0.5, -0.2))
    base = evaluate(u, P2, p)
    for n in (-2, -1, 0, 1, 2, 3):
        assert derivative_law_gap(xn_transport(Xn(n, 0.015), P2, u, p, base)) < 1e-11


def test_identity_gap_small():
    u = RandomPolynomialField(9, P2, 3)
    p = Point(1.1, (0.5, -0.2))
    base = evaluate(u, P2, p)
    for n in (-2, -1, 0, 1, 2, 3):
        assert pushforward_identity_gap(xn_transport(Xn(n, 0.015), P2, u, p, base)) < 1e-11


class _Paraboloid(ScalarField):
    """u = t + x1^2 + x2^2: spatial Hessian determinant is 4 everywhere."""

    def evaluate(self, params, point):
        jt = jet2.seed(3, 0, point.t)
        j1 = jet2.seed(3, 1, point.x[0])
        j2 = jet2.seed(3, 2, point.x[1])
        return jet2.add(jt, jet2.add(jet2.mul(j1, j1), jet2.mul(j2, j2)))


def test_obstruction_is_necessary():
    # drop the obstruction summand and the identity must fail by >> tol
    u = _Paraboloid()
    p = Point(1.0, (0.6, -0.4))
    eps = 0.01
    g = Xn(1, eps)
    base = evaluate(u, P2, p)
    assert monge_ampere(base, P2) == pytest.approx(4.0, abs=1e-13)
    tr = xn_transport(g, P2, u, p, base)
    full_gap = pushforward_identity_gap(tr)
    assert full_gap < 1e-12
    obstruction = obstruction_term(tr)
    assert abs(obstruction) > 1e-3 * eps
    q, A = transform_point(g, P2, p)
    prime = evaluate(pushforward_field(g, P2, u), P2, q)
    naive = abs(
        w1(prime, P2) - A ** (1.0 - P2.z - 2) * w1(base, P2)
    )
    assert naive > 1e-3 * eps


def test_obstruction_vanishes_for_shift_and_dilate():
    u = _Paraboloid()
    p = Point(1.0, (0.6, -0.4))
    base = evaluate(u, P2, p)
    assert obstruction_term(xn_transport(Xn(-1, 0.01), P2, u, p, base)) == 0.0
    assert obstruction_term(xn_transport(Xn(0, 0.01), P2, u, p, base)) == 0.0


def test_law_gap_requires_xn():
    u = RandomPolynomialField(2, P2, 2)
    p = Point(1.0, (0.1, 0.1))
    base = evaluate(u, P2, p)
    with pytest.raises(TypeError):
        xn_transport(Yk(1, (0.1, 0.1)), P2, u, p, base)


def test_zero_z_general_branch_is_guarded():
    # the dispatch routes z = 0 to its own branch before the generic
    # formula, which would divide by z
    q, _ = transform_point(Xn(1, 0.01), ModelParams(2, 0.0), Point(1.0, (0.5, 0.5)))
    assert q.t == 1.0


# --- generators ------------------------------------------------------------


def test_apply_generator_oracles():
    y = np.array([1.0, 1.0, 1.0, 1.0])
    grad_t = np.array([1.0, 0.0, 0.0, 0.0])
    grad_u = np.array([0.0, 0.0, 0.0, 1.0])
    grad_r2 = 2.0 * y * [0.0, 1.0, 1.0, 0.0]  # of x1^2 + x2^2

    def apply(gen, grad):
        return gen.coeffs(P2, y)[0] @ grad

    # X_{-1} t = z; X_0 u = u; J_12 (x1^2 + x2^2) = 0
    assert apply(GenXn(-1), grad_t) == pytest.approx(2.0)
    assert apply(GenXn(0), grad_u) == pytest.approx(1.0)
    assert apply(GenJab(1, 2), grad_r2) == pytest.approx(0.0, abs=1e-14)


def test_generator_jacobian_matches_central_differences():
    y = np.array([1.3, 0.4, -0.7, 0.9])
    h = 1e-6
    for gen in (GenXn(-2), GenXn(0), GenXn(2), GenYk(-1, 2), GenYk(3, 1), GenJab(1, 2)):
        _, dxi = gen.coeffs(P2, y)
        for b in range(4):
            step = h * np.eye(4)[b]
            fd = (gen.coeffs(P2, y + step)[0] - gen.coeffs(P2, y - step)[0]) / (2 * h)
            assert np.allclose(dxi[:, b], fd, rtol=1e-7, atol=1e-8), (gen, b)


def test_generator_labels():
    assert [str(g) for g in (GenXn(-1), GenYk(2, 1), GenJab(1, 3))] == [
        "X(-1)",
        "Y(2,axis=1)",
        "J(1,3)",
    ]


def test_commutator_x0_x1_oracle():
    y = np.array([1.0, 1.0, 0.5, 1.0])
    expected = expected_commutator(GenXn(0), GenXn(1), P2)
    assert expected == ((2.0, GenXn(1)),)
    assert commutator_gap(GenXn(0), GenXn(1), expected, P2, y) < 1e-13
    # a wrong table entry is detected
    wrong = ((2.0, GenXn(0)),)
    assert commutator_gap(GenXn(0), GenXn(1), wrong, P2, y) > 1e-3


def test_commutator_gap_propagates_nan():
    y = np.array([1.0, math.nan, 0.5, 1.0])
    assert math.isnan(commutator_gap(GenXn(0), GenXn(1), ((2.0, GenXn(1)),), P2, y))


def test_y_brackets_vanish_exactly():
    y = np.array([1.2, 0.7, -0.4, 0.9])
    for k1 in (-1, 0, 1, 2):
        for k2 in (-1, 0, 1, 2):
            for a1 in (1, 2):
                for a2 in (1, 2):
                    gap = commutator_gap(GenYk(k1, a1), GenYk(k2, a2), (), P2, y)
                    assert gap == 0.0


def test_expected_commutator_table():
    z = 2.0
    # [X_n, X_n'] = z (n' - n) X_{n+n'}
    assert expected_commutator(GenXn(-2), GenXn(2), P2) == ((8.0, GenXn(0)),)
    assert expected_commutator(GenXn(1), GenXn(1), P2) == ()
    # [X_n, Y_k] = (z k - 1 - n) Y_{n+k}, same axis
    assert expected_commutator(GenXn(1), GenYk(1, 2), P2) == ()
    assert expected_commutator(GenXn(0), GenYk(1, 1), P2) == ((1.0, GenYk(1, 1)),)
    # reversed order flips sign
    assert expected_commutator(GenYk(1, 1), GenXn(0), P2) == ((-1.0, GenYk(1, 1)),)
    # [Y^{(c)}_k, J_ab] = delta_ca Y^{(b)}_k - delta_cb Y^{(a)}_k
    assert expected_commutator(GenYk(0, 1), GenJab(1, 2), P2) == ((1.0, GenYk(0, 2)),)
    assert expected_commutator(GenYk(0, 2), GenJab(1, 2), P2) == ((-1.0, GenYk(0, 1)),)
    # [X, J] = 0
    assert expected_commutator(GenXn(2), GenJab(1, 2), P2) == ()


def test_expected_commutator_is_antisymmetric():
    for spatial_dim, z in ((2, 2.0), (3, 1.5)):
        params = ModelParams(spatial_dim, z)
        axes = range(1, spatial_dim + 1)
        gens = [GenXn(n) for n in range(-2, 3)]
        gens += [GenYk(k, a) for k in range(-1, 3) for a in axes]
        gens += [GenJab(a, b) for a in axes for b in axes if a != b]
        for g1 in gens:
            for g2 in gens:
                forward = expected_commutator(g1, g2, params)
                reverse = expected_commutator(g2, g1, params)
                assert reverse == tuple((-c, g) for c, g in forward), (g1, g2)


def test_rotation_algebra_closes_in_3d():
    params = ModelParams(3, 2.0)
    assert expected_commutator(GenJab(1, 2), GenJab(2, 3), params) == (
        (1.0, GenJab(1, 3)),
    )
    y = np.array([1.1, 0.4, -0.3, 0.6, 0.9])
    expected = expected_commutator(GenJab(1, 2), GenJab(2, 3), params)
    assert commutator_gap(GenJab(1, 2), GenJab(2, 3), expected, params, y) < 1e-13


def test_generator_axis_bounds():
    y = np.array([1.0, 0.0, 0.0, 0.0])
    with pytest.raises(DimensionMismatch):
        GenYk(1, 3).coeffs(P2, y)
    with pytest.raises(DimensionMismatch):
        commutator_gap(GenJab(1, 3), GenJab(1, 2), (), P2, y)
