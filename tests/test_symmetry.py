"""Finite transformations, derivative laws, generators, commutators."""

import itertools
import math
from fractions import Fraction

import numpy as np
import pytest

from condsym import jet2
from condsym.cli import _commutator_points
from condsym.errors import BranchError, DimensionMismatch, DomainError
from condsym.fields import (
    ModelParams,
    Point,
    RandomPolynomialField,
    ScalarField,
    check_coords,
    parse_profile,
)
from condsym.operators import monge_ampere, w1
from condsym.solutions import DEFAULT_FAMILIES, SolutionField, default_params
from condsym.symmetry import (
    Coefficients,
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
    rows = np.array([p.coords()])
    tr = xn_transport(Xn(2, 0.1), params, rows, u.evaluate_many(params, rows))
    assert tr.C == pytest.approx([0.1 * 2 * 1.5], abs=1e-14)


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


def test_yphi_shifts_each_axis_by_its_profile():
    # x'_a = x_a + e_a * phi_a(t), with phi_1 = sin(t) and phi_2 = 0.5 t
    g = Yphi((parse_profile("sin:1,1,0"), parse_profile("poly:0,0.5")), (0.3, -0.2))
    q, A = transform_point(g, P2, Point(1.3, (0.4, -0.7)))
    assert (q.t, A) == (1.3, 1.0)
    assert q.x[0] == pytest.approx(0.4 + 0.3 * math.sin(1.3), abs=1e-15)
    assert q.x[1] == pytest.approx(-0.7 - 0.2 * 0.5 * 1.3, abs=1e-15)


def test_element_dimension_checks():
    with pytest.raises(DimensionMismatch):
        transform_point(Yk(1, (0.5,)), P2, Point(1.0, (0.0, 0.0)))
    with pytest.raises(DimensionMismatch):
        transform_point(Rot(1, 3, 0.1), P2, Point(1.0, (0.0, 0.0)))
    with pytest.raises(DimensionMismatch):
        transform_point(
            Yphi((parse_profile("const:1"),), (1.0, 2.0)), P2, Point(1.0, (0.0, 0.0))
        )
    with pytest.raises(DimensionMismatch, match="shift vector length must equal N"):
        transform_point(Yphi((parse_profile("const:1"),), (1.0,)), P2, Point(1.0, (0.0, 0.0)))


def test_element_labels_and_profiles_are_checked():
    with pytest.raises(ValueError, match="n must be an integer"):
        Xn(1.5, 0.01)
    with pytest.raises(ValueError, match="k must be an integer"):
        Yk(0.5, (1.0, 0.0))
    with pytest.raises(TypeError, match="ProfileFunction"):
        Yphi(("const:1",), (1.0,))


def test_rot_refuses_a_non_integer_axis_and_keeps_an_integral_float():
    # a truncated axis would rotate a plane nobody asked for
    with pytest.raises(ValueError, match="a must be an integer"):
        Rot(1.5, 2, 0.1)
    with pytest.raises(ValueError, match="b must be an integer"):
        Rot(1, 2.9, 0.1)
    g = Rot(1.0, 2.0, 0.1)
    assert (g.a, g.b) == (1, 2) and type(g.a) is type(g.b) is int
    assert g == Rot(1, 2, 0.1)


@pytest.mark.parametrize("g", [
    Xn(1, 0.01), Yk(1, (0.5, 0.5)), Yphi((parse_profile("const:1"),) * 2, (1.0, 2.0)),
    Rot(1, 2, 0.1),
], ids=["Xn", "Yk", "Yphi", "Rot"])
def test_transform_point_refuses_a_point_of_the_wrong_dimension(g):
    # act checks nothing itself: Yk would zip a short x down to its length
    for x in ((0.3,), (0.3, 0.4, 0.5)):
        with pytest.raises(DimensionMismatch):
            transform_point(g, P2, Point(1.0, x))


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
    lhs = pushed.evaluate(params, q).value
    rhs = A * u.evaluate(params, p).value
    assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-13)


@pytest.mark.parametrize("g", [Yk(-1, (0.1, 0.1)), Xn(-2, 0.01)])
def test_pole_at_zero_time_is_domain_error(g):
    p = Point(0.0, (0.5, 0.5))
    with pytest.raises(DomainError):
        transform_point(g, P2, p)
    with pytest.raises(DomainError):
        pushforward_field(g, P2, RandomPolynomialField(4, P2, 3)).evaluate(P2, p)


def test_pushforward_by_yk_shifts_space():
    u = RandomPolynomialField(4, P2, 3)
    g = Yk(2, (0.3, -0.1))
    p = Point(0.8, (0.4, -0.6))
    shifted = pushforward_field(g, P2, u)
    moved = Point(p.t, (0.4 + 0.3 * 0.8**2, -0.6 - 0.1 * 0.8**2))
    assert shifted.evaluate(P2, moved).value == pytest.approx(
        u.evaluate(P2, p).value, rel=1e-12
    )


_LAW_ROWS = np.array([[1.1, 0.5, -0.2], [0.7, -0.9, 0.3]])


def test_derivative_law_gap_small():
    u = RandomPolynomialField(9, P2, 3)
    base = u.evaluate_many(P2, _LAW_ROWS)
    for n in (-2, -1, 0, 1, 2, 3):
        gaps = derivative_law_gap(xn_transport(Xn(n, 0.015), P2, _LAW_ROWS, base))
        assert gaps.shape == (2,) and (gaps < 1e-11).all()


def test_identity_gap_small():
    u = RandomPolynomialField(9, P2, 3)
    base = u.evaluate_many(P2, _LAW_ROWS)
    for n in (-2, -1, 0, 1, 2, 3):
        tr = xn_transport(Xn(n, 0.015), P2, _LAW_ROWS, base)
        gaps = pushforward_identity_gap(tr)
        assert gaps.shape == (2,) and (gaps < 1e-11).all()


class _Paraboloid(ScalarField):
    """u = t + x1^2 + x2^2: spatial Hessian determinant is 4 everywhere."""

    def evaluate_many(self, params, coords):
        jt, j1, j2 = jet2.coordinates(3, check_coords(params, coords))
        return jt + (j1 * j1 + j2 * j2)


def test_obstruction_is_necessary():
    # drop the obstruction summand and the identity must fail by >> tol
    u = _Paraboloid()
    p = Point(1.0, (0.6, -0.4))
    eps = 0.01
    g = Xn(1, eps)
    base = u.evaluate(P2, p)
    assert monge_ampere(base, P2) == pytest.approx(4.0, abs=1e-13)
    rows = np.array([p.coords()])
    tr = xn_transport(g, P2, rows, u.evaluate_many(P2, rows))
    (full_gap,) = pushforward_identity_gap(tr)
    assert full_gap < 1e-12
    (obstruction,) = obstruction_term(tr)
    assert abs(obstruction) > 1e-3 * eps
    q, A = transform_point(g, P2, p)
    prime = pushforward_field(g, P2, u).evaluate(P2, q)
    naive = abs(
        w1(prime, P2) - A ** (1.0 - P2.z - 2) * w1(base, P2)
    )
    assert naive > 1e-3 * eps


def test_obstruction_vanishes_for_shift_and_dilate():
    u = _Paraboloid()
    rows = np.array([[1.0, 0.6, -0.4], [0.8, -0.3, 0.9]])
    base = u.evaluate_many(P2, rows)
    for g in (Xn(-1, 0.01), Xn(0, 0.01)):
        assert obstruction_term(xn_transport(g, P2, rows, base)).tolist() == [0.0, 0.0]


def test_law_gap_requires_xn():
    u = RandomPolynomialField(2, P2, 2)
    rows = np.array([[1.0, 0.1, 0.1]])
    with pytest.raises(TypeError):
        xn_transport(Yk(1, (0.1, 0.1)), P2, rows, u.evaluate_many(P2, rows))


def test_zero_z_general_branch_is_guarded():
    # the dispatch routes z = 0 to its own branch before the generic
    # formula, which would divide by z
    q, _ = transform_point(Xn(1, 0.01), ModelParams(2, 0.0), Point(1.0, (0.5, 0.5)))
    assert q.t == 1.0


# --- generators ------------------------------------------------------------


def test_apply_generator_oracles():
    y = np.array([[1.0, 1.0, 1.0, 1.0]])  # one row
    grad_t = np.array([1.0, 0.0, 0.0, 0.0])
    grad_u = np.array([0.0, 0.0, 0.0, 1.0])
    grad_r2 = 2.0 * y[0] * [0.0, 1.0, 1.0, 0.0]  # of x1^2 + x2^2

    def apply(gen, grad):
        (value,) = gen.coeffs(P2, y)[0] @ grad
        return value

    # X_{-1} t = z; X_0 u = u; J_12 (x1^2 + x2^2) = 0
    assert apply(GenXn(-1), grad_t) == pytest.approx(2.0)
    assert apply(GenXn(0), grad_u) == pytest.approx(1.0)
    assert apply(GenJab(1, 2), grad_r2) == pytest.approx(0.0, abs=1e-14)


def test_generator_jacobian_matches_central_differences():
    # one row, and two distinct rows: a coefficient that read another row's
    # time or coordinates would miss its own central difference, and each
    # row of a batch is bit for bit that row alone
    one = np.array([[1.3, 0.4, -0.7, 0.9]])
    two = np.array([[1.3, 0.4, -0.7, 0.9], [0.6, -1.1, 0.8, 1.7]])
    h = 1e-6
    for y in (one, two):
        for gen in (GenXn(-2), GenXn(0), GenXn(2), GenYk(-1, 2), GenYk(3, 1), GenJab(1, 2)):
            xi, dxi = gen.coeffs(P2, y)
            assert xi.shape == (len(y), 4) and dxi.shape == (len(y), 4, 4)
            for b in range(4):
                fd = np.empty((len(y), 4))
                for r in range(len(y)):
                    step = np.zeros_like(y)
                    step[r, b] = h
                    fd[r] = (gen.coeffs(P2, y + step)[0][r]
                             - gen.coeffs(P2, y - step)[0][r]) / (2 * h)
                assert np.allclose(dxi[:, :, b], fd, rtol=1e-7, atol=1e-8), (gen, b)
            for r in range(len(y)):
                alone = gen.coeffs(P2, y[r:r + 1])
                assert np.array_equal(xi[r], alone[0][0]) and np.array_equal(dxi[r], alone[1][0])


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
    assert commutator_gap(GenXn(0), GenXn(1), expected, Coefficients(P2, [y])) < 1e-13
    # a wrong table entry is detected
    wrong = ((2.0, GenXn(0)),)
    assert commutator_gap(GenXn(0), GenXn(1), wrong, Coefficients(P2, [y])) > 1e-3


def test_commutator_gap_propagates_nan():
    table = Coefficients(P2, [np.array([1.0, math.nan, 0.5, 1.0])])
    assert math.isnan(commutator_gap(GenXn(0), GenXn(1), ((2.0, GenXn(1)),), table))


def test_y_brackets_vanish_exactly():
    table = Coefficients(P2, [np.array([1.2, 0.7, -0.4, 0.9])])
    for k1 in (-1, 0, 1, 2):
        for k2 in (-1, 0, 1, 2):
            for a1 in (1, 2):
                for a2 in (1, 2):
                    gap = commutator_gap(GenYk(k1, a1), GenYk(k2, a2), (), table)
                    assert gap == 0.0


def test_the_massless_algebra_at_n1_z2_contains_sch1():
    # the abstract's claim: span{X_-1, X_0, X_1, Y_0, Y_1} closes, and with
    # X~_n = -X_n / 2 and Y_k read as Y_m, m = k - 1/2, it is sch_1:
    # [X~_n, X~_m] = (n - m) X~_{n+m}, [X~_n, Y_m] = (n/2 - m) Y_{n+m}, [Y, Y] = 0
    params = ModelParams(1, 2.0)
    span = [GenXn(-1), GenXn(0), GenXn(1), GenYk(0, 1), GenYk(1, 1)]
    half = Fraction(1, 2)

    def in_sch1_basis(scale, terms):
        """``scale`` times ``terms``, as {("X~", n) or ("Y", m): coefficient}"""
        return {
            ("X~", gen.n) if isinstance(gen, GenXn) else ("Y", gen.k - half):
            scale * Fraction(c) * (-2 if isinstance(gen, GenXn) else 1)
            for c, gen in terms
        }

    coeffs = Coefficients(params, _commutator_points(1))
    for g1, g2 in itertools.combinations(span, 2):
        expected = expected_commutator(g1, g2, params)
        assert all(gen in span for _, gen in expected), (g1, g2)
        if isinstance(g2, GenXn):  # [X~_n, X~_m] = [X_n, X_m] / 4
            n, m = g1.n, g2.n
            got, want = in_sch1_basis(half * half, expected), {("X~", n + m): n - m}
        elif isinstance(g1, GenXn):  # [X~_n, Y_m] = -[X_n, Y_m] / 2
            n, m = g1.n, g2.k - half
            got, want = in_sch1_basis(-half, expected), {("Y", n + m): n * half - m}
        else:
            got, want = in_sch1_basis(1, expected), {}
        assert got == {key: c for key, c in want.items() if c != 0}, (g1, g2)
        assert commutator_gap(g1, g2, expected, coeffs) <= 1e-12, (g1, g2)


def test_generator_guards():
    with pytest.raises(DimensionMismatch, match="distinct 1-based axes"):
        GenJab(1, 1)
    with pytest.raises(TypeError, match="unsupported generator pair"):
        expected_commutator(GenXn(0), Xn(1, 0.01), P2)


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
    assert commutator_gap(GenJab(1, 2), GenJab(2, 3), expected, Coefficients(params, [y])) < 1e-13


def test_generator_axis_bounds():
    y = np.array([[1.0, 0.0, 0.0, 0.0]])
    with pytest.raises(DimensionMismatch):
        GenYk(1, 3).coeffs(P2, y)
    with pytest.raises(DimensionMismatch):
        commutator_gap(GenJab(1, 3), GenJab(1, 2), (), Coefficients(P2, [y]))


def test_pushforward_batch_matches_pointwise_and_names_branch_rows():
    fam = DEFAULT_FAMILIES["radial-z1"]
    params = default_params(fam)
    base = SolutionField(fam)
    coords = np.array([[0.6, 0.3, 0.2], [1.0, -0.4, 0.5], [1.9, 0.7, -0.1]])
    for g in (Xn(1, 0.05), Rot(1, 2, 0.3), Yk(2, (0.1, -0.2))):
        field = pushforward_field(g, params, base)
        batch = field.evaluate_many(params, coords)
        for k, row in enumerate(coords):
            jet = field.evaluate(params, Point(row[0], tuple(row[1:])))
            assert batch.value[k] == jet.value
            assert np.array_equal(batch.grad[k], jet.grad)
            assert np.array_equal(batch.hess[k], jet.hess)
    # Xn(1, -0.6) runs its inverse, whose branch 1 - 0.6 t > 0 ends at t = 5/3
    field = pushforward_field(Xn(1, -0.6), params, base)
    with pytest.raises(BranchError) as info:
        field.evaluate_many(params, coords)
    assert info.value.rows.tolist() == [False, False, True]
    with pytest.raises(BranchError, match="small-parameter branch") as info:
        field.evaluate(params, Point(1.9, (0.7, -0.1)))
    assert info.value.rows is None


def _elements(spatial_dim):
    """One element of each kind that fits N, Xn for every n in -2..3."""
    profiles = ("sin:1,1,0", "exp:0.5,0.2", "poly:0.1,0.3,-0.2")
    yield from (Xn(n, 0.2) for n in range(-2, 4))
    yield Yk(2, tuple(0.1 * (-1) ** a for a in range(spatial_dim)))
    yield Yk(-1, (0.3,) * spatial_dim)
    yield Yphi(tuple(map(parse_profile, profiles[:spatial_dim])), (0.2,) * spatial_dim)
    if spatial_dim > 1:
        yield Rot(1, spatial_dim, 0.4)


def _seeded_act(g, params, coords):
    """``g.act`` on the seed jets of one point: its image and factor."""
    t, *x = (jet2.seed(params.jet_dim, i, c) for i, c in enumerate(coords))
    t, x, a = g.act(params, t, x)
    return (t,) + x, a


@pytest.mark.parametrize("spatial_dim", [1, 2, 3])
@pytest.mark.parametrize("z", [0.0, 2.0])
def test_transform_point_reads_the_values_of_the_seeded_jets(spatial_dim, z):
    # transform_point acts on coordinate values alone; they are bit for bit
    # the values of the seeded jets, and the branch guard fails at the same
    # points
    params = ModelParams(spatial_dim, z)
    rng = np.random.default_rng(spatial_dim)
    points = [Point(t, rng.uniform(-1.0, 1.0, spatial_dim)) for t in (0.6, 0.9, 1.3, 2.4)]
    for g in _elements(spatial_dim):
        for big in (False, True):
            g = Xn(g.n, 5.0) if big and isinstance(g, Xn) else g
            for p in points:
                try:
                    image, a = _seeded_act(g, params, p.coords())
                except BranchError:
                    with pytest.raises(BranchError):
                        transform_point(g, params, p)
                    continue
                q, a_val = transform_point(g, params, p)
                assert (q.t,) + q.x == tuple(j.value for j in image), (g, p)
                assert a_val == (a.value if isinstance(a, jet2.Jet2) else a), (g, p)
                assert type(q.t) is float and type(a_val) is float


def test_branch_guard_message_is_short_on_a_large_batch():
    fam = DEFAULT_FAMILIES["radial-z1"]
    params = default_params(fam)
    t = np.linspace(0.6, 1.9, 300)
    coords = np.column_stack([t, np.full(300, 0.3), np.full(300, -0.2)])
    field = pushforward_field(Xn(1, -0.6), params, SolutionField(fam))
    with pytest.raises(BranchError) as info:
        field.evaluate_many(params, coords)
    assert len(str(info.value)) < 120
    assert info.value.rows.tolist() == (1.0 - 0.6 * t <= 0.0).tolist()
