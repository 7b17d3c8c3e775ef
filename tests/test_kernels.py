"""Kernels against oracles that share no code with them: numpy's
determinant and closed-form monomial derivatives; ``poly_jet`` also
against the scalar loop it replaced, bit for bit."""

import numpy as np
import pytest

from condsym import _kernels as kernels
from condsym.fields import monomial_table


@pytest.mark.parametrize("d", [1, 2, 3])
def test_det_against_numpy(d):
    rng = np.random.default_rng(d)
    for _ in range(20):
        a = rng.uniform(-2.0, 2.0, (d, d))
        ref = np.linalg.det(a)
        assert kernels.det(a) == pytest.approx(ref, rel=1e-10, abs=1e-12)


def test_det_exact_cases():
    assert kernels.det(np.eye(4)) == 1.0
    perm = np.eye(4)[[1, 0, 2, 3]]
    assert kernels.det(perm) == -1.0
    singular = np.ones((3, 3))
    assert kernels.det(singular) == 0.0
    assert kernels.det(np.zeros((5, 5))) == 0.0


def test_poly_jet_gradient_oracle():
    # single monomial 3 x^2 y^3: all derivatives in closed form
    powers = np.array([[2, 3]], dtype=np.int64)
    coeffs = np.array([3.0])
    x, y = 1.5, -0.5
    v, g, h = kernels.poly_jet(powers, coeffs, np.array([x, y]))
    assert v == pytest.approx(3 * x**2 * y**3, rel=1e-14)
    assert g[0] == pytest.approx(6 * x * y**3, rel=1e-14)
    assert g[1] == pytest.approx(9 * x**2 * y**2, rel=1e-14)
    assert h[0, 0] == pytest.approx(6 * y**3, rel=1e-14)
    assert h[0, 1] == pytest.approx(18 * x * y**2, rel=1e-14)
    assert h[1, 1] == pytest.approx(18 * x**2 * y, rel=1e-14)
    assert h[0, 1] == h[1, 0]


def _poly_jet_loop(powers, coeffs, coords):
    """The scalar loop ``poly_jet`` replaces: each entry is the
    coefficient times its factors in ascending coordinate order, summed
    over monomials in table order from 0.0."""
    M, D = powers.shape
    value = 0.0
    grad = np.zeros(D)
    hess = np.zeros((D, D))
    f = np.empty(D)
    g = np.empty(D)
    h = np.empty(D)
    for m in range(M):
        c = coeffs[m]
        for i in range(D):
            p = powers[m, i]
            x = coords[i]
            if p == 0:
                f[i], g[i], h[i] = 1.0, 0.0, 0.0
            elif p == 1:
                f[i], g[i], h[i] = x, 1.0, 0.0
            else:
                xpm2 = 1.0
                for _ in range(p - 2):
                    xpm2 *= x
                f[i] = xpm2 * x * x
                g[i] = p * xpm2 * x
                h[i] = p * (p - 1) * xpm2
        term = c
        for i in range(D):
            term *= f[i]
        value += term
        for i in range(D):
            gi = c * g[i]
            for j in range(D):
                if j != i:
                    gi *= f[j]
            grad[i] += gi
            hii = c * h[i]
            for j in range(D):
                if j != i:
                    hii *= f[j]
            hess[i, i] += hii
            for j in range(i + 1, D):
                hij = c * g[i] * g[j]
                for k in range(D):
                    if k != i and k != j:
                        hij *= f[k]
                hess[i, j] += hij
                hess[j, i] += hij
    return value, grad, hess


def _bits(a):
    return np.asarray(a, dtype=float).tobytes()


@pytest.mark.parametrize("dim", [1, 2, 3, 4, 5])
@pytest.mark.parametrize("degree", [0, 1, 2, 3, 4, 5])
def test_poly_jet_matches_scalar_loop_bitwise(dim, degree):
    powers = monomial_table(dim, degree)
    rng = np.random.default_rng(100 * dim + degree)
    for trial in range(8):
        # coefficients and coordinates spread over ten orders of magnitude
        coeffs = rng.uniform(-1.0, 1.0, len(powers)) * 10.0 ** rng.uniform(-5, 5, len(powers))
        coords = rng.uniform(-1.0, 1.0, dim) * 10.0 ** rng.uniform(-5, 5, dim)
        if trial % 4 == 1:
            coords[rng.integers(dim)] = 0.0
        if trial % 4 == 2:
            coords[rng.integers(dim)] = -0.0
        if trial % 4 == 3:
            coords[:] = -0.0
        got = kernels.poly_jet(powers, coeffs, coords)
        ref = _poly_jet_loop(powers, coeffs, coords)
        for g, r in zip(got, ref):
            assert np.shape(g) == np.shape(r)
            assert _bits(g) == _bits(r)
        hess = got[2]
        assert _bits(hess) == _bits(hess.T)


def _rows(rng, count, dim):
    """Coordinate rows over ten orders of magnitude, with some zeros and
    negative zeros."""
    rows = rng.uniform(-1.0, 1.0, (count, dim)) * 10.0 ** rng.uniform(-5, 5, (count, dim))
    rows[1::4, rng.integers(dim)] = 0.0
    rows[2::4, rng.integers(dim)] = -0.0
    rows[3::4] = -0.0
    return rows


@pytest.mark.parametrize("dim", [2, 3, 4])
@pytest.mark.parametrize("degree", [3, 4])
def test_poly_jet_rows_match_single_calls_bitwise(dim, degree):
    powers = monomial_table(dim, degree)
    rng = np.random.default_rng(10 * dim + degree)
    coeffs = rng.uniform(-1.0, 1.0, len(powers)) * 10.0 ** rng.uniform(-5, 5, len(powers))
    rows = _rows(rng, 13, dim)
    value, grad, hess = kernels.poly_jet(powers, coeffs, rows)
    assert (value.shape, grad.shape, hess.shape) == ((13,), (13, dim), (13, dim, dim))
    for k, row in enumerate(rows):
        one = kernels.poly_jet(powers, coeffs, row)
        for got, want in zip((value[k], grad[k], hess[k]), one):
            assert _bits(got) == _bits(want)


@pytest.mark.parametrize("dim", [1, 3])
def test_poly_jet_shapes_of_empty_single_and_unbatched(dim):
    powers = monomial_table(dim, 3)
    coeffs = np.linspace(-1.0, 1.0, len(powers))
    for coords, lead in ((np.zeros((0, dim)), (0,)), (np.full((1, dim), 0.7), (1,)),
                         (np.full(dim, 0.7), ())):
        value, grad, hess = kernels.poly_jet(powers, coeffs, coords)
        assert (np.shape(value), grad.shape, hess.shape) == (lead, lead + (dim,),
                                                             lead + (dim, dim))
    assert np.ndim(kernels.poly_jet(powers, coeffs, np.full(dim, 0.7))[0]) == 0


def test_poly_jet_rows_against_monomial_oracle():
    # 3 x^2 y^3 - 2 x y + 5 y at several rows: every entry in closed form
    powers = np.array([[2, 3], [1, 1], [0, 1]], dtype=np.int64)
    coeffs = np.array([3.0, -2.0, 5.0])
    rows = np.array([[1.5, -0.5], [-0.25, 2.0], [0.0, 1.0], [3.0, 0.0]])
    value, grad, hess = kernels.poly_jet(powers, coeffs, rows)
    x, y = rows.T
    want = (
        3 * x**2 * y**3 - 2 * x * y + 5 * y,
        np.stack([6 * x * y**3 - 2 * y, 9 * x**2 * y**2 - 2 * x + 5], axis=1),
        np.stack([np.stack([6 * y**3, 18 * x * y**2 - 2], axis=1),
                  np.stack([18 * x * y**2 - 2, 18 * x**2 * y], axis=1)], axis=1),
    )
    for got, ref in zip((value, grad, hess), want):
        np.testing.assert_allclose(got, ref, rtol=1e-14, atol=1e-14)
