"""Kernels against oracles that share no code with them: numpy's
determinant and closed-form monomial derivatives."""

import numpy as np
import pytest

from condsym import _kernels as kernels


@pytest.mark.parametrize("d", [1, 2, 3, 4, 5])
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
