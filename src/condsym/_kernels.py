"""Numeric hot loops: polynomial jet evaluation and small determinants."""

import numpy as np


def poly_jet(powers, coeffs, coords):
    """Value, gradient and Hessian of ``sum_m coeffs[m] * prod_i coords[i]**powers[m, i]``.

    powers : (M, D) int64 array of non-negative exponents
    coeffs : (M,) float array
    coords : (D,) float array

    Returns ``(value, grad, hess)`` with shapes ``()``, ``(D,)``,
    ``(D, D)``.  All monomials are evaluated at once, column by column,
    in a fixed float order: per monomial, each entry is the coefficient
    times the factors of the coordinates in ascending index order, and
    the sum over monomials runs in table order starting from 0.0.  The
    (i, j) and (j, i) Hessian slots get identical terms, so the Hessian
    is exactly symmetric.
    """
    p = np.asarray(powers)
    c = np.asarray(coeffs, dtype=float)
    x = np.asarray(coords, dtype=float)
    M, D = p.shape
    # x**(p - 2) by repeated multiplication, starting at 1.0
    xpm2 = np.ones((M, D))
    for r in range(int(p.max(initial=2)) - 2):
        xpm2 = np.where(p - 2 > r, xpm2 * x, xpm2)
    # factor, first and second derivative of each x_i**p in each monomial
    f = np.where(p == 0, 1.0, np.where(p == 1, x, xpm2 * x * x))
    g = np.where(p == 0, 0.0, np.where(p == 1, 1.0, p * xpm2 * x))
    h = np.where(p >= 2, p * (p - 1) * xpm2, 0.0)

    term = c
    grad = c[:, None] * g
    hess = grad[:, :, None] * g[:, None, :]
    idx = np.arange(D)
    hess[:, idx, idx] = c[:, None] * h
    # below the diagonal, the product (c * g_i) * g_j taken with i < j
    hess = np.where(idx[:, None] > idx, hess.transpose(0, 2, 1), hess)
    # multiply in the factors of the other coordinates; a 1.0 stands in
    # for the factors an entry skips, which leaves its value untouched
    eye = idx[:, None] == idx
    for k in range(D):
        fk = f[:, k]
        term = term * fk
        grad = grad * np.where(eye[k], 1.0, fk[:, None])
        hess = hess * np.where(eye[k][:, None] | eye[k][None, :], 1.0, fk[:, None, None])

    # sum the monomials one after another from 0.0; np.add.accumulate
    # keeps that order, where np.sum may add pairwise
    terms = np.empty((M + 1, 1 + D + D * D))
    terms[0] = 0.0
    terms[1:, 0] = term
    terms[1:, 1 : 1 + D] = grad
    terms[1:, 1 + D :] = hess.reshape(M, D * D)
    total = np.add.accumulate(terms, axis=0)[-1]
    return total[0], total[1 : 1 + D], total[1 + D :].reshape(D, D)


def det(a):
    """Determinant of a small square matrix: hard-coded cofactor expansion
    for sizes 1 to 3, ``np.linalg.det`` above."""
    n = a.shape[0]
    if n == 1:
        return a[0, 0]
    if n == 2:
        return a[0, 0] * a[1, 1] - a[0, 1] * a[1, 0]
    if n == 3:
        return (
            a[0, 0] * (a[1, 1] * a[2, 2] - a[1, 2] * a[2, 1])
            - a[0, 1] * (a[1, 0] * a[2, 2] - a[1, 2] * a[2, 0])
            + a[0, 2] * (a[1, 0] * a[2, 1] - a[1, 1] * a[2, 0])
        )
    return np.linalg.det(a)
