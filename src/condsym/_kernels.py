"""Numeric hot loops: polynomial jet evaluation and small determinants."""

import numpy as np


def poly_jet(powers, coeffs, coords):
    """Value, gradient and Hessian of ``sum_m coeffs[m] * prod_i coords[i]**powers[m, i]``.

    powers : (M, D) int64 array of non-negative exponents
    coeffs : (M,) float array
    coords : (D,) float array

    Returns ``(value, grad, hess)`` with shapes ``()``, ``(D,)``,
    ``(D, D)``.  The Hessian is symmetric by construction: the (i, j)
    and (j, i) slots accumulate identical terms.
    """
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
                f[i] = 1.0
                g[i] = 0.0
                h[i] = 0.0
            elif p == 1:
                f[i] = x
                g[i] = 1.0
                h[i] = 0.0
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


def det(a):
    """Determinant of a small square matrix.

    Sizes 1 to 3 use hard-coded cofactor expansion; larger sizes fall
    back to LU elimination with partial pivoting on a local copy.
    """
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
    m = a.copy()
    det = 1.0
    for k in range(n - 1):
        piv = k
        best = abs(m[k, k])
        for r in range(k + 1, n):
            v = abs(m[r, k])
            if v > best:
                best = v
                piv = r
        if best == 0.0:
            return 0.0
        if piv != k:
            for c in range(n):
                tmp = m[k, c]
                m[k, c] = m[piv, c]
                m[piv, c] = tmp
            det = -det
        for r in range(k + 1, n):
            factor = m[r, k] / m[k, k]
            m[r, k] = 0.0
            for c in range(k + 1, n):
                m[r, c] -= factor * m[k, c]
    for k in range(n):
        det *= m[k, k]
    return det
