"""Numeric hot loops: polynomial jet evaluation and small determinants.

``poly_jet`` gives the whole second-order jet of a polynomial, and
``poly_value`` its value alone, in the same float order, for callers
that read values only (the finite-difference stencils).  ``triu`` keeps
the triangle indices that these loops and the jet layers index by.
"""

import functools

import numpy as np


@functools.cache
def triu(d, k=0):
    """``np.triu_indices(d, k)``, built once per ``(d, k)``, read-only."""
    iu = np.triu_indices(d, k)
    for index in iu:
        index.flags.writeable = False
    return iu


def _operands(powers, coeffs, coords):
    """The shared set-up of the polynomial kernels: the exponents ``p``
    (D, M, 1...), the coefficients ``c`` (M, 1...) and the coordinates
    ``x`` (D, 1, P...): coordinates first, then monomials, then points."""
    x = np.asarray(coords, dtype=float)
    M, D = np.shape(powers)
    lead = x.shape[:-1]
    p = np.reshape(np.transpose(powers), (D, M) + (1,) * len(lead))
    c = np.asarray(coeffs, dtype=float).reshape(p.shape[1:])
    return p, c, np.moveaxis(x, -1, 0)[:, None]


def _factor(p, x):
    """``x**(p - 2)`` by repeated multiplication from 1.0, and ``x**p``, for
    the ``p`` and ``x`` of :func:`_operands` or for one coordinate's rows of them."""
    xpm2 = np.ones(np.broadcast_shapes(p.shape, x.shape))
    for r in range(int(p.max(initial=2)) - 2):
        xpm2 = np.where(p - 2 > r, xpm2 * x, xpm2)
    return xpm2, np.where(p == 0, 1.0, np.where(p == 1, x, xpm2 * x * x))


def _sum_monomials(terms):
    """The sum over the leading (monomial) axis, one monomial after
    another from 0.0, as np.sum, which may add pairwise, would not."""
    total = np.zeros(terms.shape[1:])
    for term in terms:
        total += term
    return total


def poly_jet(powers, coeffs, coords):
    """Value, gradient and Hessian of ``sum_m coeffs[m] * prod_i coords[i]**powers[m, i]``.

    powers : (M, D) int64 array of non-negative exponents
    coeffs : (M,) float array
    coords : (D,) float array, or (P, D) for P points

    Returns ``(value, grad, hess)`` with shapes ``()``, ``(D,)``,
    ``(D, D)``, or ``(P,)``, ``(P, D)``, ``(P, D, D)`` for rows: the
    gradient and Hessian of rows are views of C-contiguous point-last
    arrays (D, P) and (D, D, P), the layout ``Jet2`` copies into.  All
    monomials of all points are evaluated at once, entry by entry, in a
    fixed float order: per monomial, each entry is the coefficient times
    the factors of the coordinates in ascending index order, and the sum
    over monomials runs in table order starting from 0.0, so each row of
    a batch is bit for bit its own call.  The (j, i) Hessian slot copies
    the (i, j) one, so the Hessian is exactly symmetric.
    """
    p, c, x = _operands(powers, coeffs, coords)
    xpm2, f = _factor(p, x)
    D, M = p.shape[:2]
    lead = f.shape[2:]
    # first and second derivative of each x_i**p in each monomial
    g = np.where(p == 0, 0.0, np.where(p == 1, 1.0, p * xpm2 * x))
    h = np.where(p >= 2, p * (p - 1) * xpm2, 0.0)

    # each jet entry of a monomial is a leading product times the factors
    # f_k of the coordinates it skips, in ascending k: the value c, the
    # gradient c * g_i, the Hessian c * h_i on and c * g_i * g_j (i < j)
    # above the diagonal; the (j, i) slot copies the (i, j) sum
    iu = triu(D)
    leads = [(c, ())] + [(c * g[i], (i,)) for i in range(D)]
    leads += [(c * h[i] if i == j else c * g[i] * g[j], (i, j)) for i, j in zip(*iu)]
    terms = np.empty((M, len(leads)) + lead)
    for e, (term, skip) in enumerate(leads):
        for k in range(D):
            if k not in skip:
                term = term * f[k]
        terms[:, e] = term

    total = _sum_monomials(terms)
    hess = np.empty((D, D) + lead)
    hess[iu[0], iu[1]] = hess[iu[1], iu[0]] = total[1 + D :]
    return total[0][()], total[1 : 1 + D].T, hess.transpose(*range(2, hess.ndim), 0, 1)


def poly_value(powers, coeffs, coords):
    """The value entry of :func:`poly_jet` alone, bit for bit: a float
    for one row (D,), a (P,) array for rows (P, D).  Each monomial is its
    coefficient times the factors of the coordinates, multiplied in one
    coordinate at a time in ascending order (no (D, M, P) array is held),
    and the monomials are summed in table order from 0.0."""
    p, c, x = _operands(powers, coeffs, coords)
    term = c
    for pk, xk in zip(p, x):
        term = term * _factor(pk, xk)[1]
    total = _sum_monomials(term)
    return total if total.ndim else float(total)


def det(a):
    """Determinant of a small square matrix, or of each matrix of a stack
    (..., n, n): hard-coded cofactor expansion for sizes 1 to 3,
    ``np.linalg.det`` above."""
    n = a.shape[-1]
    if n == 1:
        return a[..., 0, 0]
    if n == 2:
        return a[..., 0, 0] * a[..., 1, 1] - a[..., 0, 1] * a[..., 1, 0]
    if n == 3:
        return (
            a[..., 0, 0] * (a[..., 1, 1] * a[..., 2, 2] - a[..., 1, 2] * a[..., 2, 1])
            - a[..., 0, 1] * (a[..., 1, 0] * a[..., 2, 2] - a[..., 1, 2] * a[..., 2, 0])
            + a[..., 0, 2] * (a[..., 1, 0] * a[..., 2, 1] - a[..., 1, 1] * a[..., 2, 0])
        )
    return np.linalg.det(a)
