"""Determinant-form differential expressions built from second-order jets.

Given the jet of a field u over (t, x_1..x_N), this module evaluates

* ``w1``: determinant of the (N+1) x (N+1) matrix whose first row is
  (u_t, u_1, ..., u_N) and whose row a (a = 1..N) is
  (u_{t a}, u_{a 1}, ..., u_{a N});
* ``monge_ampere``: determinant of the spatial Hessian block;

and the residuals that combine them.  All determinants run through the
``det`` kernel (hard-coded cofactors up to 3x3, ``np.linalg.det`` above).
"""

import enum

import numpy as np

from . import jet2
from ._kernels import det
from .errors import DimensionMismatch


class ResidualKind(enum.Enum):
    DIFFUSION = "diffusion"
    GENERAL_INVARIANT = "general-invariant"
    MONGE_AMPERE = "monge-ampere"


def _require_dim(jet, params):
    if jet.dim != params.jet_dim:
        raise DimensionMismatch(
            f"jet dim {jet.dim} does not match N+1 = {params.jet_dim}"
        )


def w1_matrix(jet):
    """Matrix of the mixed first/second derivative determinant, with a
    leading point axis on a batch."""
    m = np.array(jet.hess)
    m[..., 0, :] = jet.grad
    m[..., 1:, 0] = jet.hess[..., 0, 1:]
    return m


def _spatial_hessian(jet):
    return jet.hess[..., 1:, 1:]


def w1(jet, params):
    _require_dim(jet, params)
    return det(w1_matrix(jet))


def monge_ampere(jet, params):
    _require_dim(jet, params)
    return det(_spatial_hessian(jet))


def diffusion_residual(jet, params):
    """w1 minus the divergence-form right-hand side.

    The right side is sum_a [u**(2-z-N) u_aa + (2-z-N) u**(1-z-N) u_a**2].
    When the coefficient 2-z-N is zero the second summand is dropped
    entirely, so for z = 0, N = 2 the result is exactly, float for
    float, w1 minus the plain Laplacian.
    """
    _require_dim(jet, params)
    n = params.spatial_dim
    coeff = 2.0 - params.z - n
    u = jet.value
    p1 = jet2.rpow(u, coeff)
    p2 = jet2.rpow(u, coeff - 1.0) if coeff != 0.0 else 0.0
    rhs = 0.0
    for a in range(1, n + 1):
        rhs += p1 * jet.hess[..., a, a]
        if coeff != 0.0:
            ua = jet.grad[..., a]
            rhs += coeff * p2 * ua * ua
    return w1(jet, params) - rhs


def general_residual(jet, params, g):
    """w1 minus u**(1-z-N) times a callback g.

    ``g`` receives the spatial gradient (length N) and the matrix
    u * u_ab (shape N x N), i.e. N(N+3)/2 independent scalars, and
    returns a float; on a batch both carry a leading point axis and ``g``
    returns one value per point.
    """
    _require_dim(jet, params)
    n = params.spatial_dim
    u = jet.value
    grads = jet.grad[..., 1:]
    scaled_hess = np.asarray(u)[..., None, None] * jet.hess[..., 1:, 1:]
    gval = g(grads, scaled_hess)
    return w1(jet, params) - jet2.rpow(u, 1.0 - params.z - n) * gval


def diffusion_gcallback(params):
    """The callback that makes :func:`general_residual` reproduce
    :func:`diffusion_residual`."""
    coeff = 2.0 - params.z - params.spatial_dim

    def g(grads, scaled_hess):
        out = 0.0
        for a in range(grads.shape[-1]):
            out += scaled_hess[..., a, a]
            if coeff != 0.0:
                out += coeff * grads[..., a] * grads[..., a]
        return out

    return g


def _general_invariant(jet, params):
    return general_residual(jet, params, diffusion_gcallback(params))


# each kind's residual, and the matrix whose entries scale it; the class
# residual of general-invariant is checked for the diffusion member's g
_RULES = {
    ResidualKind.DIFFUSION: (diffusion_residual, w1_matrix),
    ResidualKind.GENERAL_INVARIANT: (_general_invariant, w1_matrix),
    ResidualKind.MONGE_AMPERE: (monge_ampere, _spatial_hessian),
}


def _rule(kind):
    if kind not in _RULES:
        raise ValueError(f"unknown residual kind {kind!r}")
    return _RULES[kind]


def evaluate_residual(kind, jet, params):
    """The residual of a field jet for ``kind``."""
    return _rule(kind)[0](jet, params)


def residual_scale(kind, jet, params):
    """Normalization (1 + max |matrix entry|) ** size for the kind's
    matrix, one per point on a batch."""
    matrix = _rule(kind)[1](jet)
    entries = np.max(np.abs(matrix), axis=(-2, -1))
    return jet2.rpow(1.0 + entries, matrix.shape[-1])


__all__ = [
    "ResidualKind",
    "w1_matrix",
    "w1",
    "monge_ampere",
    "diffusion_residual",
    "general_residual",
    "diffusion_gcallback",
    "evaluate_residual",
    "residual_scale",
]
