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
from .errors import DimensionMismatch, DomainError
from .fields import ProfileFunction


class ResidualKind(enum.Enum):
    DIFFUSION = "diffusion"
    GENERAL_INVARIANT = "general-invariant"
    MONGE_AMPERE = "monge-ampere"
    REDUCED_FIRST = "reduced-first"
    REDUCED_SECOND = "reduced-second"


def _require_dim(jet, params):
    if jet.dim != params.jet_dim:
        raise DimensionMismatch(
            f"jet dim {jet.dim} does not match N+1 = {params.jet_dim}"
        )


def w1_matrix(jet):
    """Matrix of the mixed first/second derivative determinant."""
    d = jet.dim
    m = np.empty((d, d))
    m[0, 0] = jet.grad[0]
    m[0, 1:] = jet.grad[1:]
    m[1:, 0] = jet.hess[0, 1:]
    m[1:, 1:] = jet.hess[1:, 1:]
    return m


def w1(jet, params):
    _require_dim(jet, params)
    return det(w1_matrix(jet))


def monge_ampere(jet, params):
    _require_dim(jet, params)
    return det(np.array(jet.hess[1:, 1:]))


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
        rhs += p1 * jet.hess[a, a]
        if coeff != 0.0:
            ua = jet.grad[a]
            rhs += coeff * p2 * ua * ua
    return w1(jet, params) - rhs


def general_residual(jet, params, g):
    """w1 minus u**(1-z-N) times a callback g.

    ``g`` receives the spatial gradient (length N) and the matrix
    u * u_ab (shape N x N), i.e. N(N+3)/2 independent scalars, and
    returns a float.
    """
    _require_dim(jet, params)
    n = params.spatial_dim
    u = jet.value
    grads = np.array(jet.grad[1:])
    scaled_hess = u * np.array(jet.hess[1:, 1:])
    gval = float(g(grads, scaled_hess))
    return w1(jet, params) - jet2.rpow(u, 1.0 - params.z - n) * gval


def diffusion_gcallback(params):
    """The callback that makes :func:`general_residual` reproduce
    :func:`diffusion_residual`."""
    coeff = 2.0 - params.z - params.spatial_dim

    def g(grads, scaled_hess):
        out = 0.0
        for a in range(len(grads)):
            out += scaled_hess[a, a]
            if coeff != 0.0:
                out += coeff * grads[a] * grads[a]
        return out

    return g


def reduced_residuals(phi_jet, z):
    """Residuals of the two-equation system for a profile phi(w1, w2).

    first  = phi * (phi_11 + phi_22) - z * (phi_1**2 + phi_2**2)
    second = phi_11 * phi_22 - phi_12**2
    """
    if phi_jet.dim != 2:
        raise DimensionMismatch("reduced system expects a jet in 2 variables")
    v = phi_jet.value
    g = phi_jet.grad
    h = phi_jet.hess
    first = v * (h[0, 0] + h[1, 1]) - z * (g[0] * g[0] + g[1] * g[1])
    second = h[0, 0] * h[1, 1] - h[0, 1] * h[0, 1]
    return first, second


class HarmonicPhi:
    """Profile phi built from a holomorphic seed so that the first
    reduced equation vanishes identically.

    For a real-coefficient holomorphic f, the combination
    phi_tilde(w1, w2) = 2 Re f(w1 + i w2) is harmonic.  The profile is
    phi = phi_tilde ** (1 / (1 - z)) for z != 1 and phi = exp(phi_tilde)
    for z = 1; either way the first reduced residual is zero wherever
    the power is defined.  The second residual does not vanish in
    general.

    Supported seeds: ``poly`` and ``const`` profiles (real coefficients
    applied to powers of w), and ``exp`` profiles a*exp(b*w).  ``sin``
    seeds are rejected.
    """

    def __init__(self, f, g, z):
        if not isinstance(f, ProfileFunction):
            raise TypeError("f must be a ProfileFunction")
        if f != g:
            raise DomainError(
                "conjugate symmetry requires the two seeds to coincide"
            )
        if f.kind == "sin":
            raise DomainError("sin seeds do not keep real coefficients")
        self.f = f
        self.z = float(z)

    def harmonic_jet(self, w1_jet, w2_jet):
        """Jet of 2*Re f(w1 + i w2) in the (w1, w2) variables."""
        f = self.f
        if f.kind == "const":
            return jet2.constant(w1_jet.dim, 2.0 * f.params[0])
        if f.kind == "exp":
            a, b = f.params
            # 2 a e^{b w1} cos(b w2)
            amp = jet2.exp(b * w1_jet) * (2.0 * a)
            return amp * jet2.cos(b * w2_jet)
        # poly: accumulate Re(w^k), Im(w^k) by the real recurrence.
        total = jet2.constant(w1_jet.dim, 0.0)
        re = jet2.constant(w1_jet.dim, 1.0)
        im = jet2.constant(w1_jet.dim, 0.0)
        for c in f.params:
            if c != 0.0:
                total = total + (2.0 * c) * re
            re, im = re * w1_jet - im * w2_jet, re * w2_jet + im * w1_jet
        return total

    def jet(self, w1_jet, w2_jet):
        tilde = self.harmonic_jet(w1_jet, w2_jet)
        if self.z == 1.0:
            return jet2.exp(tilde)
        return jet2.power(tilde, 1.0 / (1.0 - self.z))

    def at(self, w1_val, w2_val):
        """Jet of phi at a concrete (w1, w2) point."""
        return self.jet(jet2.seed(2, 0, w1_val), jet2.seed(2, 1, w2_val))


def evaluate_residual(kind, jet, params, g=None):
    """Dispatch a residual of a field jet by kind."""
    if kind is ResidualKind.DIFFUSION:
        return diffusion_residual(jet, params)
    if kind is ResidualKind.MONGE_AMPERE:
        return monge_ampere(jet, params)
    if kind is ResidualKind.GENERAL_INVARIANT:
        if g is None:
            raise ValueError("general-invariant residual needs a callback g")
        return general_residual(jet, params, g)
    raise ValueError(f"{kind!r} is not a residual of a field jet")


def residual_scale(kind, jet, params):
    """Normalization (1 + max |matrix entry|) ** size for the kind's matrix."""
    if kind in (ResidualKind.REDUCED_FIRST, ResidualKind.REDUCED_SECOND):
        if jet.dim != 2:
            raise DimensionMismatch("reduced system expects a 2-variable jet")
        entries = max(
            abs(jet.value), float(np.max(np.abs(jet.grad))),
            float(np.max(np.abs(jet.hess))),
        )
        size = 2
    elif kind is ResidualKind.MONGE_AMPERE:
        entries = float(np.max(np.abs(jet.hess[1:, 1:])))
        size = params.spatial_dim
    else:
        entries = float(np.max(np.abs(w1_matrix(jet))))
        size = params.spatial_dim + 1
    return (1.0 + entries) ** size


__all__ = [
    "ResidualKind",
    "w1_matrix",
    "w1",
    "monge_ampere",
    "diffusion_residual",
    "general_residual",
    "diffusion_gcallback",
    "reduced_residuals",
    "HarmonicPhi",
    "evaluate_residual",
    "residual_scale",
]
