"""Catalog of closed-form solution families.

Each family is an immutable record that owns its facts: ``spatial_dim``
(the N it lives in), ``z`` (its exponent: a field where z is free),
``designated`` (the residual kinds it must annihilate on its default
grid) and ``jet`` (its second-order jet over arbitrary coordinate jets).
``default_params`` and ``default_grid`` give the canonical verification
setup.

Every ``jet`` takes unbatched or batched coordinate jets alike, so
:class:`SolutionField` seeds the jets of one row (floats) or of rows (a
batch) and calls it once, through the same numpy code; for values alone
it passes jets in no variables through the same ``jet``.
Domain guards (radicands, sector boundaries, coordinate poles) go through
``jet2.guard`` and raise DomainError if any point is outside, so that
grid runners can count exclusions.
"""

from dataclasses import dataclass

from . import jet2
from .errors import DimensionMismatch, ZeroDynamicalExponent
from .fields import (
    ModelParams,
    PolynomialFunction,
    ProfileFunction,
    ScalarField,
    check_coords,
)
from .operators import ResidualKind
from .verify import GridSpec

_R2_FLOOR = 1e-12  # squared-radius floor (r > 1e-6)
_COS_FLOOR = 1e-6
_RADICAND_FLOOR = 1e-10
_COORD_FLOOR = 1e-12

_DIFFUSION = (ResidualKind.DIFFUSION,)
_BOTH = (ResidualKind.DIFFUSION, ResidualKind.MONGE_AMPERE)


def _check_positive_c(fam):
    if fam.c <= 0.0:
        raise ValueError("c must be positive")


def _normalize_n(fam):
    if fam.n != int(fam.n):
        raise ValueError("n must be an integer")
    object.__setattr__(fam, "n", int(fam.n))


def _normalize_conical_z(fam):
    object.__setattr__(fam, "z", float(fam.z))
    if fam.z == 0.0:
        raise ZeroDynamicalExponent("this family needs z != 0")
    if fam.z == 1.0:
        raise ValueError("z = 1 belongs to the radial family")


def _power_shift(jt, e1, e2, n, z, jx):
    """Apply X_a = x_a + e_a * t**((n+1)/z) to the two spatial jets."""
    expo = (n + 1.0) / z
    out = list(jx)
    for i, coeff in enumerate((e1, e2)):
        if coeff != 0.0:
            out[i] = out[i] + coeff * jet2.power(jt, expo)
    return out


def _conical(c, z, xj, yj):
    """2c * r * cos((1-z)*theta)**(1/(1-z)) over shifted coordinates."""
    r2 = xj * xj + yj * yj
    jet2.guard(r2.value <= _R2_FLOOR, "too close to the profile axis r = 0")
    theta = jet2.atan2_jet(yj, xj)
    arg = jet2.cos((1.0 - z) * theta)
    jet2.guard(arg.value <= _COS_FLOOR, "outside the sector cos((1-z)*theta) > 0")
    r = jet2.sqrt(r2)
    return (2.0 * c) * r * jet2.power(arg, 1.0 / (1.0 - z))


@dataclass(frozen=True)
class OneDimZ0:
    """u = c * x * exp(-t) + q(t); N = 1, z = 0."""

    spatial_dim = 1
    z = 0.0
    designated = _DIFFUSION

    c: float
    q: ProfileFunction

    def jet(self, jt, jx):
        return self.c * jx[0] * jet2.exp(-1.0 * jt) + self.q.jet(jt)


@dataclass(frozen=True)
class OneDimZ1:
    """u = c * x + q(t); N = 1, z = 1."""

    spatial_dim = 1
    z = 1.0
    designated = _DIFFUSION

    c: float
    q: ProfileFunction

    def jet(self, jt, jx):
        return self.c * jx[0] + self.q.jet(jt)


@dataclass(frozen=True)
class OneDimGeneric:
    """u = q(t); N = 1, any z (q > 0 where exponents are fractional)."""

    spatial_dim = 1
    designated = _DIFFUSION

    q: ProfileFunction
    z: float = 2.0

    def jet(self, jt, jx):
        return self.q.jet(jt)


@dataclass(frozen=True)
class RadialZ1:
    """u = c * sqrt(X**2 + Y**2) with power-law shifts; N = 2, z = 1."""

    spatial_dim = 2
    z = 1.0
    designated = _BOTH

    c: float
    e1: float
    e2: float
    n: int

    def __post_init__(self):
        _check_positive_c(self)
        _normalize_n(self)

    def jet(self, jt, jx):
        sx = _power_shift(jt, self.e1, self.e2, self.n, 1.0, jx)
        r2 = sx[0] * sx[0] + sx[1] * sx[1]
        jet2.guard(r2.value <= _R2_FLOOR, "too close to the profile axis r = 0")
        return self.c * jet2.sqrt(r2)


@dataclass(frozen=True)
class GeneralZ:
    """u = 2c * r * cos((1-z)*theta)**(1/(1-z)) with power-law shifts.

    theta is the principal polar angle of (X, Y); N = 2, z not in {0, 1}.
    """

    spatial_dim = 2
    designated = _BOTH

    c: float
    e1: float
    e2: float
    n: int
    z: float

    def __post_init__(self):
        _check_positive_c(self)
        _normalize_n(self)
        _normalize_conical_z(self)

    def jet(self, jt, jx):
        sx = _power_shift(jt, self.e1, self.e2, self.n, self.z, jx)
        return _conical(self.c, self.z, sx[0], sx[1])


@dataclass(frozen=True)
class Z0Sqrt:
    """u = sqrt(psi(x1/x2) * x1**2 - 2t * (x1**2 + x2**2)); N = 2, z = 0."""

    spatial_dim = 2
    z = 0.0
    designated = _BOTH

    psi: ProfileFunction

    def jet(self, jt, jx):
        x1, x2 = jx
        jet2.guard(abs(x2.value) <= _COORD_FLOOR, "ratio argument pole at x2 = 0")
        ratio = jet2.div(x1, x2)
        rad = self.psi.jet(ratio) * x1 * x1 - (2.0 * jt) * (x1 * x1 + x2 * x2)
        jet2.guard(rad.value < _RADICAND_FLOOR, "negative radicand")
        return jet2.sqrt(rad)


@dataclass(frozen=True)
class Z0Linear:
    """u = x1 * psi1(t) + x2 * psi2(t); N = 2, z = 0."""

    spatial_dim = 2
    z = 0.0
    designated = _BOTH

    psi1: ProfileFunction
    psi2: ProfileFunction

    def jet(self, jt, jx):
        return jx[0] * self.psi1.jet(jt) + jx[1] * self.psi2.jet(jt)


@dataclass(frozen=True)
class GeneralYphi:
    """The conical profile with arbitrary smooth time shifts.

    u = 2c * r * cos((1-z)*theta)**(1/(1-z)) over X = x1 + e1*phi1(t),
    Y = x2 + e2*phi2(t); N = 2, z not in {0, 1}.
    """

    spatial_dim = 2
    designated = _BOTH

    c: float
    e1: float
    e2: float
    z: float
    phi1: ProfileFunction
    phi2: ProfileFunction

    def __post_init__(self):
        _check_positive_c(self)
        _normalize_conical_z(self)

    def jet(self, jt, jx):
        xj = jx[0] + self.e1 * self.phi1.jet(jt)
        yj = jx[1] + self.e2 * self.phi2.jet(jt)
        return _conical(self.c, self.z, xj, yj)


@dataclass(frozen=True)
class MAOnly:
    """u = x1 * phi(x1/x2, ..., x1/xN): homogeneous of degree one, so the
    spatial Hessian is singular; N >= 2, any z.  phi takes the N - 1
    ratios: a profile covers N = 2, a polynomial any N."""

    designated = (ResidualKind.MONGE_AMPERE,)

    spatial_dim: int
    phi: ProfileFunction | PolynomialFunction
    z: float = 2.0

    def __post_init__(self):
        if self.spatial_dim < 2:
            raise DimensionMismatch("needs at least two spatial dimensions")
        if self.phi.dim != self.spatial_dim - 1:
            raise DimensionMismatch(
                f"phi takes {self.phi.dim} ratios, need {self.spatial_dim - 1}"
            )

    def jet(self, jt, jx):
        x1 = jx[0]
        ratios = []
        for other in jx[1:]:
            jet2.guard(
                abs(other.value) <= _COORD_FLOOR, "ratio argument pole at x_j = 0"
            )
            ratios.append(jet2.div(x1, other))
        return x1 * self.phi.jet(*ratios)


@dataclass(frozen=True)
class Stationary:
    """u = h(x)**(1/(1-z)), or exp(h) at z = 1, with h = 2 Re f(x1 + i x2)
    harmonic; N = 2, any z.

    u_t = 0 empties W1's first column, and the right side of the diffusion
    residual is Laplacian(h) / (1 - z) (Laplacian(h) at z = 1), so u solves
    it wherever the power is defined.  MA vanishes only where u is affine.
    The seed f is a real ``poly``, ``const`` or ``exp`` (a*exp(b*w)).
    """

    spatial_dim = 2
    designated = _DIFFUSION

    f: ProfileFunction
    z: float = 2.0

    def __post_init__(self):
        if self.f.kind == "sin":
            raise ValueError("a sin seed is not supported; use poly, const or exp")

    def jet(self, jt, jx):
        x1, x2 = jx
        if self.f.kind == "exp":
            a, b = self.f.params
            h = (2.0 * a) * jet2.exp(b * x1) * jet2.cos(b * x2)
        else:
            # poly and const: Re and Im of w**k by the real recurrence, begun
            # from x1 so that a constant keeps the point axis of a batch
            h, re, im = 0.0 * x1, x1**0, 0.0 * x2
            for c in self.f.params:
                h = h + (2.0 * c) * re
                re, im = re * x1 - im * x2, re * x2 + im * x1
        if self.z == 1.0:
            return jet2.exp(h)
        return jet2.power(h, 1.0 / (1.0 - self.z))


def _check_family(fam, params):
    if params.spatial_dim != fam.spatial_dim:
        raise DimensionMismatch(
            f"{type(fam).__name__} needs N = {fam.spatial_dim}, params have "
            f"N = {params.spatial_dim}"
        )
    if params.z != fam.z:
        raise ValueError(
            f"{type(fam).__name__} needs z = {fam.z}, params have "
            f"z = {params.z}"
        )


class SolutionField(ScalarField):
    """ScalarField adapter around a solution family."""

    def __init__(self, family):
        self.family = family

    def evaluate_many(self, params, coords):
        """The family's jet over the seed jets of one row of ``coords``
        (floats), or of all its rows (columns of a batch)."""
        return self._jet(params, coords, params.jet_dim)

    def values_many(self, params, coords):
        """The family's values alone: its jet over coordinate jets in no
        variables, bit for bit the values of :meth:`evaluate_many`,
        through the same guards."""
        return self._jet(params, coords, 0).value

    def _jet(self, params, coords, dim):
        """The family's jet over the coordinate jets of ``coords`` in
        ``dim`` variables: the seeds of the N + 1 coordinates, or, in dim
        0, their values alone."""
        _check_family(self.family, params)
        jets = jet2.coordinates(dim, check_coords(params, coords))
        return self.family.jet(jets[0], jets[1:])

    def __repr__(self):
        return f"SolutionField({self.family!r})"


def default_params(fam):
    """The ModelParams a family is stated at: its N and its z."""
    return ModelParams(spatial_dim=fam.spatial_dim, z=fam.z)


def default_grid(fam):
    """Default verification grid (counts chosen so that every family
    keeps at least 1000 admissible points after domain exclusions)."""
    n = fam.spatial_dim
    if n == 1:
        return GridSpec((0.5, 2.0, 42), ((-1.0, 1.0, 42),))
    if n == 2:
        return GridSpec((0.5, 2.0, 12), ((-1.0, 1.0, 12),) * 2)
    return GridSpec((0.5, 2.0, 2), ((-1.0, 1.0, 12),) * n)


DEFAULT_FAMILIES = {
    "one-dim-z0": OneDimZ0(c=1.0, q=ProfileFunction("poly", (2.0, 1.0))),
    "one-dim-z1": OneDimZ1(c=0.5, q=ProfileFunction("poly", (2.0, 0.5))),
    "one-dim-generic": OneDimGeneric(q=ProfileFunction("poly", (1.0, 0.0, 1.0))),
    "radial-z1": RadialZ1(c=1.0, e1=0.5, e2=0.0, n=1),
    "general-z": GeneralZ(c=1.0, e1=1.0, e2=0.0, n=1, z=2.0),
    "z0-sqrt": Z0Sqrt(psi=ProfileFunction("const", (25.0,))),
    "z0-linear": Z0Linear(
        psi1=ProfileFunction("exp", (1.0, -1.0)),
        psi2=ProfileFunction("sin", (1.0, 2.0, 0.0)),
    ),
    "general-yphi": GeneralYphi(
        c=1.0,
        e1=0.4,
        e2=0.25,
        z=2.0,
        phi1=ProfileFunction("sin", (1.0, 1.0, 0.0)),
        phi2=ProfileFunction("const", (1.0,)),
    ),
    "ma-only": MAOnly(
        spatial_dim=3,
        phi=PolynomialFunction(
            powers=((0, 0), (1, 0), (1, 1), (0, 2)), coeffs=(1.0, 1.0, 1.0, 0.5)
        ),
    ),
    "stationary": Stationary(f=ProfileFunction("exp", (1.0, 0.5))),
}


__all__ = [
    "OneDimZ0",
    "OneDimZ1",
    "OneDimGeneric",
    "RadialZ1",
    "GeneralZ",
    "Z0Sqrt",
    "Z0Linear",
    "GeneralYphi",
    "MAOnly",
    "Stationary",
    "SolutionField",
    "default_params",
    "default_grid",
    "DEFAULT_FAMILIES",
]
