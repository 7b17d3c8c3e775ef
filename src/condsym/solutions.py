"""Catalog of closed-form solution families.

Each family is an immutable record that owns its facts: ``spatial_dim``
(the N it lives in), ``z`` (the exponent it needs, ``None`` when any z
is admissible), ``designated`` (the residual kinds it must annihilate
on its default grid) and ``jet`` (its second-order jet over arbitrary
coordinate jets).  ``default_params`` and ``default_grid`` give the
canonical verification setup.

Domain guards (radicands, sector boundaries, coordinate poles) raise
DomainError so that grid runners can count exclusions.
"""

from dataclasses import dataclass

from . import jet2
from .errors import DimensionMismatch, DomainError, ZeroDynamicalExponent
from .fields import ModelParams, ProfileFunction, ScalarField
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
    if r2.value <= _R2_FLOOR:
        raise DomainError("too close to the profile axis r = 0")
    theta = jet2.atan2_jet(yj, xj)
    arg = jet2.cos((1.0 - z) * theta)
    if arg.value <= _COS_FLOOR:
        raise DomainError("outside the sector cos((1-z)*theta) > 0")
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
    z = None
    designated = _DIFFUSION

    q: ProfileFunction

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
        if r2.value <= _R2_FLOOR:
            raise DomainError("too close to the profile axis r = 0")
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
        if abs(x2.value) <= _COORD_FLOOR:
            raise DomainError("ratio argument pole at x2 = 0")
        ratio = jet2.div(x1, x2)
        rad = self.psi.jet(ratio) * x1 * x1 - (2.0 * jt) * (x1 * x1 + x2 * x2)
        if rad.value < _RADICAND_FLOOR:
            raise DomainError("negative radicand")
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
class RatioPolynomial:
    """Polynomial in several ratio variables, given as explicit terms
    ((exponents...), coefficient)."""

    n_vars: int
    terms: tuple

    def __post_init__(self):
        norm = []
        for exps, coeff in self.terms:
            exps = tuple(int(e) for e in exps)
            if len(exps) != self.n_vars or any(e < 0 for e in exps):
                raise DimensionMismatch(
                    f"term exponents {exps} do not fit {self.n_vars} variables"
                )
            norm.append((exps, float(coeff)))
        object.__setattr__(self, "terms", tuple(norm))

    def jet(self, args):
        args = list(args)
        if len(args) != self.n_vars:
            raise DimensionMismatch(
                f"expected {self.n_vars} arguments, got {len(args)}"
            )
        d = args[0].dim
        total = jet2.constant(d, 0.0)
        for exps, coeff in self.terms:
            term = jet2.constant(d, coeff)
            for e, a in zip(exps, args):
                for _ in range(e):
                    term = jet2.mul(term, a)
            total = jet2.add(total, term)
        return total


@dataclass(frozen=True)
class MAOnly:
    """u = x1 * phi(x1/x2, ..., x1/xN): homogeneous of degree one, so the
    spatial Hessian is singular; N >= 2, any z."""

    z = None
    designated = (ResidualKind.MONGE_AMPERE,)

    spatial_dim: int
    phi: ProfileFunction | RatioPolynomial  # a ProfileFunction covers N = 2

    def __post_init__(self):
        if self.spatial_dim < 2:
            raise DimensionMismatch("needs at least two spatial dimensions")
        n_ratio = self.spatial_dim - 1
        if isinstance(self.phi, RatioPolynomial):
            if self.phi.n_vars != n_ratio:
                raise DimensionMismatch(
                    f"phi takes {self.phi.n_vars} ratios, need {n_ratio}"
                )
        elif isinstance(self.phi, ProfileFunction):
            if n_ratio != 1:
                raise DimensionMismatch(
                    "a ProfileFunction phi only covers N = 2"
                )
        else:
            raise TypeError("phi must be a ProfileFunction or RatioPolynomial")

    def jet(self, jt, jx):
        x1 = jx[0]
        ratios = []
        for other in jx[1:]:
            if abs(other.value) <= _COORD_FLOOR:
                raise DomainError("ratio argument pole at x_j = 0")
            ratios.append(jet2.div(x1, other))
        if isinstance(self.phi, RatioPolynomial):
            phi_jet = self.phi.jet(ratios)
        else:
            phi_jet = self.phi.jet(ratios[0])
        return jet2.mul(x1, phi_jet)


def _check_family(fam, params):
    if params.spatial_dim != fam.spatial_dim:
        raise DimensionMismatch(
            f"{type(fam).__name__} needs N = {fam.spatial_dim}, params have "
            f"N = {params.spatial_dim}"
        )
    if fam.z is not None and params.z != fam.z:
        raise ValueError(
            f"{type(fam).__name__} needs z = {fam.z}, params have "
            f"z = {params.z}"
        )


def evaluate_solution(fam, params, point):
    """Full second-order jet of the family at a point."""
    _check_family(fam, params)
    if len(point.x) != params.spatial_dim:
        raise DimensionMismatch(
            f"point has {len(point.x)} spatial coordinates, expected "
            f"{params.spatial_dim}"
        )
    d = params.jet_dim
    jt = jet2.seed(d, 0, point.t)
    jx = [jet2.seed(d, 1 + i, v) for i, v in enumerate(point.x)]
    return fam.jet(jt, jx)


class SolutionField(ScalarField):
    """ScalarField adapter around a solution family."""

    def __init__(self, family):
        self.family = family

    def evaluate(self, params, point):
        return evaluate_solution(self.family, params, point)

    def __repr__(self):
        return f"SolutionField({self.family!r})"


def ansatz_profile(fam):
    """The scale-invariant profile phi(w1, w2) of a conical family.

    Evaluating the family along x = w * t**((n+1)/z) and stripping the
    prefactor t**((n+1)/z) leaves a time-independent profile; it is
    recovered here at t = 1.  Returns an object with ``at(w1, w2)``
    giving the dim-2 jet in the profile variables.
    """
    if not isinstance(fam, GeneralZ):
        raise TypeError("the ansatz profile applies to the general-z family")

    class _Profile:
        def at(self, w1, w2):
            xj = jet2.seed(2, 0, w1) + fam.e1
            yj = jet2.seed(2, 1, w2) + fam.e2
            return _conical(fam.c, fam.z, xj, yj)

    return _Profile()


def default_params(fam, z=None):
    """Canonical ModelParams for a family; ``z`` overrides where free."""
    need_z = fam.z
    if need_z is None:
        need_z = 2.0 if z is None else float(z)
    elif z is not None and float(z) != need_z:
        raise ValueError(
            f"{type(fam).__name__} fixes z = {need_z}; cannot use z = {z}"
        )
    return ModelParams(spatial_dim=fam.spatial_dim, z=need_z)


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
        phi=RatioPolynomial(
            n_vars=2,
            terms=(
                ((0, 0), 1.0),
                ((1, 0), 1.0),
                ((1, 1), 1.0),
                ((0, 2), 0.5),
            ),
        ),
    ),
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
    "RatioPolynomial",
    "MAOnly",
    "evaluate_solution",
    "SolutionField",
    "ansatz_profile",
    "default_params",
    "default_grid",
    "DEFAULT_FAMILIES",
]
