"""Scalar fields over (t, x_1..x_N) and time profiles.

Coordinate order everywhere is ``(t, x_1, ..., x_N)``: index 0 of a jet
is the time slot, indices 1..N the spatial slots.
"""

import abc
import itertools
from dataclasses import dataclass

import numpy as np

from . import jet2
from ._kernels import poly_jet
from .errors import DimensionMismatch
from .jet2 import Jet2

_PROFILE_ARITY = {"poly": None, "exp": 2, "sin": 3, "const": 1}


@dataclass(frozen=True)
class ModelParams:
    """Problem parameters: spatial dimension N >= 1 and exponent z."""

    spatial_dim: int
    z: float

    def __post_init__(self):
        if self.spatial_dim < 1:
            raise DimensionMismatch("spatial_dim must be at least 1")
        object.__setattr__(self, "z", float(self.z))

    @property
    def jet_dim(self):
        return self.spatial_dim + 1


@dataclass(frozen=True)
class Point:
    """A point (t, x) of the space-time domain."""

    t: float
    x: tuple

    def __post_init__(self):
        object.__setattr__(self, "t", float(self.t))
        object.__setattr__(self, "x", tuple(float(v) for v in self.x))

    def coords(self):
        return np.array((self.t,) + self.x)


class ScalarField(abc.ABC):
    """Anything that yields a second-order jet at a space-time point."""

    @abc.abstractmethod
    def evaluate(self, params, point):
        """Return the Jet2 of the field at ``point`` in dim N + 1."""

    def evaluate_many(self, params, coords):
        """Return the batched Jet2 of the field at the rows (t, x_1..x_N)
        of ``coords``, an array of shape (P, N + 1).

        This default stacks :func:`evaluate` row by row, in row order.
        """
        points = (Point(row[0], tuple(row[1:])) for row in coords)
        jets = [evaluate(self, params, p) for p in points]
        return Jet2(
            [j.value for j in jets],
            np.stack([j.grad for j in jets]),
            np.stack([j.hess for j in jets]),
        )


def check_point(params, point):
    """Raise :class:`DimensionMismatch` unless ``point`` has N spatial
    coordinates."""
    if len(point.x) != params.spatial_dim:
        raise DimensionMismatch(
            f"point has {len(point.x)} spatial coordinates, expected "
            f"{params.spatial_dim}"
        )


def evaluate(field, params, point):
    """Evaluate ``field`` after validating dimensions."""
    check_point(params, point)
    jet = field.evaluate(params, point)
    if jet.dim != params.jet_dim:
        raise DimensionMismatch(
            f"field returned dim {jet.dim}, expected {params.jet_dim}"
        )
    return jet


@dataclass(frozen=True)
class ProfileFunction:
    """A smooth function of time with closed-form derivatives.

    kind / params:
      ``poly``  coefficients low to high: c0 + c1*t + c2*t**2 + ...
      ``exp``   (a, b) for a*exp(b*t)
      ``sin``   (a, b, c) for a*sin(b*t + c)
      ``const`` (c,)
    """

    kind: str
    params: tuple

    def __post_init__(self):
        if self.kind not in _PROFILE_ARITY:
            raise ValueError(f"unknown profile kind {self.kind!r}")
        object.__setattr__(self, "params", tuple(float(v) for v in self.params))
        arity = _PROFILE_ARITY[self.kind]
        if arity is None:
            if not self.params:
                raise ValueError("poly profile needs at least one coefficient")
        elif len(self.params) != arity:
            raise ValueError(
                f"profile kind {self.kind!r} takes {arity} parameters, "
                f"got {len(self.params)}"
            )

    def __call__(self, t):
        """Return (value, first derivative, second derivative) at ``t``, a
        float or an array of times."""
        p = self.params
        if self.kind == "const":
            return p[0], 0.0, 0.0
        m = jet2.mathlib(t)
        if self.kind == "exp":
            a, b = p
            e = a * m.exp(b * t)
            return e, b * e, b * b * e
        if self.kind == "sin":
            a, b, c = p
            s = m.sin(b * t + c)
            co = m.cos(b * t + c)
            return a * s, a * b * co, -a * b * b * s
        value = _horner(p, t)
        d1 = _horner([i * c for i, c in enumerate(p)][1:], t)
        d2 = _horner([i * (i - 1) * c for i, c in enumerate(p)][2:], t)
        return value, d1, d2

    def jet(self, t_jet):
        """Chain the profile through a jet of its argument, unbatched or
        batched."""
        f0, f1, f2 = self(t_jet.value)
        return jet2.univariate(t_jet, f0, f1, f2)

    def spec(self):
        """Canonical text form accepted by :func:`parse_profile`."""
        return self.kind + ":" + ",".join(_fmt(v) for v in self.params)


def _horner(coeffs, t):
    out = 0.0
    for c in reversed(coeffs):
        out = out * t + c
    return out


def _fmt(v):
    return repr(int(v)) if v == int(v) else repr(v)


def parse_profile(text):
    """Parse ``kind:p1,p2,...`` into a :class:`ProfileFunction`."""
    kind, sep, rest = text.partition(":")
    if not sep or not rest:
        raise ValueError(f"bad profile spec {text!r}, expected kind:params")
    try:
        params = tuple(float(tok) for tok in rest.split(","))
    except ValueError as exc:
        raise ValueError(f"bad profile parameters in {text!r}") from exc
    return ProfileFunction(kind, params)


class PolynomialFunction:
    """Multivariate polynomial with explicit monomial table.

    ``powers`` is an (M, dim) integer array of exponents, ``coeffs`` the
    matching coefficients.  Evaluation runs through ``poly_jet``.
    """

    def __init__(self, powers, coeffs):
        powers = np.array(powers, dtype=np.int64)
        coeffs = np.array(coeffs, dtype=float)
        if powers.ndim != 2 or coeffs.shape != (powers.shape[0],):
            raise DimensionMismatch("powers must be (M, dim), coeffs (M,)")
        powers.flags.writeable = False
        coeffs.flags.writeable = False
        self.powers = powers
        self.coeffs = coeffs

    @property
    def dim(self):
        return self.powers.shape[1]

    def jet(self, coords):
        coords = np.asarray(coords, dtype=float)
        if coords.shape != (self.dim,):
            raise DimensionMismatch(
                f"expected {self.dim} coordinates, got shape {coords.shape}"
            )
        value, grad, hess = poly_jet(self.powers, self.coeffs, coords)
        return Jet2(value, grad, hess)


def monomial_table(dim, degree):
    """All exponent tuples of total degree <= degree, in a fixed order."""
    rows = [
        exps
        for exps in itertools.product(range(degree + 1), repeat=dim)
        if sum(exps) <= degree
    ]
    rows.sort()
    return np.array(rows, dtype=np.int64)


def random_polynomial_function(seed, dim, degree, coeff_bound=1.0):
    """Seeded random polynomial in ``dim`` variables."""
    powers = monomial_table(dim, degree)
    rng = np.random.default_rng(seed)
    coeffs = rng.uniform(-coeff_bound, coeff_bound, powers.shape[0])
    return PolynomialFunction(powers, coeffs)


class RandomPolynomialField(ScalarField):
    """Random polynomial in (t, x_1..x_N) with reproducible coefficients."""

    def __init__(self, seed, params, degree, coeff_bound=1.0):
        self.seed = int(seed)
        self.degree = int(degree)
        self.coeff_bound = float(coeff_bound)
        self.spatial_dim = params.spatial_dim
        self._poly = random_polynomial_function(
            self.seed, params.spatial_dim + 1, self.degree, self.coeff_bound
        )

    def evaluate(self, params, point):
        if params.spatial_dim != self.spatial_dim:
            raise DimensionMismatch(
                f"field built for N={self.spatial_dim}, params have "
                f"N={params.spatial_dim}"
            )
        return self._poly.jet(point.coords())

    def __repr__(self):
        return (
            f"RandomPolynomialField(seed={self.seed}, N={self.spatial_dim}, "
            f"degree={self.degree}, coeff_bound={self.coeff_bound!r})"
        )


__all__ = [
    "ModelParams",
    "Point",
    "ScalarField",
    "check_point",
    "evaluate",
    "ProfileFunction",
    "parse_profile",
    "PolynomialFunction",
    "monomial_table",
    "random_polynomial_function",
    "RandomPolynomialField",
]
