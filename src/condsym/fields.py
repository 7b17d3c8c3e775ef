"""Scalar fields over (t, x_1..x_N) and time profiles.

Coordinate order everywhere is ``(t, x_1, ..., x_N)``: index 0 of a jet
is the time slot, indices 1..N the spatial slots.

A :class:`ScalarField` writes one method, ``evaluate_many(params,
coords)``: one row (N + 1,) of coordinates gives an unbatched jet, rows
(P, N + 1) a batch with a leading point axis.  ``evaluate(params,
point)`` is the base class's reading of it at a :class:`Point`, and
``values_many(params, coords)`` the values alone, which a field may
compute without the derivatives.  Every library field writes
``evaluate_many``; the base's default of it, which calls an ``evaluate``
once per row, serves only test doubles and the benchmark's controls.
"""

import itertools
import math
from dataclasses import dataclass

import numpy as np

from . import jet2
from ._kernels import poly_jet, poly_value
from .errors import DimensionMismatch

_PROFILE_ARITY = {"poly": None, "exp": 2, "sin": 3, "const": 1}


def integral(record, *names):
    """Store the fields ``names`` of the frozen dataclass ``record`` as
    ints: the one rule for every integer label and dimension.  An integral
    float is taken; any other value raises ValueError."""
    for name in names:
        value = getattr(record, name)
        try:
            whole = int(value)
        except (OverflowError, ValueError):  # inf, NaN
            whole = None
        if whole != value:
            raise ValueError(f"{name} must be an integer")
        object.__setattr__(record, name, whole)


@dataclass(frozen=True)
class ModelParams:
    """Problem parameters: spatial dimension N >= 1 and exponent z."""

    spatial_dim: int
    z: float

    def __post_init__(self):
        integral(self, "spatial_dim")
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


class ScalarField:
    """Anything that yields a second-order jet at space-time points.  A
    subclass defines ``evaluate_many``, which refuses coordinates of the
    wrong shape (:func:`check_coords`), or else ``evaluate`` alone, whose
    error at any row then fails the whole batch.  It may also define
    ``values_many``, for callers that read values only, which must give
    bit for bit the values of ``evaluate_many`` and raise where it raises.
    The bare base is no field and cannot be built."""

    def __new__(cls, *args, **kwargs):
        if cls is ScalarField:
            raise TypeError("ScalarField is a base class; a field subclasses it")
        return super().__new__(cls)

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        if (cls.evaluate is ScalarField.evaluate
                and cls.evaluate_many is ScalarField.evaluate_many):
            raise TypeError(f"{cls.__name__} defines neither evaluate nor evaluate_many")

    def evaluate(self, params, point):
        """The unbatched Jet2 of the field at ``point``, in dim N + 1; a
        point of the wrong dimension is refused by ``evaluate_many``."""
        return self.evaluate_many(params, point.coords())

    def evaluate_many(self, params, coords):
        """The Jet2 of the field at ``coords``: one row (N + 1,) gives an
        unbatched jet, rows (P, N + 1) a batch.

        This default calls :meth:`evaluate` once per row, in row order (no
        rows give an empty batch).  It serves only fields that define
        ``evaluate`` alone, such as test doubles and the benchmark's
        negative controls.  An error from a row propagates as raised and
        names no rows, so a scan sets aside every row left in the batch.
        """
        coords = check_coords(params, coords)
        if coords.ndim == 1:
            return self.evaluate(params, Point(coords[0], tuple(coords[1:])))
        if not len(coords):
            return jet2.constant(params.jet_dim, np.empty(0))
        jets = [self.evaluate(params, Point(row[0], tuple(row[1:]))) for row in coords]
        return jet2.Jet2(
            [j.value for j in jets], [j.grad for j in jets], [j.hess for j in jets]
        )

    def values_many(self, params, coords):
        """The values of the field at ``coords``: a float for one row
        (N + 1,), a (P,) array for rows (P, N + 1).

        This default reads them off :meth:`evaluate_many`; a field that can
        skip the derivatives overrides it.
        """
        return self.evaluate_many(params, coords).value


def check_coords(params, coords):
    """``coords`` as a float array, or :class:`DimensionMismatch` unless
    its shape is one row (N + 1,) or rows (P, N + 1)."""
    try:
        coords = np.asarray(coords, dtype=float)
    except ValueError as exc:  # rows of unequal lengths
        raise DimensionMismatch(f"coords do not form an array: {exc}") from None
    if coords.ndim not in (1, 2) or coords.shape[-1] != params.jet_dim:
        raise DimensionMismatch(
            f"coords have shape {coords.shape}, expected ({params.jet_dim},) "
            f"or (P, {params.jet_dim})"
        )
    return coords


@dataclass(frozen=True)
class ProfileFunction:
    """A smooth function of time with closed-form derivatives.

    kind / params:
      ``poly``  coefficients low to high: c0 + c1*t + c2*t**2 + ...
      ``exp``   (a, b) for a*exp(b*t)
      ``sin``   (a, b, c) for a*sin(b*t + c)
      ``const`` (c,)
    """

    dim = 1  # a function of one argument

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
        if self.kind == "exp":
            a, b = p
            e = a * jet2.mexp(b * t)
            return e, b * e, b * b * e
        if self.kind == "sin":
            a, b, c = p
            s = np.sin(b * t + c)
            co = np.cos(b * t + c)
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
        return self.kind + ":" + ",".join(fmt_num(v) for v in self.params)


def _horner(coeffs, t):
    out = 0.0
    for c in reversed(coeffs):
        out = out * t + c
    return out


def fmt_num(v):
    """Spec text of a number: ``2`` for 2.0, ``repr`` of the float otherwise."""
    return repr(int(v)) if float(v) == int(v) else repr(float(v))


def parse_profile(text):
    """Parse ``kind:p1,p2,...`` into a :class:`ProfileFunction`."""
    kind, sep, rest = text.partition(":")
    if not sep or not rest:
        raise ValueError(f"bad profile spec {text!r}, expected kind:params")
    try:
        params = tuple(parse_finite(tok) for tok in rest.split(","))
    except ValueError as exc:
        raise ValueError(f"bad profile parameters in {text!r}: {exc}") from None
    return ProfileFunction(kind, params)


def parse_finite(text):
    """``float(text)``, refusing a number that is not finite."""
    number = float(text)
    if not math.isfinite(number):
        raise ValueError(f"{text!r} is not finite")
    return number


# the graded order 1, r1, r2, r1**2, r1*r2, r2**2, ... of ``poly2``
_POLY2_EXPONENTS = tuple((d - j, j) for d in range(4) for j in range(d + 1))
_POLY2_SIZES = (1, 3, 6, 10)


@dataclass(frozen=True)
class PolynomialFunction:
    """Polynomial ``sum_m coeffs[m] * prod_i y_i**powers[m][i]``.

    ``powers`` holds the exponent rows (M rows of ``dim`` non-negative
    integers), ``coeffs`` the matching coefficients.  ``jet`` chains the
    polynomial through jets of its arguments by jet arithmetic; ``at``
    evaluates it at plain coordinates through the ``poly_jet`` kernel.
    """

    powers: tuple
    coeffs: tuple

    def __post_init__(self):
        powers = np.array(self.powers, dtype=np.int64)
        coeffs = np.array(self.coeffs, dtype=float)
        if powers.ndim != 2 or coeffs.shape != (powers.shape[0],):
            raise DimensionMismatch("powers must be (M, dim), coeffs (M,)")
        if (powers < 0).any():
            raise ValueError("exponents must be non-negative")
        object.__setattr__(self, "powers", tuple(map(tuple, powers.tolist())))
        object.__setattr__(self, "coeffs", tuple(coeffs.tolist()))
        object.__setattr__(self, "_arrays", (powers, coeffs))

    @property
    def dim(self):
        return self._arrays[0].shape[1]

    def jet(self, *args):
        """Chain the polynomial through ``dim`` argument jets, unbatched or
        batched: each term is its float coefficient times its factors, and
        the terms are added in row order starting from 0.0."""
        if len(args) != self.dim:
            raise DimensionMismatch(f"expected {self.dim} arguments, got {len(args)}")
        total = 0.0
        for exps, coeff in zip(self.powers, self.coeffs):
            term = coeff
            for e, a in zip(exps, args):
                for _ in range(e):
                    term = term * a
            total = total + term
        return total if isinstance(total, jet2.Jet2) else jet2.constant(args[0].dim, total)

    def at(self, coords):
        """The jet in the ``dim`` coordinate slots at ``coords``, one point
        (dim,) or rows (P, dim), by one call of the kernel."""
        return jet2.Jet2(*poly_jet(*self._arrays, self._checked(coords)))

    def value_at(self, coords):
        """``at(coords).value``, bit for bit, by the value kernel alone."""
        return poly_value(*self._arrays, self._checked(coords))

    def _checked(self, coords):
        coords = np.asarray(coords, dtype=float)
        if coords.ndim not in (1, 2) or coords.shape[-1:] != (self.dim,):
            raise DimensionMismatch(
                f"expected {self.dim} coordinates, got shape {coords.shape}"
            )
        return coords

    def spec(self):
        """Canonical ``poly2:`` text accepted by :func:`parse_poly2`.

        Raises ValueError for a term that ``poly2`` cannot hold.
        """
        values = dict.fromkeys(_POLY2_EXPONENTS, 0.0)
        for exps, coeff in zip(self.powers, self.coeffs):
            if exps not in values:
                raise ValueError(
                    f"poly2 cannot hold the term with exponents {exps}: it "
                    "takes two variables up to degree 3"
                )
            values[exps] += coeff
        values = list(values.values())
        size = next(s for s in _POLY2_SIZES if all(v == 0.0 for v in values[s:]))
        return "poly2:" + ",".join(fmt_num(v) for v in values[:size])


def parse_poly2(text):
    """Parse ``poly2:c1,c2,...``, the coefficients of a polynomial in two
    variables in graded order, into a :class:`PolynomialFunction` of its
    nonzero terms."""
    body = text.removeprefix("poly2:")
    try:
        coeffs = [parse_finite(tok) for tok in body.split(",")]
    except ValueError as exc:
        raise ValueError(f"bad poly2 coefficients {body!r}: {exc}") from None
    if len(coeffs) not in _POLY2_SIZES:
        raise ValueError(
            f"poly2 takes {_POLY2_SIZES} coefficients (graded order), "
            f"got {len(coeffs)}"
        )
    terms = [(e, c) for e, c in zip(_POLY2_EXPONENTS, coeffs) if c != 0.0]
    return PolynomialFunction(*zip(*terms or [((0, 0), 0.0)]))


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
    """Seeded random polynomial in ``dim`` variables, coefficients in
    ±bound; the bound must be positive and finite."""
    if not 0.0 < 2.0 * coeff_bound < math.inf:
        raise ValueError(f"coefficient bound {coeff_bound!r} is out of range")
    if degree < 0:
        raise ValueError(f"polynomial degree {degree!r} is negative")
    powers = monomial_table(dim, degree)
    rng = np.random.default_rng(seed)
    coeffs = rng.uniform(-coeff_bound, coeff_bound, powers.shape[0])
    return PolynomialFunction(powers, coeffs)


@dataclass(frozen=True)
class RandomPolynomialField(ScalarField):
    """Random polynomial in (t, x_1..x_N) with reproducible coefficients."""

    seed: int
    params: ModelParams
    degree: int
    coeff_bound: float = 1.0

    def __post_init__(self):
        integral(self, "seed", "degree")
        object.__setattr__(self, "coeff_bound", float(self.coeff_bound))
        object.__setattr__(self, "_poly", random_polynomial_function(
            self.seed, self.params.jet_dim, self.degree, self.coeff_bound
        ))

    def evaluate_many(self, params, coords):
        """One row or rows of ``coords`` by one call of the ``poly_jet`` kernel."""
        return self._poly.at(self._coords(params, coords))

    def values_many(self, params, coords):
        """The values alone, by one call of the ``poly_value`` kernel."""
        return self._poly.value_at(self._coords(params, coords))

    def _coords(self, params, coords):
        if params.spatial_dim != self.params.spatial_dim:
            raise DimensionMismatch(
                f"field built for N={self.params.spatial_dim}, params have "
                f"N={params.spatial_dim}"
            )
        return check_coords(params, coords)


__all__ = [
    "integral",
    "ModelParams",
    "Point",
    "ScalarField",
    "check_coords",
    "ProfileFunction",
    "parse_finite",
    "parse_profile",
    "PolynomialFunction",
    "parse_poly2",
    "monomial_table",
    "random_polynomial_function",
    "RandomPolynomialField",
]
