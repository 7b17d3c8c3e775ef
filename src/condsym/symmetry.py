"""Finite group transformations and the generator algebra.

Group elements act on space-time points and on scalar fields; algebra
generators are first-order vector fields over (t, x_1..x_N, u).  The
closed-form derivative transformation laws and the determinant identity
that this module checks are the quantitative heart of the package.

Each group element ``g`` writes its map once, as
``g.act(params, t, x) -> (t', x', A)``: the image of the point and the
factor A by which the field scales.  ``act`` runs on coordinate jets, of
one point or of a batch of rows.  On jets in no variables it moves points
(:func:`transform_point`, :func:`xn_transport`); on seed jets, under
``g.inverse()``, it gives the pullback of the pushforward field
(:class:`PushforwardField`, whose one composition step also serves
:func:`xn_transport`).  ``g.inverse()`` is the same element with its
parameter negated; ``g.check(params)`` rejects an element that does not
fit the spatial dimension N.

Each generator writes its vector field once, as
``gen.coeffs(params, y) -> (xi, dxi)``: the coefficients at the rows
y = (t, x_1..x_N, u) of a (P, N + 2) array and their Jacobians, which a
:func:`coefficients` table holds once per generator.
:func:`commutator_gap` compares the bracket of two such fields with the
structure-constant table of :func:`expected_commutator`, coefficient by
coefficient.

Conventions:

* ``Xn`` scales time, space and the field; its finite form is defined on
  the branch 1 - z*n*eps*t**n > 0 only.  The field picks up the factor
  A, the spatial scale.
* At z = 0 an ``Xn`` with n not in {-1, 0} acts as the time-preserving
  rescaling x' = x*exp(eps*t**n), factor exp(eps*t**n).
* ``Yk`` translates space by v_a * t**k with integer k.
* Generator coefficients use the weight-1 normalization throughout.
"""

import functools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple

import numpy as np

from . import jet2
from .errors import BranchError, DimensionMismatch
from .fields import Point, ProfileFunction, ScalarField, check_coords, integral
from .jet2 import Jet2
from .operators import monge_ampere, w1


# ---------------------------------------------------------------------------
# group elements

@dataclass(frozen=True)
class Xn:
    """Combined time/space/field scaling with integer label n."""

    n: int
    eps: float

    def __post_init__(self):
        integral(self, "n")
        object.__setattr__(self, "eps", float(self.eps))

    def inverse(self):
        return Xn(self.n, -self.eps)

    def check(self, params):
        """Xn acts in every spatial dimension."""

    def act(self, params, t, x):
        n, eps, z = self.n, self.eps, params.z
        if n == -1:
            return t + z * eps, tuple(x), 1.0
        if n == 0:
            a = math.exp(eps)
            return t * math.exp(z * eps), tuple(v * a for v in x), a
        if z == 0.0:
            a = jet2.exp(eps * jet2.power(t, n))
            return t, tuple(v * a for v in x), a
        s = 1.0 - z * n * eps * jet2.power(t, n)
        jet2.guard(
            s.value <= 0.0,
            "outside the small-parameter branch: 1 - z*n*eps*t^n <= 0",
            BranchError,
        )
        beta = (n + 1.0) / (z * n)
        a = jet2.power(s, -beta)
        return t * jet2.power(s, -1.0 / n), tuple(v * a for v in x), a


@dataclass(frozen=True)
class Yk:
    """Space translation by v_a * t**k, k integer."""

    k: int
    v: tuple[float, ...]

    def __post_init__(self):
        integral(self, "k")
        object.__setattr__(self, "v", tuple(float(c) for c in self.v))

    def inverse(self):
        return Yk(self.k, tuple(-c for c in self.v))

    def check(self, params):
        if len(self.v) != params.spatial_dim:
            raise DimensionMismatch("translation vector length must equal N")

    def act(self, params, t, x):
        shift = jet2.power(t, self.k)
        return t, tuple(v + c * shift for v, c in zip(x, self.v)), 1.0


@dataclass(frozen=True)
class Yphi:
    """Space translation by e_a * phi_a(t) with smooth profiles."""

    profiles: tuple[ProfileFunction, ...]
    e: tuple[float, ...]

    def __post_init__(self):
        object.__setattr__(self, "profiles", tuple(self.profiles))
        object.__setattr__(self, "e", tuple(float(c) for c in self.e))
        if len(self.profiles) != len(self.e):
            raise DimensionMismatch("profiles and e must have equal length")
        for p in self.profiles:
            if not isinstance(p, ProfileFunction):
                raise TypeError("profiles must be ProfileFunction instances")

    def inverse(self):
        return Yphi(self.profiles, tuple(-c for c in self.e))

    def check(self, params):
        if len(self.e) != params.spatial_dim:
            raise DimensionMismatch("shift vector length must equal N")

    def act(self, params, t, x):
        shifted = zip(x, self.e, self.profiles)
        return t, tuple(v + c * prof.jet(t) for v, c, prof in shifted), 1.0


@dataclass(frozen=True)
class Rot:
    """Rotation in the (x_a, x_b) plane; 1-based indices a < b."""

    a: int
    b: int
    angle: float

    def __post_init__(self):
        integral(self, "a", "b")
        object.__setattr__(self, "angle", float(self.angle))
        if self.a < 1 or self.b < 1 or self.a == self.b:
            raise DimensionMismatch("need distinct 1-based axes a != b")

    def inverse(self):
        return Rot(self.a, self.b, -self.angle)

    def check(self, params):
        if self.a > params.spatial_dim or self.b > params.spatial_dim:
            raise DimensionMismatch("rotation axes exceed spatial dimension")

    def act(self, params, t, x):
        c, s = math.cos(self.angle), math.sin(self.angle)
        x = list(x)
        xa, xb = x[self.a - 1], x[self.b - 1]
        x[self.a - 1] = c * xa - s * xb
        x[self.b - 1] = s * xa + c * xb
        return t, tuple(x), 1.0


def _act_on(g, params, coords, dim):
    """``g.act`` on the seed jets in ``dim`` variables (values alone in dim
    0) of ``coords``, one point (t, x_1..x_N) or the rows of a (P, N + 1)
    array: the jets of the image coordinates and the factor A, a jet or,
    where it is constant, a float."""
    g.check(params)
    t, *x = jet2.coordinates(dim, coords)
    t, x, a = g.act(params, t, x)
    return (t,) + x, a


def _values(jets):
    """The values of coordinate jets: one point, or rows."""
    return np.stack([j.value for j in jets], axis=-1)


def _image(g, params, coords):
    """The image of ``coords`` under ``g`` (a point or rows, as given) and
    the factor A there, from values alone."""
    image, a = _act_on(g, params, coords, 0)
    return _values(image), a.value if isinstance(a, Jet2) else a


def transform_point(g, params, p):
    """Apply a group element to a point; also return the spatial scale A
    (the field scales by A; 1 for every element but Xn)."""
    (t, *x), a_val = _image(g, params, check_coords(params, p.coords()))
    return Point(t, x), a_val


@dataclass(frozen=True)
class PushforwardField(ScalarField):
    """Field transported by a group element.

    Evaluation at query points q (one row or rows) runs the inverse
    element's map on the seed jets of q and reads the base field at
    g⁻¹(q) by one ``base.evaluate_many``; :meth:`pull` composes those jets
    through that coordinate change and divides by the inverse's factor
    (the forward factor at the source points).
    """

    element: object
    base: ScalarField

    def evaluate_many(self, params, coords):
        coords = check_coords(params, coords)
        source, a_inv = _act_on(self.element.inverse(), params, coords, params.jet_dim)
        return self.pull(self.base.evaluate_many(params, _values(source)), source, a_inv)

    @staticmethod
    def pull(jets, source, a_inv):
        """The base field's ``jets`` at g⁻¹(q), composed through the
        inverse's seed jets ``source`` at q and divided by its factor."""
        out = jet2.compose(jets, source)
        if isinstance(a_inv, Jet2) or a_inv != 1.0:
            out = out / a_inv
        return out


def pushforward_field(g, params, u):
    """Transport ``u`` by the group element ``g``."""
    g.check(params)
    return PushforwardField(g, u)


def _xn_obstruction(g, params, t):
    """Return (obstruction_coeff, obstruction_exponent) of ``g`` at the
    times ``t``.

    The obstruction coefficient multiplies u * W_N^II in the determinant
    identity: n(n+1)*eps*t**(n-1) generically, n*eps*t**(n-1) in the
    z = 0 parametrization and 0 for n in {-1, 0}.  The obstruction
    exponent is the extra power of A (z*n/(n+1) generically, 0 in the
    special cases) carried by the obstruction terms of the derivative
    laws and the determinant identity.
    """
    n, eps, z = g.n, g.eps, params.z
    if n in (-1, 0):
        return 0.0, 0.0
    if z == 0.0:
        return eps * n * jet2.rpow(t, n - 1), 0.0
    return n * (n + 1.0) * eps * jet2.rpow(t, n - 1), z * n / (n + 1.0)


class XnTransport(NamedTuple):
    """The batched jets of u at the rows of ``coords`` (``base``) and of
    its Xn pushforward at their images (``prime``), with the spatial
    scale A of ``Xn.act`` and the obstruction coefficient C and exponent
    E of :func:`_xn_obstruction`, each a (P,) array or a constant."""

    params: object
    coords: np.ndarray
    base: object
    prime: object
    A: object
    C: object
    E: float


def xn_transport(g, params, coords, base):
    """Transport a field u by ``g`` at the rows (t, x_1..x_N) of ``coords``
    once; the derivative laws, the determinant identity and the
    obstruction term are read from it, one value per row.

    ``base`` is the batched jet of ``u`` at ``coords``
    (``u.evaluate_many(params, coords)``), which the caller builds once
    for all elements it transports, and the pushforward pulls it through
    the inverse's seed jets at the images g(q) with no new evaluation.
    A row where g⁻¹(g(q)) misses q by more than 1e-12·(1 + |q|) in some
    coordinate, or is not finite, raises FloatingPointError, so that it
    counts as evaluated and not finite, as an overflow does."""
    if not isinstance(g, Xn):
        raise TypeError("the transport laws are stated for Xn elements")
    coords = check_coords(params, coords)
    image, a_val = _image(g, params, coords)
    cn, e_obs = _xn_obstruction(g, params, coords[:, 0])
    source, a_inv = _act_on(g.inverse(), params, image, params.jet_dim)
    returned = np.abs(_values(source) - coords) <= 1e-12 * (1.0 + np.abs(coords))
    jet2.guard(~returned.all(axis=1), "g^-1(g(q)) does not give back q", FloatingPointError)
    prime = PushforwardField.pull(base, source, a_inv)
    return XnTransport(params, coords, base, prime, a_val, cn, e_obs)


def derivative_law_gap(tr):
    """Deviation of the transported jets from the closed-form laws.

    With A = A(t), C = obstruction_coeff and E the obstruction exponent,
    the transported derivatives at the transformed point must satisfy

      u'          = A * u
      u'_a'       = u_a
      u'_a'b'     = u_ab / A
      u'_t'       = A**(1-z) u_t + (u - x_a u_a) * C * A**(1+E-z)
      u'_t'b'     = A**(-z) u_tb - (x_a u_ab) * C * A**(E-z)

    Returns the maximum absolute violation over all listed entries, one
    per row, NaN where any of them is NaN.
    """
    base, prime, a_val, cn, e_obs = tr.base, tr.prime, tr.A, tr.C, tr.E
    z = tr.params.z
    nsp = tr.params.spatial_dim
    x = tr.coords[:, 1:]
    xdot_grad = (x * base.grad[:, 1:]).sum(axis=1)
    gaps = [abs(prime.value - a_val * base.value)]
    pred_t = a_val ** (1.0 - z) * base.grad[:, 0] + (
        base.value - xdot_grad
    ) * cn * a_val ** (1.0 + e_obs - z)
    gaps.append(abs(prime.grad[:, 0] - pred_t))
    for a in range(1, nsp + 1):
        gaps.append(abs(prime.grad[:, a] - base.grad[:, a]))
        for b in range(a, nsp + 1):
            gaps.append(abs(prime.hess[:, a, b] - base.hess[:, a, b] / a_val))
        pred_tb = a_val ** (-z) * base.hess[:, 0, a] - (
            x * base.hess[:, 1:, a]
        ).sum(axis=1) * cn * a_val ** (e_obs - z)
        gaps.append(abs(prime.hess[:, 0, a] - pred_tb))
    return np.max(gaps, axis=0)


def obstruction_term(tr):
    """The signed obstruction summand of the determinant identity, one per
    row."""
    nsp = tr.params.spatial_dim
    return (
        tr.C
        * tr.A ** (tr.E + 1.0 - nsp - tr.params.z)
        * tr.base.value
        * monge_ampere(tr.base, tr.params)
    )


def pushforward_identity_gap(tr):
    """Violation of the determinant identity under an Xn pushforward, one
    per row.

    The transported field's mixed determinant at the transformed point
    must equal A**(1-z-N) * W^I plus the obstruction term of
    :func:`obstruction_term`.  The returned gap is the absolute
    difference, without normalization.
    """
    params = tr.params
    scale = tr.A ** (1.0 - params.z - params.spatial_dim)
    rhs = scale * w1(tr.base, params) + obstruction_term(tr)
    return abs(w1(tr.prime, params) - rhs)


# ---------------------------------------------------------------------------
# algebra generators, at P rows: dxi[:, A, B] = d xi^A / d y^B


def _zero_field(params, rows, *axes):
    """Zero (xi, dxi) over (t, x_1..x_N, u) at ``rows`` points, once every
    1-based spatial axis in ``axes`` is known to exist."""
    n = params.spatial_dim
    if not all(1 <= a <= n for a in axes):
        raise DimensionMismatch(f"axes {axes} out of range for N={n}")
    return np.zeros((rows, n + 2)), np.zeros((rows, n + 2, n + 2))


@dataclass(frozen=True)
class GenXn:
    """X_n = z t^(n+1) d_t + (n+1) t^n (x_a d_a + u d_u)."""

    n: int

    def __post_init__(self):
        integral(self, "n")

    def __str__(self):
        return f"X({self.n})"

    def coeffs(self, params, y):
        xi, dxi = _zero_field(params, len(y))
        n, t = self.n, y[:, :1]  # the time column, (P, 1)
        tn = jet2.rpow(t, n)
        tn1 = n * jet2.rpow(t, n - 1) if n != 0 else 0.0
        xi[:, :1] = params.z * jet2.rpow(t, n + 1)
        dxi[:, :1, 0] = params.z * (n + 1) * tn
        # the spatial slots and the u slot scale alike
        xi[:, 1:] = (n + 1) * tn * y[:, 1:]
        dxi[:, 1:, 0] = (n + 1) * tn1 * y[:, 1:]
        diag = np.arange(1, y.shape[1])
        dxi[:, diag, diag] = (n + 1) * tn
        return xi, dxi


@dataclass(frozen=True)
class GenYk:
    """Y_k = t^k d_axis."""

    k: int
    axis: int  # 1-based spatial axis

    def __post_init__(self):
        integral(self, "k", "axis")

    def __str__(self):
        return f"Y({self.k},axis={self.axis})"

    def coeffs(self, params, y):
        xi, dxi = _zero_field(params, len(y), self.axis)
        k, t = self.k, y[:, 0]
        xi[:, self.axis] = jet2.rpow(t, k)
        dxi[:, self.axis, 0] = k * jet2.rpow(t, k - 1) if k != 0 else 0.0
        return xi, dxi


@dataclass(frozen=True)
class GenJab:
    """J_ab = x_a d_b - x_b d_a."""

    a: int
    b: int

    def __post_init__(self):
        integral(self, "a", "b")
        if self.a < 1 or self.b < 1 or self.a == self.b:
            raise DimensionMismatch("need distinct 1-based axes a != b")

    def __str__(self):
        return f"J({self.a},{self.b})"

    def coeffs(self, params, y):
        a, b = self.a, self.b
        xi, dxi = _zero_field(params, len(y), a, b)
        xi[:, b] = y[:, a]
        xi[:, a] = -y[:, b]
        dxi[:, b, a] = 1.0
        dxi[:, a, b] = -1.0
        return xi, dxi


def coefficients(params, ys):
    """Generator -> its (xi, dxi) at the rows y = (t, x_1..x_N, u) of
    ``ys``, evaluated by one ``coeffs`` call on first use.  A call that
    raises is not kept, so each read of that generator raises."""
    ys = np.asarray(ys, dtype=float)
    return functools.cache(lambda gen: gen.coeffs(params, ys))


def commutator_gap(g1, g2, expected, coeffs):
    """Largest coefficient of [g1, g2] - expected over the rows of the
    :func:`coefficients` table ``coeffs``.

    The bracket of two vector fields is the vector field
    [xi1, xi2] = dxi2 . xi1 - dxi1 . xi2 (Olver, *Applications of Lie
    Groups to Differential Equations*, section 1.4); ``expected`` is an
    iterable of (coefficient, generator) pairs.  A translation's xi has
    no t slot and its dxi only a t column, so a [Y, Y] gap is a maximum
    of exact zeros.  A NaN coefficient gives a NaN gap.
    """
    xi1, dxi1 = coeffs(g1)
    xi2, dxi2 = coeffs(g2)
    gap = (dxi2 @ xi1[..., None] - dxi1 @ xi2[..., None])[..., 0]
    for coeff, gen in expected:
        gap -= float(coeff) * coeffs(gen)[0]
    return float(np.max(np.abs(gap)))


_KINDS = (GenXn, GenYk, GenJab)


def expected_commutator(g1, g2, params):
    """The bracket [g1, g2] as a tuple of (coefficient, generator) pairs.

    This is the structure-constant table, written independently of
    ``coeffs``.  Each kind of bracket is stated once, with g1 of the
    lower kind (X < Y < J); the reversed order is its negation.
    Coefficients come out of exact rational arithmetic in z where z is
    (a float equal to) a rational, so integer cases carry no rounding.
    """
    if type(g1) not in _KINDS or type(g2) not in _KINDS:
        raise TypeError(f"unsupported generator pair: {g1!r}, {g2!r}")
    if _KINDS.index(type(g1)) > _KINDS.index(type(g2)):
        return tuple((-c, gen) for c, gen in expected_commutator(g2, g1, params))
    z = Fraction(params.z)
    if isinstance(g2, GenXn):
        # [X_n, X_m] = z (m - n) X_{n+m}
        return _term(z * (g2.n - g1.n), GenXn(g1.n + g2.n))
    if isinstance(g1, GenXn) and isinstance(g2, GenYk):
        # [X_n, Y_k] = (z k - 1 - n) Y_{n+k}, same axis
        return _term(z * g2.k - 1 - g1.n, GenYk(g1.n + g2.k, g2.axis))
    if isinstance(g1, GenYk) and isinstance(g2, GenJab):
        # [Y^(c)_k, J_ab] = delta_ca Y^(b)_k - delta_cb Y^(a)_k
        out = []
        if g1.axis == g2.a:
            out.append((1.0, GenYk(g1.k, g2.b)))
        if g1.axis == g2.b:
            out.append((-1.0, GenYk(g1.k, g2.a)))
        return tuple(out)
    if isinstance(g1, GenJab):
        a, b, c, d = g1.a, g1.b, g2.a, g2.b
        out = []
        _j_term(out, 1.0, a, d, b, c)
        _j_term(out, 1.0, b, c, a, d)
        _j_term(out, -1.0, b, d, a, c)
        _j_term(out, -1.0, a, c, b, d)
        return tuple(out)
    return ()  # [Y, Y] and [X, J]


def _term(coeff, gen):
    return ((float(coeff), gen),) if coeff != 0 else ()


def _j_term(out, sign, i, j, p, q):
    """Append sign * delta_{pq} * J_ij in canonical index order."""
    if p != q or i == j:
        return
    if i > j:
        out.append((-sign, GenJab(j, i)))
    else:
        out.append((sign, GenJab(i, j)))


__all__ = [
    "Xn",
    "Yk",
    "Yphi",
    "Rot",
    "transform_point",
    "PushforwardField",
    "pushforward_field",
    "XnTransport",
    "xn_transport",
    "derivative_law_gap",
    "obstruction_term",
    "pushforward_identity_gap",
    "GenXn",
    "GenYk",
    "GenJab",
    "coefficients",
    "commutator_gap",
    "expected_commutator",
]
