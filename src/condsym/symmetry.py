"""Finite group transformations and the generator algebra.

Group elements act on space-time points and on scalar fields; algebra
generators are first-order vector fields over (t, x_1..x_N, u).  The
closed-form derivative transformation laws and the determinant identity
that this module checks are the quantitative heart of the package.

Each group element ``g`` writes its map once, as
``g.act(params, t, x) -> (t', x', A)``: the image of the point and the
factor A by which the field scales.  ``act`` runs on floats, where it
moves a point (:func:`transform_point`, :func:`xn_transport`), and on the
seed jets of a query point, where ``g.inverse().act`` gives the pullback
of the pushforward field (:class:`PushforwardField`).  ``g.inverse()`` is
the same element with its parameter negated; ``g.check(params)`` rejects
an element that does not fit the spatial dimension N.

Each generator writes its vector field once, as
``gen.coeffs(params, y) -> (xi, dxi)``: the coefficients at
y = (t, x_1..x_N, u) and their Jacobian.  :func:`commutator_gap` compares
the bracket of two such fields with the structure-constant table of
:func:`expected_commutator`, coefficient by coefficient.

Conventions:

* ``Xn`` scales time, space and the field; its finite form is defined on
  the branch 1 - z*n*eps*t**n > 0 only.  The field picks up the factor
  A, the spatial scale.
* At z = 0 an ``Xn`` with n not in {-1, 0} acts as the time-preserving
  rescaling x' = x*exp(eps*t**n), factor exp(eps*t**n).
* ``Yk`` translates space by v_a * t**k with integer k.
* Generator coefficients use the weight-1 normalization throughout.
"""

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple

import numpy as np

from . import jet2
from .errors import BranchError, DimensionMismatch
from .fields import Point, ProfileFunction, ScalarField, check_point, evaluate
from .jet2 import Jet2
from .operators import monge_ampere, w1


# ---------------------------------------------------------------------------
# group elements

# ``act`` takes floats or jets; these are the only steps that tell them
# apart.  A pole (t = 0 under a negative power) is a DomainError on both.


def _pow(v, p):
    return jet2.power(v, p) if isinstance(v, Jet2) else jet2.rpow(v, p)


def _exp(v):
    return jet2.exp(v) if isinstance(v, Jet2) else math.exp(v)


def _profile(prof, t):
    return prof.jet(t) if isinstance(t, Jet2) else prof(t)[0]


def _value(v):
    return v.value if isinstance(v, Jet2) else v


@dataclass(frozen=True)
class Xn:
    """Combined time/space/field scaling with integer label n."""

    n: int
    eps: float

    def __post_init__(self):
        if self.n != int(self.n):
            raise ValueError("n must be an integer")
        object.__setattr__(self, "n", int(self.n))
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
            a = _exp(eps * _pow(t, n))
            return t, tuple(v * a for v in x), a
        s = 1.0 - z * n * eps * _pow(t, n)
        branch = _value(s)
        if branch <= 0.0:
            raise BranchError(
                f"outside the small-parameter branch: 1 - z*n*eps*t^n = {branch!r}"
            )
        beta = (n + 1.0) / (z * n)
        a = _pow(s, -beta)
        return t * _pow(s, -1.0 / n), tuple(v * a for v in x), a


@dataclass(frozen=True)
class Yk:
    """Space translation by v_a * t**k, k integer."""

    k: int
    v: tuple[float, ...]

    def __post_init__(self):
        if self.k != int(self.k):
            raise ValueError("k must be an integer")
        object.__setattr__(self, "k", int(self.k))
        object.__setattr__(self, "v", tuple(float(c) for c in self.v))

    def inverse(self):
        return Yk(self.k, tuple(-c for c in self.v))

    def check(self, params):
        if len(self.v) != params.spatial_dim:
            raise DimensionMismatch("translation vector length must equal N")

    def act(self, params, t, x):
        shift = _pow(t, self.k)
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
        return t, tuple(v + c * _profile(prof, t) for v, c, prof in shifted), 1.0


@dataclass(frozen=True)
class Rot:
    """Rotation in the (x_a, x_b) plane; 1-based indices a < b."""

    a: int
    b: int
    angle: float

    def __post_init__(self):
        object.__setattr__(self, "a", int(self.a))
        object.__setattr__(self, "b", int(self.b))
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


def transform_point(g, params, p):
    """Apply a group element to a point; also return the spatial scale A
    (the field scales by A; 1 for every element but Xn)."""
    check_point(params, p)
    g.check(params)
    t, x, a_val = g.act(params, p.t, p.x)
    return Point(t, x), a_val


class PushforwardField(ScalarField):
    """Field transported by a group element.

    Evaluation at a query point q runs the inverse element's map on the
    seed jets of q, reads the base field at the image, composes the jets
    through that coordinate change and divides by the inverse's factor
    (the forward factor at the source point).
    """

    def __init__(self, element, base):
        self.element = element
        self.inverse = element.inverse()
        self.base = base

    def evaluate(self, params, point):
        check_point(params, point)
        self.element.check(params)
        d = params.jet_dim
        jt = jet2.seed(d, 0, point.t)
        jx = [jet2.seed(d, 1 + a, v) for a, v in enumerate(point.x)]
        jt, jx, a_inv = self.inverse.act(params, jt, jx)
        source = Point(jt.value, tuple(j.value for j in jx))
        base_jet = evaluate(self.base, params, source)
        out = jet2.compose(base_jet, (jt,) + jx)
        if isinstance(a_inv, Jet2) or a_inv != 1.0:
            out = out / a_inv
        return out


def pushforward_field(g, params, u):
    """Transport ``u`` by the group element ``g``."""
    g.check(params)
    return PushforwardField(g, u)


def _xn_obstruction(g, params, t):
    """Return (obstruction_coeff, obstruction_exponent) of ``g`` at ``t``.

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
    """The jets of u at ``p`` (``base``) and of its Xn pushforward at the
    image of ``p`` (``prime``), with the spatial scale A of ``Xn.act``
    and the obstruction coefficient C and exponent E of
    :func:`_xn_obstruction`."""

    params: object
    p: Point
    base: object
    prime: object
    A: float
    C: float
    E: float


def xn_transport(g, params, u, p, base):
    """Transport ``u`` by ``g`` at ``p`` once; the derivative laws, the
    determinant identity and the obstruction term are read from it.

    ``base`` is the jet of ``u`` at ``p`` (``evaluate(u, params, p)``),
    which the caller builds once for all elements it transports."""
    if not isinstance(g, Xn):
        raise TypeError("the transport laws are stated for Xn elements")
    q, a_val = transform_point(g, params, p)
    cn, e_obs = _xn_obstruction(g, params, p.t)
    prime = evaluate(PushforwardField(g, u), params, q)
    return XnTransport(params, p, base, prime, a_val, cn, e_obs)


def derivative_law_gap(tr):
    """Deviation of the transported jet from the closed-form laws.

    With A = A(t), C = obstruction_coeff and E the obstruction exponent,
    the transported derivatives at the transformed point must satisfy

      u'          = A * u
      u'_a'       = u_a
      u'_a'b'     = u_ab / A
      u'_t'       = A**(1-z) u_t + (u - x_a u_a) * C * A**(1+E-z)
      u'_t'b'     = A**(-z) u_tb - (x_a u_ab) * C * A**(E-z)

    Returns the maximum absolute violation over all listed entries, NaN
    when any of them is NaN.
    """
    base, prime, a_val, cn, e_obs = tr.base, tr.prime, tr.A, tr.C, tr.E
    z = tr.params.z
    nsp = tr.params.spatial_dim
    x = np.array(tr.p.x)
    xdot_grad = float(x @ base.grad[1:])
    gaps = [abs(prime.value - a_val * base.value)]
    pred_t = a_val ** (1.0 - z) * base.grad[0] + (
        base.value - xdot_grad
    ) * cn * a_val ** (1.0 + e_obs - z)
    gaps.append(abs(prime.grad[0] - pred_t))
    for a in range(1, nsp + 1):
        gaps.append(abs(prime.grad[a] - base.grad[a]))
        for b in range(a, nsp + 1):
            gaps.append(abs(prime.hess[a, b] - base.hess[a, b] / a_val))
        pred_tb = a_val ** (-z) * base.hess[0, a] - float(
            x @ base.hess[1:, a]
        ) * cn * a_val ** (e_obs - z)
        gaps.append(abs(prime.hess[0, a] - pred_tb))
    return float(np.max(gaps))


def obstruction_term(tr):
    """The signed obstruction summand of the determinant identity."""
    nsp = tr.params.spatial_dim
    return float(
        tr.C
        * tr.A ** (tr.E + 1.0 - nsp - tr.params.z)
        * tr.base.value
        * monge_ampere(tr.base, tr.params)
    )


def pushforward_identity_gap(tr):
    """Violation of the determinant identity under an Xn pushforward.

    The transported field's mixed determinant at the transformed point
    must equal A**(1-z-N) * W^I plus the obstruction term of
    :func:`obstruction_term`.  The returned gap is the absolute
    difference, without normalization.
    """
    params = tr.params
    scale = tr.A ** (1.0 - params.z - params.spatial_dim)
    rhs = scale * w1(tr.base, params) + obstruction_term(tr)
    return float(abs(w1(tr.prime, params) - rhs))


# ---------------------------------------------------------------------------
# algebra generators: dxi[A, B] = d xi^A / d y^B


def _zero_field(params, *axes):
    """Zero (xi, dxi) over (t, x_1..x_N, u), once every 1-based spatial
    axis in ``axes`` is known to exist."""
    n = params.spatial_dim
    if not all(1 <= a <= n for a in axes):
        raise DimensionMismatch(f"axes {axes} out of range for N={n}")
    return np.zeros(n + 2), np.zeros((n + 2, n + 2))


@dataclass(frozen=True)
class GenXn:
    """X_n = z t^(n+1) d_t + (n+1) t^n (x_a d_a + u d_u)."""

    n: int

    def __str__(self):
        return f"X({self.n})"

    def coeffs(self, params, y):
        xi, dxi = _zero_field(params)
        n, t = self.n, y[0]
        tn = jet2.rpow(t, n)
        tn1 = n * jet2.rpow(t, n - 1) if n != 0 else 0.0
        xi[0] = params.z * jet2.rpow(t, n + 1)
        dxi[0, 0] = params.z * (n + 1) * tn
        # the spatial slots and the u slot scale alike
        xi[1:] = (n + 1) * tn * y[1:]
        dxi[1:, 0] = (n + 1) * tn1 * y[1:]
        np.fill_diagonal(dxi[1:, 1:], (n + 1) * tn)
        return xi, dxi


@dataclass(frozen=True)
class GenYk:
    """Y_k = t^k d_axis."""

    k: int
    axis: int  # 1-based spatial axis

    def __str__(self):
        return f"Y({self.k},axis={self.axis})"

    def coeffs(self, params, y):
        xi, dxi = _zero_field(params, self.axis)
        k, t = self.k, y[0]
        xi[self.axis] = jet2.rpow(t, k)
        dxi[self.axis, 0] = k * jet2.rpow(t, k - 1) if k != 0 else 0.0
        return xi, dxi


@dataclass(frozen=True)
class GenJab:
    """J_ab = x_a d_b - x_b d_a."""

    a: int
    b: int

    def __post_init__(self):
        if self.a < 1 or self.b < 1 or self.a == self.b:
            raise DimensionMismatch("need distinct 1-based axes a != b")

    def __str__(self):
        return f"J({self.a},{self.b})"

    def coeffs(self, params, y):
        a, b = self.a, self.b
        xi, dxi = _zero_field(params, a, b)
        xi[b] = y[a]
        xi[a] = -y[b]
        dxi[b, a] = 1.0
        dxi[a, b] = -1.0
        return xi, dxi


def commutator_gap(g1, g2, expected, params, y):
    """Largest coefficient of [g1, g2] - expected at y = (t, x_1..x_N, u).

    The bracket of two vector fields is the vector field
    [xi1, xi2] = dxi2 . xi1 - dxi1 . xi2 (Olver, *Applications of Lie
    Groups to Differential Equations*, section 1.4); ``expected`` is an
    iterable of (coefficient, generator) pairs.  A translation's xi has
    no t slot and its dxi only a t column, so a [Y, Y] gap is a maximum
    of exact zeros.  A NaN coefficient gives a NaN gap.
    """
    y = np.asarray(y, dtype=float)
    xi1, dxi1 = g1.coeffs(params, y)
    xi2, dxi2 = g2.coeffs(params, y)
    gap = dxi2 @ xi1 - dxi1 @ xi2
    for coeff, gen in expected:
        gap -= float(coeff) * gen.coeffs(params, y)[0]
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
    "commutator_gap",
    "expected_commutator",
]
