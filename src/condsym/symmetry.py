"""Finite group transformations and the generator algebra.

Group elements act on space-time points and on scalar fields; algebra
generators act on test functions over (t, x_1..x_N, u).  The closed-form
derivative transformation laws and the determinant identity that this
module checks are the quantitative heart of the package.

Each group element ``g`` writes its map once, as
``g.act(params, t, x) -> (t', x', A)``: the image of the point and the
factor A by which the field scales.  ``act`` runs on floats, where it
moves a point (:func:`transform_point`, :func:`xn_transport`), and on the
seed jets of a query point, where ``g.inverse().act`` gives the pullback
of the pushforward field (:class:`PushforwardField`).  ``g.inverse()`` is
the same element with its parameter negated; ``g.check(params)`` rejects
an element that does not fit the spatial dimension N.

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
# algebra generators


@dataclass(frozen=True)
class GenXn:
    n: int


@dataclass(frozen=True)
class GenYk:
    k: int
    axis: int  # 1-based spatial axis


@dataclass(frozen=True)
class GenJab:
    a: int
    b: int

    def __post_init__(self):
        if self.a < 1 or self.b < 1 or self.a == self.b:
            raise DimensionMismatch("need distinct 1-based axes a != b")


def _gen_check(gen, params):
    n = params.spatial_dim
    if isinstance(gen, GenYk) and not 1 <= gen.axis <= n:
        raise DimensionMismatch(f"axis {gen.axis} out of range for N={n}")
    if isinstance(gen, GenJab) and (gen.a > n or gen.b > n):
        raise DimensionMismatch(f"axes ({gen.a},{gen.b}) out of range for N={n}")


def _gen_coeffs(gen, params, y):
    """First-order coefficients xi of the generator at
    y = (t, x_1..x_N, u) and their Jacobian dxi[A, B] = d xi^A / d y^B."""
    _gen_check(gen, params)
    d = params.spatial_dim + 2
    xi = np.zeros(d)
    dxi = np.zeros((d, d))
    t = y[0]
    if isinstance(gen, GenXn):
        n = gen.n
        tn = jet2.rpow(t, n)
        tn1 = n * jet2.rpow(t, n - 1) if n != 0 else 0.0
        xi[0] = params.z * jet2.rpow(t, n + 1)
        dxi[0, 0] = params.z * (n + 1) * tn
        # the spatial slots and the u slot scale alike
        for a in range(1, d):
            xi[a] = (n + 1) * tn * y[a]
            dxi[a, 0] = (n + 1) * tn1 * y[a]
            dxi[a, a] = (n + 1) * tn
    elif isinstance(gen, GenYk):
        xi[gen.axis] = jet2.rpow(t, gen.k)
        dxi[gen.axis, 0] = gen.k * jet2.rpow(t, gen.k - 1) if gen.k != 0 else 0.0
    elif isinstance(gen, GenJab):
        xi[gen.b] = y[gen.a]
        xi[gen.a] = -y[gen.b]
        dxi[gen.b, gen.a] = 1.0
        dxi[gen.a, gen.b] = -1.0
    else:
        raise TypeError(f"not an algebra generator: {gen!r}")
    return xi, dxi


def _xi_dot_grad(gen, params, y, grad):
    """The generator applied to a function with gradient ``grad`` at y."""
    xi, _ = _gen_coeffs(gen, params, y)
    total = 0.0
    for a in range(len(xi)):
        total += xi[a] * grad[a]
    return float(total)


def commutator_gap(g1, g2, expected, params, j, y):
    """|([g1, g2] - expected) F| at the point y = (t, x_1..x_N, u).

    ``j`` is the jet of the test function F at y (``F.jet(y)``), built
    once by the caller for every bracket it checks there.  The nested
    applications are expanded so that the symmetric-Hessian contribution
    cancels pairwise in exact float arithmetic; a vanishing bracket
    therefore yields a gap of exactly zero.  ``expected`` is an iterable
    of (coefficient, generator) pairs.
    """
    y = np.asarray(y, dtype=float)
    if j.dim != params.spatial_dim + 2:
        raise DimensionMismatch(
            "test function must be a jet over (t, x_1..x_N, u)"
        )
    xi1, dxi1 = _gen_coeffs(g1, params, y)
    xi2, dxi2 = _gen_coeffs(g2, params, y)
    d = len(xi1)
    lhs = 0.0
    for b in range(d):
        c1 = 0.0
        c2 = 0.0
        for a in range(d):
            c1 += xi1[a] * dxi2[b, a]
            c2 += xi2[a] * dxi1[b, a]
        lhs += (c1 - c2) * j.grad[b]
    for i in range(d):
        for k in range(i + 1, d):
            p = xi1[i] * xi2[k] - xi2[i] * xi1[k]
            q = xi1[k] * xi2[i] - xi2[k] * xi1[i]
            lhs += (p + q) * j.hess[i, k]
    rhs = 0.0
    for coeff, gen in expected:
        rhs += float(coeff) * _xi_dot_grad(gen, params, y, j.grad)
    return float(abs(lhs - rhs))


def expected_commutator(g1, g2, params):
    """The bracket [g1, g2] as a tuple of (coefficient, generator) pairs.

    Coefficients come out of exact rational arithmetic in z where z is
    (a float equal to) a rational, so integer cases carry no rounding.
    """
    z = Fraction(params.z)
    if isinstance(g1, GenXn) and isinstance(g2, GenXn):
        coeff = z * (g2.n - g1.n)
        if coeff == 0:
            return ()
        return ((float(coeff), GenXn(g1.n + g2.n)),)
    if isinstance(g1, GenXn) and isinstance(g2, GenYk):
        coeff = z * g2.k - 1 - g1.n
        if coeff == 0:
            return ()
        return ((float(coeff), GenYk(g1.n + g2.k, g2.axis)),)
    if isinstance(g1, GenYk) and isinstance(g2, GenXn):
        return _negate(expected_commutator(g2, g1, params))
    if isinstance(g1, GenYk) and isinstance(g2, GenYk):
        return ()
    if isinstance(g1, GenYk) and isinstance(g2, GenJab):
        out = []
        if g1.axis == g2.a:
            out.append((1.0, GenYk(g1.k, g2.b)))
        if g1.axis == g2.b:
            out.append((-1.0, GenYk(g1.k, g2.a)))
        return tuple(out)
    if isinstance(g1, GenJab) and isinstance(g2, GenYk):
        return _negate(expected_commutator(g2, g1, params))
    if isinstance(g1, GenXn) and isinstance(g2, GenJab):
        return ()
    if isinstance(g1, GenJab) and isinstance(g2, GenXn):
        return ()
    if isinstance(g1, GenJab) and isinstance(g2, GenJab):
        a, b, c, d = g1.a, g1.b, g2.a, g2.b
        out = []
        _j_term(out, 1.0, a, d, b, c)
        _j_term(out, 1.0, b, c, a, d)
        _j_term(out, -1.0, b, d, a, c)
        _j_term(out, -1.0, a, c, b, d)
        return tuple(out)
    raise TypeError(f"unsupported generator pair: {g1!r}, {g2!r}")


def _j_term(out, sign, i, j, p, q):
    """Append sign * delta_{pq} * J_ij in canonical index order."""
    if p != q or i == j:
        return
    if i > j:
        out.append((-sign, GenJab(j, i)))
    else:
        out.append((sign, GenJab(i, j)))


def _negate(terms):
    return tuple((-c, gen) for c, gen in terms)


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
