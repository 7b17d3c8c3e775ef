"""Second-order forward-mode jets.

A :class:`Jet2` carries the value, gradient and dense symmetric Hessian
of a scalar quantity with respect to ``dim`` independent coordinates.
All combinators propagate exact second-order Taylor data; nothing here
uses finite differences.  Hessians stay symmetric bit for bit because
every update writes identical floats to the (i, j) and (j, i) slots.
"""

import math

import numpy as np

from .errors import DimensionMismatch, DomainError

# Relative threshold below which a denominator / log argument / radicand
# is treated as singular rather than merely small.
_GUARD = 1e-12


def _too_small(v, scale=1.0):
    return abs(v) < _GUARD * max(1.0, abs(scale))


class Jet2:
    """Immutable (value, gradient, Hessian) triple in ``dim`` variables."""

    __slots__ = ("value", "grad", "hess")

    def __init__(self, value, grad, hess):
        grad = np.array(grad, dtype=float)
        hess = np.array(hess, dtype=float)
        if grad.ndim != 1:
            raise DimensionMismatch("gradient must be one-dimensional")
        d = grad.shape[0]
        if hess.shape != (d, d):
            raise DimensionMismatch(
                f"Hessian shape {hess.shape} does not match gradient length {d}"
            )
        grad.flags.writeable = False
        hess.flags.writeable = False
        object.__setattr__(self, "value", float(value))
        object.__setattr__(self, "grad", grad)
        object.__setattr__(self, "hess", hess)

    def __setattr__(self, name, _value):
        raise AttributeError(f"Jet2 is immutable; cannot set {name!r}")

    @property
    def dim(self):
        return self.grad.shape[0]

    def __repr__(self):
        return f"Jet2(value={self.value!r}, grad={self.grad.tolist()!r})"

    # arithmetic via the module-level combinators
    def __add__(self, other):
        return add(self, _coerce(other, self.dim))

    __radd__ = __add__

    def __sub__(self, other):
        return sub(self, _coerce(other, self.dim))

    def __rsub__(self, other):
        return sub(_coerce(other, self.dim), self)

    def __mul__(self, other):
        return mul(self, _coerce(other, self.dim))

    __rmul__ = __mul__

    def __truediv__(self, other):
        return div(self, _coerce(other, self.dim))

    def __rtruediv__(self, other):
        return div(_coerce(other, self.dim), self)

    def __neg__(self):
        return Jet2(-self.value, -self.grad, -self.hess)

    def __pow__(self, p):
        return power(self, p)


def _coerce(x, dim):
    if isinstance(x, Jet2):
        return x
    if isinstance(x, (int, float)):
        return constant(dim, x)
    return NotImplemented


def _check_same_dim(a, b):
    if a.dim != b.dim:
        raise DimensionMismatch(f"jet dims differ: {a.dim} vs {b.dim}")


def seed(dim, coord_index, value):
    """Jet of the coordinate function ``y -> y[coord_index]`` at ``value``."""
    if not 0 <= coord_index < dim:
        raise DimensionMismatch(f"coord_index {coord_index} out of range for dim {dim}")
    g = np.zeros(dim)
    g[coord_index] = 1.0
    return Jet2(value, g, np.zeros((dim, dim)))


def constant(dim, value):
    """Jet of a constant: zero gradient and Hessian."""
    if dim < 1:
        raise DimensionMismatch("dim must be at least 1")
    return Jet2(value, np.zeros(dim), np.zeros((dim, dim)))


def add(a, b):
    _check_same_dim(a, b)
    return Jet2(a.value + b.value, a.grad + b.grad, a.hess + b.hess)


def sub(a, b):
    _check_same_dim(a, b)
    return Jet2(a.value - b.value, a.grad - b.grad, a.hess - b.hess)


def mul(a, b):
    _check_same_dim(a, b)
    # Product rule; outer(ga, gb) + outer(gb, ga) is exactly symmetric.
    cross = np.outer(a.grad, b.grad)
    return Jet2(
        a.value * b.value,
        a.value * b.grad + b.value * a.grad,
        a.value * b.hess + b.value * a.hess + cross + cross.T,
    )


def div(a, b):
    _check_same_dim(a, b)
    if _too_small(b.value, b.value):
        raise ZeroDivisionError("jet division by (near-)zero value")
    v = b.value
    recip = univariate(b, 1.0 / v, -1.0 / (v * v), 2.0 / (v * v * v))
    return mul(a, recip)


def univariate(a, f0, f1, f2):
    """Chain rule through a scalar function with derivatives f0, f1, f2 at a.value."""
    outer = np.outer(a.grad, a.grad)
    return Jet2(f0, f1 * a.grad, f1 * a.hess + f2 * outer)


def exp(a):
    e = math.exp(a.value)
    return univariate(a, e, e, e)


def ln(a):
    v = a.value
    if v < 0.0 or _too_small(v):
        raise DomainError(f"ln of non-positive value {v!r}")
    return univariate(a, math.log(v), 1.0 / v, -1.0 / (v * v))


def sqrt(a):
    v = a.value
    if v < 0.0 or _too_small(v):
        raise DomainError(f"sqrt of non-positive value {v!r}")
    r = math.sqrt(v)
    return univariate(a, r, 0.5 / r, -0.25 / (r * v))


def sin(a):
    s = math.sin(a.value)
    c = math.cos(a.value)
    return univariate(a, s, c, -s)


def cos(a):
    s = math.sin(a.value)
    c = math.cos(a.value)
    return univariate(a, c, -s, -c)


def atan(a):
    v = a.value
    d = 1.0 + v * v
    return univariate(a, math.atan(v), 1.0 / d, -2.0 * v / (d * d))


def power(a, p):
    """Real power ``a ** p``.

    Integer exponents are sign-tracked and valid for negative bases;
    fractional exponents require a strictly positive base.  Negative
    exponents reject a (near-)zero base.
    """
    p = float(p)
    v = a.value
    if p == 0.0:
        return constant(a.dim, 1.0)
    is_int = p == int(p)
    if not is_int and v <= 0.0:
        raise DomainError(f"fractional power {p!r} of non-positive base {v!r}")
    if p < 0.0 and _too_small(v, v):
        raise DomainError(f"negative power {p!r} of (near-)zero base {v!r}")
    if is_int:
        k = int(p)
        f0 = _ipow(v, k)
        f1 = p * _ipow(v, k - 1)
        f2 = p * (p - 1.0) * _ipow(v, k - 2) if k != 1 else 0.0
    else:
        f0 = math.pow(v, p)
        f1 = p * math.pow(v, p - 1.0)
        f2 = p * (p - 1.0) * math.pow(v, p - 2.0)
    return univariate(a, f0, f1, f2)


def rpow(base, p):
    """Real power of a plain float: the scalar twin of :func:`power`.

    Same domain, but only an exact zero base is a pole (no near-zero
    guard), and integer powers use ``float ** int`` rather than repeated
    multiplication, so the last bits can differ from ``power(...).value``.
    """
    if p == int(p):
        if base == 0.0 and p < 0.0:
            raise DomainError("negative power of zero")
        return float(base) ** int(p)
    if base <= 0.0:
        raise DomainError(
            f"fractional power {p!r} of non-positive value {base!r}"
        )
    return float(base) ** p


def _ipow(v, k):
    if k >= 0:
        out = 1.0
        for _ in range(k):
            out *= v
        return out
    return 1.0 / _ipow(v, -k)


def atan2_jet(y, x):
    """Principal-branch polar angle ``atan2(y, x)`` in (-pi, pi] as a jet."""
    _check_same_dim(y, x)
    xv, yv = x.value, y.value
    r2 = xv * xv + yv * yv
    if r2 < _GUARD * _GUARD:
        raise DomainError("atan2 undefined at the coordinate origin")
    # First and second partials of atan2 with respect to (x, y).
    th_x = -yv / r2
    th_y = xv / r2
    r4 = r2 * r2
    th_xx = 2.0 * xv * yv / r4
    th_yy = -2.0 * xv * yv / r4
    th_xy = (yv * yv - xv * xv) / r4
    gx, gy = x.grad, y.grad
    grad = th_x * gx + th_y * gy
    cross = np.outer(gx, gy)
    hess = (
        th_x * x.hess
        + th_y * y.hess
        + th_xx * np.outer(gx, gx)
        + th_yy * np.outer(gy, gy)
        + th_xy * (cross + cross.T)
    )
    return Jet2(math.atan2(yv, xv), grad, hess)


def compose(outer, inner):
    """Second-order chain rule through a map.

    ``outer`` is a jet in ``len(inner)`` variables evaluated at the map
    image; ``inner`` is a sequence of jets of the map components, all in
    a common source dimension.  Returns the jet of the composite in the
    source variables.  The Hessian is symmetrized by mirroring the upper
    triangle so exact symmetry survives the matrix products.
    """
    inner = list(inner)
    if outer.dim != len(inner):
        raise DimensionMismatch(
            f"outer jet dim {outer.dim} does not match {len(inner)} inner jets"
        )
    d = inner[0].dim
    for j in inner:
        if j.dim != d:
            raise DimensionMismatch("inner jets must share one source dimension")
    jac = np.empty((outer.dim, d))
    for i, j in enumerate(inner):
        jac[i] = j.grad
    grad = jac.T @ outer.grad
    quad = jac.T @ outer.hess @ jac
    hess = np.triu(quad) + np.triu(quad, 1).T
    for i, j in enumerate(inner):
        hess = hess + outer.grad[i] * j.hess
    return Jet2(outer.value, grad, hess)
