"""Second-order forward-mode jets.

A :class:`Jet2` carries the value, gradient and dense symmetric Hessian
of a scalar quantity with respect to ``dim`` independent coordinates.
All combinators propagate exact second-order Taylor data; nothing here
uses finite differences.  Hessians stay symmetric bit for bit because
every update writes identical floats to the (i, j) and (j, i) slots.

A jet holds one point or a batch of P points.  An unbatched jet has a
float ``value``, a ``(dim,)`` gradient and a ``(dim, dim)`` Hessian; a
batched jet has a leading point axis: ``value`` (P,), ``grad`` (P, dim)
and ``hess`` (P, dim, dim).  Each combinator is written once over the
trailing axes, so unbatched and batched jets mix freely and a batch
gives, point for point, the unbatched result.  That holds bit for bit
for ``+ - * /``, ``sqrt``, ``sin``, ``cos`` and integer powers.  ``exp``,
``ln``, ``atan``, ``atan2_jet`` and fractional powers of a batch go
through numpy, whose last bit can differ from ``math``'s.
"""

import math

import numpy as np

from .errors import DimensionMismatch, DomainError

# Relative threshold below which a denominator / log argument / radicand
# is treated as singular rather than merely small.
_GUARD = 1e-12


def mathlib(v):
    """``math`` for a float, numpy for a batch: unbatched results stay
    bit for bit what ``math`` gives."""
    return np if isinstance(v, np.ndarray) else math


def guard(bad, message, error=DomainError):
    """Raise ``error(message)`` if ``bad`` holds at any point.

    ``bad`` is a comparison on a float or on a batch, written so that it
    is true at a bad point; NaN compares false, so a NaN value passes a
    guard on a batch as it does on a float.
    """
    if bad is True or (bad is not False and bad.any()):
        raise error(message)


def _too_small(v, scale=1.0):
    # |v| < _GUARD * max(1, |scale|), in a form that broadcasts
    m = abs(v)
    return (m < _GUARD) | (m < _GUARD * abs(scale))


def _scalers(v):
    """``v`` shaped to scale a gradient and a Hessian: a float as it is,
    a (P,) batch as (P, 1) and (P, 1, 1)."""
    if isinstance(v, np.ndarray):
        return v[:, None], v[:, None, None]
    return v, v


def _outer(a, b):
    return a[..., :, None] * b[..., None, :]


_new = object.__new__
_set = object.__setattr__


def _init(jet, value, grad, hess):
    if isinstance(value, np.ndarray):
        value.setflags(write=False)
    grad.setflags(write=False)
    hess.setflags(write=False)
    _set(jet, "value", value)
    _set(jet, "grad", grad)
    _set(jet, "hess", hess)
    return jet


def _make(value, grad, hess):
    """A jet around arrays a combinator has just built: no copy, no checks."""
    return _init(_new(Jet2), value, grad, hess)


def _as_value(value):
    """(value, batch shape): a float and (), or a float copy of a batch
    and its shape."""
    if isinstance(value, (int, float)):
        return float(value), ()
    value = np.array(value, dtype=float)
    if value.ndim == 0:
        return float(value), ()
    return value, value.shape


class Jet2:
    """Immutable (value, gradient, Hessian) triple in ``dim`` variables,
    at one point or with a leading axis of P points."""

    __slots__ = ("value", "grad", "hess")

    def __init__(self, value, grad, hess):
        value, shape = _as_value(value)
        grad = np.array(grad, dtype=float)
        hess = np.array(hess, dtype=float)
        if len(shape) > 1 or grad.ndim != len(shape) + 1 or grad.shape[:-1] != shape:
            raise DimensionMismatch(
                f"gradient shape {grad.shape} does not fit value shape {shape}"
            )
        if hess.shape != grad.shape + grad.shape[-1:]:
            raise DimensionMismatch(
                f"Hessian shape {hess.shape} does not match gradient shape {grad.shape}"
            )
        _init(self, value, grad, hess)

    def __setattr__(self, name, _value):
        raise AttributeError(f"Jet2 is immutable; cannot set {name!r}")

    @property
    def dim(self):
        return self.grad.shape[-1]

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
        return _make(-self.value, -self.grad, -self.hess)

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
    """Jet of the coordinate function ``y -> y[coord_index]`` at ``value``
    (a float, or a (P,) array for a batch)."""
    if not 0 <= coord_index < dim:
        raise DimensionMismatch(f"coord_index {coord_index} out of range for dim {dim}")
    value, shape = _as_value(value)
    g = np.zeros(shape + (dim,))
    g[..., coord_index] = 1.0
    return _make(value, g, np.zeros(g.shape + (dim,)))


def constant(dim, value):
    """Jet of a constant: zero gradient and Hessian."""
    if dim < 1:
        raise DimensionMismatch("dim must be at least 1")
    value, shape = _as_value(value)
    shape += (dim,)
    return _make(value, np.zeros(shape), np.zeros(shape + (dim,)))


def add(a, b):
    _check_same_dim(a, b)
    return _make(a.value + b.value, a.grad + b.grad, a.hess + b.hess)


def sub(a, b):
    _check_same_dim(a, b)
    return _make(a.value - b.value, a.grad - b.grad, a.hess - b.hess)


def mul(a, b):
    _check_same_dim(a, b)
    # Product rule, in the float order of the unbatched form.
    ag, ah = _scalers(a.value)
    bg, bh = _scalers(b.value)
    grad = ag * b.grad
    grad += bg * a.grad
    cross = _outer(a.grad, b.grad)
    hess = ah * b.hess
    hess += bh * a.hess
    hess += cross + cross.mT
    return _make(a.value * b.value, grad, hess)


def div(a, b):
    _check_same_dim(a, b)
    v = b.value
    guard(_too_small(v, v), "jet division by (near-)zero value", ZeroDivisionError)
    recip = univariate(b, 1.0 / v, -1.0 / (v * v), 2.0 / (v * v * v))
    return mul(a, recip)


def univariate(a, f0, f1, f2):
    """Chain rule through a scalar function with derivatives f0, f1, f2 at
    a.value: floats, or (P,) arrays for a batch, where a float f0 holds at
    every point."""
    if isinstance(a.value, np.ndarray) and not isinstance(f0, np.ndarray):
        f0 = np.full(a.value.shape, f0)
    g1, h1 = _scalers(f1)
    hess = h1 * a.hess
    hess += _scalers(f2)[1] * _outer(a.grad, a.grad)
    return _make(f0, g1 * a.grad, hess)


def exp(a):
    e = mathlib(a.value).exp(a.value)
    return univariate(a, e, e, e)


def ln(a):
    v = a.value
    guard((v < 0.0) | _too_small(v), "ln of a non-positive value")
    return univariate(a, mathlib(v).log(v), 1.0 / v, -1.0 / (v * v))


def sqrt(a):
    v = a.value
    guard((v < 0.0) | _too_small(v), "sqrt of a non-positive value")
    r = mathlib(v).sqrt(v)
    return univariate(a, r, 0.5 / r, -0.25 / (r * v))


def sin(a):
    m = mathlib(a.value)
    s = m.sin(a.value)
    c = m.cos(a.value)
    return univariate(a, s, c, -s)


def cos(a):
    m = mathlib(a.value)
    s = m.sin(a.value)
    c = m.cos(a.value)
    return univariate(a, c, -s, -c)


def atan(a):
    v = a.value
    d = 1.0 + v * v
    return univariate(a, mathlib(v).atan(v), 1.0 / d, -2.0 * v / (d * d))


def power(a, p):
    """Real power ``a ** p``.

    Integer exponents are sign-tracked and valid for negative bases;
    fractional exponents require a strictly positive base.  Negative
    exponents reject a (near-)zero base.
    """
    p = float(p)
    v = a.value
    if p == 0.0:
        return univariate(a, 1.0, 0.0, 0.0)
    is_int = p == int(p)
    if not is_int:
        guard(v <= 0.0, "fractional power of a non-positive base")
    if p < 0.0:
        guard(_too_small(v, v), "negative power of a (near-)zero base")
    if is_int:
        k = int(p)
        f0 = _ipow(v, k)
        f1 = p * _ipow(v, k - 1)
        f2 = p * (p - 1.0) * _ipow(v, k - 2) if k != 1 else 0.0
    else:
        m = mathlib(v)
        f0 = m.pow(v, p)
        f1 = p * m.pow(v, p - 1.0)
        f2 = p * (p - 1.0) * m.pow(v, p - 2.0)
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
    guard(r2 < _GUARD * _GUARD, "atan2 undefined at the coordinate origin")
    # First and second partials of atan2 with respect to (x, y).
    th_x = -yv / r2
    th_y = xv / r2
    r4 = r2 * r2
    th_xx = 2.0 * xv * yv / r4
    th_yy = -2.0 * xv * yv / r4
    th_xy = (yv * yv - xv * xv) / r4
    gx, gy = x.grad, y.grad
    (gth_x, hth_x), (gth_y, hth_y) = _scalers(th_x), _scalers(th_y)
    grad = gth_x * gx + gth_y * gy
    cross = _outer(gx, gy)
    hess = (
        hth_x * x.hess
        + hth_y * y.hess
        + _scalers(th_xx)[1] * _outer(gx, gx)
        + _scalers(th_yy)[1] * _outer(gy, gy)
        + _scalers(th_xy)[1] * (cross + cross.mT)
    )
    return _make(mathlib(r2).atan2(yv, xv), grad, hess)


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
    jac = np.array([j.grad for j in inner]).swapaxes(0, -2)  # (..., m, d)
    grad = (jac.mT @ outer.grad[..., None])[..., 0]
    quad = jac.mT @ outer.hess @ jac
    hess = np.triu(quad) + np.triu(quad, 1).mT
    # the rows of outer.grad.T are its components, at every point of a batch
    for gi, j in zip(outer.grad.T, inner):
        hess = hess + _scalers(gi)[1] * j.hess
    return _make(outer.value, grad, hess)
