"""Second-order forward-mode jets.

A :class:`Jet2` carries the value, gradient and dense symmetric Hessian
of a scalar quantity with respect to ``dim`` independent coordinates.
All combinators propagate exact second-order Taylor data; nothing here
uses finite differences.  Hessians stay symmetric bit for bit because
every update writes identical floats to the (i, j) and (j, i) slots.

A jet holds one point or a batch of P points.  An unbatched jet has a
float ``value``, a ``(dim,)`` gradient and a ``(dim, dim)`` Hessian; a
batched jet has a leading point axis: ``value`` (P,), ``grad`` (P, dim)
and ``hess`` (P, dim, dim).  Those ``grad`` and ``hess`` are read-only
views.  The storage keeps the point axis last, C-contiguous: a
gradient is stored (dim, P) and a Hessian (dim, dim, P), or (dim, 1) and
(dim, dim, 1) for one point.  So a (P,) value scales a gradient or a
Hessian by plain broadcasting, every elementwise operation runs along P
contiguous floats, and the trailing axis of length 1 lets a point
broadcast against a batch.  Each combinator is written once, so
unbatched and batched jets mix freely and a batch gives, point for
point, the unbatched result, bit for bit: a point and a batch run the
same numpy code, elementary functions included, and an unbatched value
is stored as a Python float.

Every combinator computes the value from values alone, so a jet in dim 0
(``constant(0, v)``: a value with an empty gradient) carries, bit for
bit, the value the same computation gives in any dim, and meets the same
guards, at the cost of the value alone.

A plain number (an ``int`` or a ``float``) stays a number: ``c * a``
scales each entry by ``c`` (:func:`scale`), ``a + c`` shifts the value
and shares ``a``'s gradient and Hessian, and ``a / c`` scales by
``1.0 / c`` after ``div``'s guard, with no constant jet and no product
rule.  The value is, bit for bit, what the combinator gives with
``constant(dim, c)``, and so are the derivatives but for the sign of a
zero (``c * 0.0`` where the product rule adds ``0.0``), and but for an
infinite value, whose derivatives no ``inf * 0.0`` turns into NaN.
"""

import numpy as np

from ._kernels import triu
from .errors import DimensionMismatch, DomainError

# Relative threshold below which a denominator / log argument / radicand
# is treated as singular rather than merely small.
_GUARD = 1e-12


def guard(bad, message, error=DomainError):
    """Raise ``error(message)`` if ``bad`` holds at any point.

    ``bad`` is a comparison on a float or on a batch, written so that it
    is true at a bad point; NaN compares false, so a NaN value passes a
    guard on a batch as it does on a float.  On a batch the error carries
    the bad rows as ``err.rows``, a boolean (P,) array, so that a caller
    can set them aside and evaluate the others again.
    """
    if bad is True or (bad is not False and bad.any()):
        raise _error(error, message, bad)


def _error(error, message, bad):
    # built outside ``guard``, so that no frame the error's traceback
    # holds refers back to it: a cycle would keep the batch alive until a
    # garbage collection
    err = error(message)
    if isinstance(bad, np.ndarray):
        err.rows = bad
    return err


def _checked(result, arg):
    """A numpy ``result`` at ``arg``, a float or a batch, raising
    OverflowError where a finite argument gave an infinite result."""
    guard(np.isinf(result) & np.isfinite(arg), "math range error", OverflowError)
    return result


def mexp(v):
    """``exp`` of a float or of a batch by one ``np.exp`` call, raising
    OverflowError, with no RuntimeWarning, where a finite ``v`` overflows."""
    with np.errstate(over="ignore"):
        return _checked(np.exp(v), v)


def _too_small(v, scale=1.0):
    # |v| < _GUARD * max(1, |scale|), in a form that broadcasts
    m = abs(v)
    return (m < _GUARD) | (m < _GUARD * abs(scale))


def _outer(a, b):
    # (dim, P) and (dim, P) stored gradients -> (dim, dim, P)
    return a[:, None] * b[None, :]


def _mirror(m):
    """The transpose of a stored (dim, dim, P) Hessian."""
    return m.transpose(1, 0, 2)


_new = object.__new__
_set = object.__setattr__


def _init(jet, value, grad, hess):
    if isinstance(value, np.ndarray):
        value.setflags(write=False)
    else:
        value = float(value)
    grad.setflags(write=False)
    hess.setflags(write=False)
    _set(jet, "value", value)
    _set(jet, "_grad", grad)
    _set(jet, "_hess", hess)
    return jet


def _make(value, grad, hess):
    """A jet around point-last arrays a combinator has just built: no
    copy, no checks."""
    return _init(_new(Jet2), value, grad, hess)


def _point_last(a, batched):
    """The point-last view of a point-first gradient or Hessian: the
    point axis moved last, or a trailing axis of length 1 for one point."""
    return a.transpose(*range(1, a.ndim), 0) if batched else a[..., None]


def _as_value(value):
    """(value, batch shape): a float and (), or a float copy of a batch
    and its shape."""
    if isinstance(value, (int, float)):
        return float(value), ()
    value = np.array(value, dtype=float)
    if value.ndim == 0:
        return float(value), ()
    return value, value.shape


# the plain numbers a jet combines with, as a constant factor or shift
_NUMBER = (int, float)


class Jet2:
    """Immutable (value, gradient, Hessian) triple in ``dim`` variables,
    at one point or with a leading axis of P points."""

    __slots__ = ("value", "_grad", "_hess")

    def __init__(self, value, grad, hess):
        value, shape = _as_value(value)
        grad = np.asarray(grad, dtype=float)
        hess = np.asarray(hess, dtype=float)
        if len(shape) > 1 or grad.ndim != len(shape) + 1 or grad.shape[:-1] != shape:
            raise DimensionMismatch(
                f"gradient shape {grad.shape} does not fit value shape {shape}"
            )
        if hess.shape != grad.shape + grad.shape[-1:]:
            raise DimensionMismatch(
                f"Hessian shape {hess.shape} does not match gradient shape {grad.shape}"
            )
        batched = bool(shape)
        _init(
            self,
            value,
            np.array(_point_last(grad, batched), order="C"),
            np.array(_point_last(hess, batched), order="C"),
        )

    def __setattr__(self, name, _value):
        raise AttributeError(f"Jet2 is immutable; cannot set {name!r}")

    @property
    def grad(self):
        """The gradient, (dim,) or (P, dim): a read-only view."""
        g = self._grad
        return g.T if isinstance(self.value, np.ndarray) else g[:, 0]

    @property
    def hess(self):
        """The Hessian, (dim, dim) or (P, dim, dim): a read-only view."""
        h = self._hess
        return h.transpose(2, 0, 1) if isinstance(self.value, np.ndarray) else h[..., 0]

    @property
    def dim(self):
        return self._grad.shape[0]

    def __repr__(self):
        return f"Jet2(value={self.value!r}, grad={self.grad.tolist()!r})"

    def take(self, rows):
        """The point of the row ``rows`` (an int), unbatched, or the batch
        of the rows ``rows`` (a slice, an index or a boolean array)."""
        at = (..., rows, None) if isinstance(rows, (int, np.integer)) else (..., rows)
        return _make(
            self.value[rows],
            np.ascontiguousarray(self._grad[at]),
            np.ascontiguousarray(self._hess[at]),
        )

    # arithmetic via the module-level combinators, where a plain number
    # scales or shifts the jet; NotImplemented for anything else
    def __add__(self, other):
        if isinstance(other, _NUMBER):
            return _make(self.value + float(other), self._grad, self._hess)
        return add(self, other) if isinstance(other, Jet2) else NotImplemented

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, _NUMBER):
            return _make(self.value - float(other), self._grad, self._hess)
        return sub(self, other) if isinstance(other, Jet2) else NotImplemented

    def __rsub__(self, other):
        if isinstance(other, _NUMBER):
            return _make(float(other) - self.value, -self._grad, -self._hess)
        return NotImplemented

    def __mul__(self, other):
        if isinstance(other, _NUMBER):
            return scale(self, float(other))
        return mul(self, other) if isinstance(other, Jet2) else NotImplemented

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, _NUMBER):
            # by the reciprocal, as ``div`` multiplies by its value
            return scale(self, 1.0 / _divisor(float(other)))
        return div(self, other) if isinstance(other, Jet2) else NotImplemented

    def __rtruediv__(self, other):
        if isinstance(other, _NUMBER):
            return scale(_reciprocal(self), float(other))
        return NotImplemented

    def __neg__(self):
        return _make(-self.value, -self._grad, -self._hess)

    def __pow__(self, p):
        return power(self, p)


def _check_same_dim(a, b):
    if a.dim != b.dim:
        raise DimensionMismatch(f"jet dims differ: {a.dim} vs {b.dim}")


def seed(dim, coord_index, value):
    """Jet of the coordinate function ``y -> y[coord_index]`` at ``value``
    (a float, or a (P,) array for a batch)."""
    if not 0 <= coord_index < dim:
        raise DimensionMismatch(f"coord_index {coord_index} out of range for dim {dim}")
    value, shape = _as_value(value)
    g = np.zeros((dim,) + (shape or (1,)))
    g[coord_index] = 1.0
    return _make(value, g, np.zeros((dim,) + g.shape))


def coordinates(dim, coords):
    """The jets of the columns of ``coords``, one point (n,) or rows
    (P, n): their seeds in ``dim`` variables, or in dim 0 their values
    alone."""
    return [seed(dim, i, c) if dim else constant(0, c)
            for i, c in enumerate(np.asarray(coords, dtype=float).T)]


def constant(dim, value):
    """Jet of a constant: zero gradient and Hessian.  In dim 0 it is a
    value alone, which every combinator carries through as it would the
    value of a jet in more variables."""
    if dim < 0:
        raise DimensionMismatch("dim must not be negative")
    value, shape = _as_value(value)
    shape = (dim,) + (shape or (1,))
    return _make(value, np.zeros(shape), np.zeros((dim,) + shape))


def add(a, b):
    _check_same_dim(a, b)
    return _make(a.value + b.value, a._grad + b._grad, a._hess + b._hess)


def sub(a, b):
    _check_same_dim(a, b)
    return _make(a.value - b.value, a._grad - b._grad, a._hess - b._hess)


def mul(a, b):
    _check_same_dim(a, b)
    # Product rule, in the float order of the unbatched form.
    av, bv = a.value, b.value
    grad = av * b._grad
    grad += bv * a._grad
    cross = _outer(a._grad, b._grad)
    hess = av * b._hess
    hess += bv * a._hess
    hess += cross + _mirror(cross)
    return _make(av * bv, grad, hess)


def scale(a, c):
    """The jet of ``c * a`` for a float ``c``: each entry times ``c``, with
    no product rule."""
    return _make(a.value * c, c * a._grad, c * a._hess)


def div(a, b):
    _check_same_dim(a, b)
    return mul(a, _reciprocal(b))


def _divisor(v):
    """``v``, a float or a batch, once no value of it is (near-)zero."""
    guard(_too_small(v, v), "jet division by (near-)zero value", ZeroDivisionError)
    return v


def _reciprocal(b):
    v = _divisor(b.value)
    return univariate(b, 1.0 / v, -1.0 / (v * v), 2.0 / (v * v * v))


def univariate(a, f0, f1, f2):
    """Chain rule through a scalar function with derivatives f0, f1, f2 at
    a.value: floats, or (P,) arrays for a batch, where a float f0 holds at
    every point."""
    if isinstance(a.value, np.ndarray) and not isinstance(f0, np.ndarray):
        f0 = np.full(a.value.shape, f0)
    hess = f1 * a._hess
    hess += f2 * _outer(a._grad, a._grad)
    return _make(f0, f1 * a._grad, hess)


def exp(a):
    e = mexp(a.value)
    return univariate(a, e, e, e)


def ln(a):
    v = a.value
    guard((v < 0.0) | _too_small(v), "ln of a non-positive value")
    return univariate(a, np.log(v), 1.0 / v, -1.0 / (v * v))


def sqrt(a):
    v = a.value
    guard((v < 0.0) | _too_small(v), "sqrt of a non-positive value")
    r = np.sqrt(v)
    return univariate(a, r, 0.5 / r, -0.25 / (r * v))


def sin(a):
    s = np.sin(a.value)
    c = np.cos(a.value)
    return univariate(a, s, c, -s)


def cos(a):
    s = np.sin(a.value)
    c = np.cos(a.value)
    return univariate(a, c, -s, -c)


def atan(a):
    v = a.value
    d = 1.0 + v * v
    return univariate(a, np.arctan(v), 1.0 / d, -2.0 * v / (d * d))


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
        with np.errstate(over="ignore"):
            f0 = _checked(np.power(v, p), v)
            f1 = p * _checked(np.power(v, p - 1.0), v)
            f2 = p * (p - 1.0) * _checked(np.power(v, p - 2.0), v)
    return univariate(a, f0, f1, f2)


def rpow(base, p):
    """Real power of a plain float or of a (P,) batch of floats: the
    value-only twin of :func:`power`.

    Same domain, but only an exact zero base is a pole (no near-zero
    guard), and integer powers use ``np.power`` rather than repeated
    multiplication, so the last bits can differ from ``power(...).value``.
    A float and a batch are raised by one ``np.power`` call, so a row is
    bit for bit its base raised alone; the rows that overflow raise
    OverflowError together, as a float does alone.
    """
    if p == int(p):
        if p < 0.0:
            guard(base == 0.0, "negative power of zero")
    else:
        guard(base <= 0.0, f"fractional power {p!r} of a non-positive value")
    with np.errstate(over="ignore"):
        return _checked(np.power(base, float(p)), base)


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
    gx, gy = x._grad, y._grad
    grad = th_x * gx + th_y * gy
    cross = _outer(gx, gy)
    hess = (
        th_x * x._hess
        + th_y * y._hess
        + th_xx * _outer(gx, gx)
        + th_yy * _outer(gy, gy)
        + th_xy * (cross + _mirror(cross))
    )
    return _make(np.arctan2(yv, xv), grad, hess)


def compose(outer, inner):
    """Second-order chain rule through a map.

    ``outer`` is a jet in ``len(inner)`` variables evaluated at the map
    image; ``inner`` is a sequence of jets of the map components, all in
    a common source dimension.  Returns the jet of the composite in the
    source variables.  The Hessian is symmetrized by mirroring the upper
    triangle so exact symmetry survives the matrix products.

    The matrix products run point-first, on C-order copies of the public
    views: numpy hands each point's product to BLAS only where a matrix
    has a unit stride, and its own loop sums in another float order.  The
    result is stored point-last, and the terms of the inner Hessians are
    added along the point axis.
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
    jac = np.array(np.broadcast_arrays(*(j.grad for j in inner))).swapaxes(0, -2)  # (..., m, d)
    grad = (jac.mT @ np.ascontiguousarray(outer.grad)[..., None])[..., 0]
    quad = jac.mT @ np.ascontiguousarray(outer.hess) @ jac
    batched = quad.ndim == 3
    # each slot is its upper-triangle entry plus 0.0, so that a -0.0 reads
    # 0.0 as in a sum of the two triangles, and both slots hold one float
    quad = _point_last(quad, batched)
    hess = np.add(quad, 0.0, out=np.empty(quad.shape))
    lower = triu(d, 1)[::-1]  # the strict lower triangle, (col, row) of the upper
    hess[lower] = _mirror(hess)[lower]
    # the rows of the stored outer gradient are its components, at every point
    for gi, j in zip(outer._grad, inner):
        hess += gi * j._hess
    value = outer.value
    if batched and not isinstance(value, np.ndarray):
        value = np.full(len(grad), value)
    return _make(value, np.ascontiguousarray(_point_last(grad, batched)), hess)
