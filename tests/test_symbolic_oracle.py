"""A symbolic oracle: the generators' coefficients, the catalog families'
jets (at their defaults and at the ``_OVERRIDES`` specs of
``test_cli.py``) and their pushforwards against closed forms written out
and differentiated in sympy.  The module is skipped, through
``pytest.importorskip``, where sympy is not installed.

Each comparison is relative: per row, the largest gap of a part (the
coefficients, their Jacobian; the value, the gradient, the Hessian)
over the largest magnitude of that part in the oracle.
"""

import numpy as np
import pytest
from test_cli import _OVERRIDES

from condsym import jet2
from condsym.cli import parse_family
from condsym.errors import DomainError
from condsym.fields import ModelParams, ProfileFunction
from condsym.solutions import (
    DEFAULT_FAMILIES,
    SolutionField,
    default_grid,
    default_params,
)
from condsym.symmetry import GenJab, GenXn, GenYk, Rot, Xn, Yk, Yphi, pushforward_field

sympy = pytest.importorskip("sympy")

_TOL = 1e-12


def _rel_gap(got, want):
    """The worst over rows of max|got - want| / max|want|, each over the
    entries of a row; a row whose oracle is all zero must match exactly."""
    got, want = (np.asarray(a, dtype=float).reshape(len(a), -1) for a in (got, want))
    gap = np.max(np.abs(got - want), axis=1)
    scale = np.max(np.abs(want), axis=1)
    return float(np.max(gap / np.maximum(scale, 1e-300)))


# ---------------------------------------------------------------------------
# the generators X_n, Y_k and J_ab over y = (t, x_1..x_N, u)


def _symbolic_generators(N, z):
    """(generator, xi over y as a sympy list) for X_n, n = -2..3, Y_k,
    k = -1..2, on every axis, and J_ab, a < b, at N and z."""
    z = sympy.nsimplify(z)
    t, *xs, u = ys = sympy.symbols(f"t x1:{N + 1} u")
    out = []
    for n in range(-2, 4):
        xi = [z * t ** (n + 1)] + [(n + 1) * t**n * v for v in xs + [u]]
        out.append((GenXn(n), xi))
    for k in range(-1, 3):
        for axis in range(1, N + 1):
            xi = [sympy.Integer(0)] * (N + 2)
            xi[axis] = t**k
            out.append((GenYk(k, axis), xi))
    for a in range(1, N + 1):
        for b in range(a + 1, N + 1):
            xi = [sympy.Integer(0)] * (N + 2)
            xi[b], xi[a] = ys[a], -ys[b]
            out.append((GenJab(a, b), xi))
    return ys, out


def _generator_gaps(N, z, rows):
    """(generator, gap of xi, gap of dxi) of each generator at N and z,
    at ``rows`` of y."""
    ys, gens = _symbolic_generators(N, z)
    params = ModelParams(N, z)
    out = []
    for gen, xi in gens:
        xi = sympy.Matrix(xi)
        oracle = sympy.lambdify(ys, [list(xi), list(xi.jacobian(ys))], modules="math")
        want_xi, want_dxi = (np.array(w) for w in zip(*(oracle(*r) for r in rows)))
        got_xi, got_dxi = gen.coeffs(params, rows)
        out.append((gen, _rel_gap(got_xi, want_xi), _rel_gap(got_dxi, want_dxi)))
    return out


def _y_rows(N, count=5):
    rng = np.random.default_rng(N)
    return np.column_stack(
        (rng.uniform(0.5, 2.0, count), rng.uniform(-2.0, 2.0, (count, N + 1)))
    )


@pytest.mark.parametrize("z", [0.0, 0.5, 2.0])
@pytest.mark.parametrize("N", [1, 2, 3])
def test_generator_coefficients_match_the_symbolic_oracle(N, z):
    gaps = _generator_gaps(N, z, _y_rows(N))
    assert len(gaps) == 6 + 4 * N + N * (N - 1) // 2  # 138 over the nine cases
    for gen, xi_gap, dxi_gap in gaps:
        assert xi_gap <= _TOL and dxi_gap <= _TOL, (str(gen), xi_gap, dxi_gap)


def test_the_generator_oracle_flags_a_moved_jacobian_slot(monkeypatch):
    # a negative control: one slot of X_n's dxi moved by 1e-9
    coeffs = GenXn.coeffs

    def moved(self, params, y):
        xi, dxi = coeffs(self, params, y)
        dxi[:, 1, 1] += 1e-9
        return xi, dxi

    monkeypatch.setattr(GenXn, "coeffs", moved)
    for gen, xi_gap, dxi_gap in _generator_gaps(2, 2.0, _y_rows(2)):
        assert xi_gap <= _TOL
        assert (dxi_gap > _TOL) is isinstance(gen, GenXn), str(gen)


# ---------------------------------------------------------------------------
# the default catalog families, written out from their stated parameters


def _conical(c, z, X, Y):
    """2c * r * cos((1-z)*theta)**(1/(1-z)), theta the polar angle of (X, Y)."""
    r = sympy.sqrt(X**2 + Y**2)
    return 2 * c * r * sympy.cos((1 - z) * sympy.atan2(Y, X)) ** (1 / (1 - z))


def _closed_form(name, t, x):
    """The family ``name`` of the default catalog as a sympy expression in
    t and the spatial symbols ``x``."""
    half = sympy.Rational(1, 2)
    if name == "one-dim-z0":
        return x[0] * sympy.exp(-t) + 2 + t
    if name == "one-dim-z1":
        return half * x[0] + 2 + half * t
    if name == "one-dim-generic":
        return 1 + t**2
    if name == "radial-z1":
        # X_1 = x_1 + e_1 t^((n+1)/z) with e_1 = 1/2, n = 1, z = 1
        return sympy.sqrt((x[0] + half * t**2) ** 2 + x[1] ** 2)
    if name == "general-z":
        # X_1 = x_1 + t^((n+1)/z) with n = 1, z = 2
        return _conical(1, sympy.Integer(2), x[0] + t, x[1])
    if name == "z0-sqrt":
        return sympy.sqrt(25 * x[0] ** 2 - 2 * t * (x[0] ** 2 + x[1] ** 2))
    if name == "z0-linear":
        return x[0] * sympy.exp(-t) + x[1] * sympy.sin(2 * t)
    if name == "general-yphi":
        X = x[0] + sympy.Rational(2, 5) * sympy.sin(t)
        return _conical(1, sympy.Integer(2), X, x[1] + sympy.Rational(1, 4))
    if name == "ma-only":
        r1, r2 = x[0] / x[1], x[0] / x[2]
        return x[0] * (1 + r1 + r1 * r2 + half * r2**2)
    if name == "stationary":
        # h = 2 Re(a exp(b w)), a = 1, b = 1/2; u = h^(1/(1-z)) at z = 2
        return 1 / (2 * sympy.exp(half * x[0]) * sympy.cos(half * x[1]))
    raise KeyError(name)


def _override_form(name, t, x):
    """The family ``name`` at its ``_OVERRIDES`` spec as a sympy expression
    in t and the spatial symbols ``x``."""
    R = sympy.Rational
    if name == "one-dim-z0":
        return 2 * x[0] * sympy.exp(-t) + 1 + 2 * t
    if name == "one-dim-z1":
        return R(3, 2) * x[0] + sympy.exp(-t)
    if name == "one-dim-generic":
        return 2 + t**2
    if name == "radial-z1":
        # X_a = x_a + e_a t^((n+1)/z) with n = 2, z = 1
        return 2 * sympy.sqrt((x[0] + R(1, 4) * t**3) ** 2 + (x[1] + R(1, 10) * t**3) ** 2)
    if name == "general-z":
        # X_a = x_a + e_a t^((n+1)/z) with n = 2, z = 3
        return _conical(2, sympy.Integer(3), x[0] + R(1, 2) * t, x[1] + R(1, 10) * t)
    if name == "z0-sqrt":
        return sympy.sqrt(16 * x[0] ** 2 - 2 * t * (x[0] ** 2 + x[1] ** 2))
    if name == "z0-linear":
        return x[0] * sympy.sin(t) + x[1] * t
    if name == "general-yphi":
        X, Y = x[0] + R(3, 10), x[1] + R(1, 5) * sympy.sin(t)
        return _conical(2, sympy.Integer(3), X, Y)
    if name == "ma-only":
        return x[0] * sympy.sin(x[0] / x[1] + R(1, 2))
    if name == "stationary":
        # f(w) = 2 + w/2 + w^2/2, h = 2 Re f(x1 + i x2); u = h^(1/(1-z)) at z = 3
        return (4 + x[0] + x[0] ** 2 - x[1] ** 2) ** R(-1, 2)
    raise KeyError(name)


def _rows_inside(field, params, rows, count=120):
    """Up to ``count`` of ``rows``, spread over them, inside the domain."""
    while True:
        try:
            field.values_many(params, rows)
            break
        except DomainError as exc:
            rows = rows[~exc.rows]
    return rows[:: max(1, len(rows) // count)]


def _jet_oracle(u, ys, rows):
    """(value, gradient, Hessian) of the expression ``u`` in the symbols
    ``ys`` at ``rows``; each mixed partial is differentiated once, for
    the upper triangle, and mirrored."""
    d = len(ys)
    grad = [sympy.diff(u, y) for y in ys]
    upper = [sympy.diff(grad[i], ys[j]) for i in range(d) for j in range(i, d)]
    oracle = sympy.lambdify(ys, [u, grad, upper], modules="math", cse=True)
    value, grad, upper = (np.array(w, dtype=float) for w in zip(*(oracle(*r) for r in rows)))
    hess = np.empty((len(rows), d, d))
    iu = np.triu_indices(d)
    hess[:, iu[0], iu[1]] = hess[:, iu[1], iu[0]] = upper
    return value, grad, hess


def _family_gaps(name, jets, rows, form=_closed_form):
    """(value, gradient, Hessian) gaps of ``jets`` at ``rows`` from the
    closed form ``form(name, t, x)``."""
    t, *x = ys = sympy.symbols(f"t x1:{jets.dim}")
    want = _jet_oracle(form(name, t, x), ys, rows)
    got = (jets.value, jets.grad, jets.hess)
    return [_rel_gap(g, w) for g, w in zip(got, want)]


def _family_jets(fam):
    params = default_params(fam)
    field = SolutionField(fam)
    rows = _rows_inside(field, params, default_grid(fam).coords())
    return field.evaluate_many(params, rows), rows


@pytest.mark.parametrize("name", sorted(DEFAULT_FAMILIES))
def test_family_jets_match_the_symbolic_oracle(name):
    jets, rows = _family_jets(DEFAULT_FAMILIES[name])
    assert len(rows) >= 100
    value_gap, grad_gap, hess_gap = _family_gaps(name, jets, rows)
    assert max(value_gap, grad_gap, hess_gap) <= _TOL, (value_gap, grad_gap, hess_gap)


@pytest.mark.parametrize("name", sorted(_OVERRIDES))
def test_overridden_family_jets_match_the_symbolic_oracle(name):
    jets, rows = _family_jets(parse_family(f"{name}:{_OVERRIDES[name]}"))
    assert len(rows) >= 100
    value_gap, grad_gap, hess_gap = _family_gaps(name, jets, rows, _override_form)
    assert max(value_gap, grad_gap, hess_gap) <= _TOL, (value_gap, grad_gap, hess_gap)


def test_the_family_oracle_flags_a_moved_hessian_entry():
    # a negative control: Hessian entry (1, 2) and its mirror moved by 1e-9
    jets, rows = _family_jets(DEFAULT_FAMILIES["radial-z1"])
    hess = jets.hess.copy()
    hess[:, 1, 2] += 1e-9
    hess[:, 2, 1] += 1e-9
    moved = jet2.Jet2(jets.value, jets.grad, hess)
    value_gap, grad_gap, hess_gap = _family_gaps("radial-z1", moved, rows)
    assert max(value_gap, grad_gap) <= _TOL < hess_gap


# ---------------------------------------------------------------------------
# pushforwards: the family's closed form at the closed-form inverse map,
# divided by the inverse's factor


def _profile(prof, t):
    """The profile ``prof`` as a sympy expression in t."""
    p = [sympy.nsimplify(c) for c in prof.params]
    if prof.kind == "sin":
        return p[0] * sympy.sin(p[1] * t + p[2])
    if prof.kind == "exp":
        return p[0] * sympy.exp(p[1] * t)
    raise KeyError(prof.kind)


def _inverse_map(g, z, t, x):
    """(t, x, A) of g⁻¹ at the query point (t, x) in sympy: the source
    point and the factor by which the inverse scales the field."""
    if isinstance(g, Xn):
        n, eps = g.n, sympy.nsimplify(g.eps)
        if n == -1:
            return t - z * eps, x, 1
        if n == 0:
            a = sympy.exp(-eps)
            return t * sympy.exp(-z * eps), [v * a for v in x], a
        s = 1 + z * n * eps * t**n
        a = s ** (-(n + 1) / (z * n))
        return t * s ** sympy.Rational(-1, n), [v * a for v in x], a
    if isinstance(g, Yk):
        return t, [v - sympy.nsimplify(c) * t**g.k for v, c in zip(x, g.v)], 1
    if isinstance(g, Yphi):
        shifted = zip(x, g.e, g.profiles)
        return t, [v - sympy.nsimplify(c) * _profile(p, t) for v, c, p in shifted], 1
    if isinstance(g, Rot):
        c, s = sympy.cos(sympy.nsimplify(g.angle)), sympy.sin(sympy.nsimplify(g.angle))
        x = list(x)
        xa, xb = x[g.a - 1], x[g.b - 1]
        x[g.a - 1], x[g.b - 1] = c * xa + s * xb, -s * xa + c * xb
        return t, x, 1
    raise TypeError(g)


_EPS = 0.05
_SIN, _EXP = ProfileFunction("sin", (1.0, 1.0, 0.5)), ProfileFunction("exp", (2.0, -0.5))
_PUSHFORWARDS = (
    [("general-z", Xn(n, _EPS)) for n in range(-2, 4)]
    + [("z0-linear", Xn(n, _EPS)) for n in (-1, 0)]
    + [("general-z", Yk(k, (0.3, -0.2))) for k in (-1, 0, 2)]
    + [("z0-linear", Yphi((_SIN, _EXP), (0.3, -0.2))), ("z0-sqrt", Rot(1, 2, 0.4))]
)


def _pushforward_gaps(name, g, count=10):
    """(value, gradient, Hessian) gaps of g's pushforward of the family
    ``name`` at about ``count`` default-grid rows inside its domain."""
    fam = DEFAULT_FAMILIES[name]
    params = default_params(fam)
    field = pushforward_field(g, params, SolutionField(fam))
    rows = _rows_inside(field, params, default_grid(fam).coords(), count)
    t, *x = ys = sympy.symbols(f"t x1:{fam.spatial_dim + 1}")
    ts, xs, a = _inverse_map(g, sympy.nsimplify(params.z), t, x)
    want = _jet_oracle(_closed_form(name, ts, xs) / a, ys, rows)
    jets = field.evaluate_many(params, rows)
    got = (jets.value, jets.grad, jets.hess)
    return len(rows), [_rel_gap(part, w) for part, w in zip(got, want)]


def _case_id(case):
    name, g = case
    label = {Xn: "n", Yk: "k"}.get(type(g))
    return f"{name}-{type(g).__name__}" + (f"({label}={getattr(g, label)})" if label else "")


@pytest.mark.parametrize("name, g", _PUSHFORWARDS, ids=map(_case_id, _PUSHFORWARDS))
def test_pushforward_jets_match_the_symbolic_oracle(name, g):
    count, gaps = _pushforward_gaps(name, g)
    assert count >= 8
    assert max(gaps) <= _TOL, gaps


def test_the_pushforward_oracle_flags_a_shift_by_e_over_phi(monkeypatch):
    # a negative control: Yphi.act shifting by e/phi(t) rather than e*phi(t)
    def divided(self, params, t, x):
        shifted = zip(x, self.e, self.profiles)
        return t, tuple(v + c / prof.jet(t) for v, c, prof in shifted), 1.0

    monkeypatch.setattr(Yphi, "act", divided)
    _, (value_gap, grad_gap, hess_gap) = _pushforward_gaps(*_PUSHFORWARDS[-2])
    assert min(value_gap, grad_gap, hess_gap) > _TOL
