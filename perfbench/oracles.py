"""Reference computations and output checks that share no code with condsym.

Everything here is plain numpy written from the formulas in the condsym
README and docstrings: closed-form family values, the domain rules the
finite-difference stencil must respect, monomial derivatives for the
polynomial kernel, and validators for every report the workloads read.
Each validator returns a list of problems; an empty list means the
output is accepted.
"""

import json
import math

import numpy as np

# ---------------------------------------------------------------------------
# strict JSON


def _reject_constant(name):
    raise ValueError(f"non-finite JSON constant {name}")


def strict_json(text):
    """Parse RFC 8259 JSON; bare NaN, Infinity and -Infinity raise."""
    return json.loads(text, parse_constant=_reject_constant)


# ---------------------------------------------------------------------------
# closed-form family values


def profile(spec, t):
    """Value of a (kind, params) time profile at the array ``t``."""
    kind, p = spec
    t = np.asarray(t, dtype=float)
    if kind == "const":
        return np.full_like(t, p[0])
    if kind == "poly":
        return np.polynomial.polynomial.polyval(t, p)
    if kind == "exp":
        return p[0] * np.exp(p[1] * t)
    if kind == "sin":
        return p[0] * np.sin(p[1] * t + p[2])
    raise ValueError(f"unknown profile kind {kind!r}")


# graded order of the ma-only ratio polynomial coefficients
POLY2_EXPONENTS = ((0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2))


def _conical(c, z, X, Y):
    theta = np.arctan2(Y, X)
    arg = np.cos((1.0 - z) * theta)
    r2 = X * X + Y * Y
    ok = (r2 > 1e-12) & (arg > 1e-6)
    with np.errstate(invalid="ignore", divide="ignore"):
        u = 2.0 * c * np.sqrt(r2) * np.power(np.where(ok, arg, 1.0), 1.0 / (1.0 - z))
    return np.where(ok, u, np.nan), r2, arg


def family_value(name, k, t, x, margin=1.0):
    """u(t, x) of a catalog family with spec values ``k``.

    ``t`` has shape (P,), ``x`` shape (P, N).  Points outside the
    family's domain come back as NaN.  ``margin`` > 1 tightens every
    domain floor by that factor, for points that must stay clear of it.
    """
    t = np.asarray(t, dtype=float)
    x = np.asarray(x, dtype=float)
    if name == "one-dim-z0":
        return k["c"] * x[:, 0] * np.exp(-t) + profile(k["q"], t)
    if name == "one-dim-z1":
        return k["c"] * x[:, 0] + profile(k["q"], t)
    if name == "one-dim-generic":
        return profile(k["q"], t)
    if name == "radial-z1":
        X = x[:, 0] + k["e1"] * t ** (k["n"] + 1.0)
        Y = x[:, 1] + k["e2"] * t ** (k["n"] + 1.0)
        r2 = X * X + Y * Y
        return np.where(r2 > 1e-12 * margin, k["c"] * np.sqrt(r2), np.nan)
    if name in ("general-z", "general-yphi"):
        z = k["z"]
        if name == "general-z":
            shift = t ** ((k["n"] + 1.0) / z)
            X = x[:, 0] + k["e1"] * shift
            Y = x[:, 1] + k["e2"] * shift
        else:
            X = x[:, 0] + k["e1"] * profile(k["phi1"], t)
            Y = x[:, 1] + k["e2"] * profile(k["phi2"], t)
        u, r2, arg = _conical(k["c"], z, X, Y)
        return np.where((r2 > 1e-12 * margin) & (arg > 1e-6 * margin), u, np.nan)
    if name == "z0-sqrt":
        x1, x2 = x[:, 0], x[:, 1]
        ok = np.abs(x2) > 1e-12 * margin
        ratio = x1 / np.where(ok, x2, 1.0)
        rad = profile(k["psi"], ratio) * x1 * x1 - 2.0 * t * (x1 * x1 + x2 * x2)
        ok &= rad >= 1e-10 * margin
        return np.where(ok, np.sqrt(np.where(ok, rad, 1.0)), np.nan)
    if name == "z0-linear":
        return x[:, 0] * profile(k["psi1"], t) + x[:, 1] * profile(k["psi2"], t)
    if name == "ma-only":
        x1 = x[:, 0]
        rest = x[:, 1:]
        ok = np.all(np.abs(rest) > 1e-12 * margin, axis=1)
        ratios = x1[:, None] / np.where(ok[:, None], rest, 1.0)
        phi = np.zeros_like(x1)
        for (e1, e2), coeff in zip(POLY2_EXPONENTS, k["phi"]):
            phi = phi + coeff * ratios[:, 0] ** e1 * ratios[:, 1] ** e2
        return np.where(ok, x1 * phi, np.nan)
    raise ValueError(f"no closed form for family {name!r}")


def fd_derivatives(name, k, t, x, h, margin=1.0):
    """Central differences of the closed form at every point, step ``h``.

    The same stencils condsym's FD cross-check uses: (f+ - f-)/2h and
    (f+ - 2f0 + f-)/h**2 per axis, (f++ - f+- - f-+ + f--)/4h**2 per
    pair.  Returns shape (P, d + d + d(d-1)/2); NaN where a stencil
    point leaves the domain.
    """
    base = np.column_stack([t, x])
    d = base.shape[1]

    def f(offset):
        pts = base + offset
        return family_value(name, k, pts[:, 0], pts[:, 1:], margin)

    def e(i, s):
        o = np.zeros(d)
        o[i] = s * h
        return o

    f0 = f(np.zeros(d))
    cols = []
    for i in range(d):
        fp, fm = f(e(i, 1)), f(e(i, -1))
        cols.append((fp - fm) / (2.0 * h))
        cols.append((fp - 2.0 * f0 + fm) / (h * h))
    for i in range(d):
        for j in range(i + 1, d):
            fpp, fpm = f(e(i, 1) + e(j, 1)), f(e(i, 1) + e(j, -1))
            fmp, fmm = f(e(i, -1) + e(j, 1)), f(e(i, -1) + e(j, -1))
            cols.append((fpp - fpm - fmp + fmm) / (4.0 * h * h))
    return np.column_stack(cols)


def fd_truncation(name, k, t, x, h, margin=1.0):
    """Estimated truncation error of the step-h differences, relative as
    in the cross-check: |D(h) - D(2h)| / (1 + |D(h)|), max per point.
    Both schemes are second order, so D(2h) - D(h) is about three times
    the error of D(h).  NaN where a stencil leaves the domain."""
    dh = fd_derivatives(name, k, t, x, h, margin)
    d2h = fd_derivatives(name, k, t, x, 2.0 * h, margin)
    return np.max(np.abs(dh - d2h) / (1.0 + np.abs(dh)), axis=1)


# ---------------------------------------------------------------------------
# kernel oracles


def monomial_jet(powers, coeffs, x):
    """Value, gradient and Hessian of sum_m c_m prod_i x_i**p_mi, from the
    closed-form derivatives of each monomial."""
    powers = np.asarray(powers, dtype=float)
    d = powers.shape[1]
    value = 0.0
    grad = np.zeros(d)
    hess = np.zeros((d, d))
    for p, c in zip(powers, coeffs):
        value += c * np.prod(x**p)
        for i in range(d):
            if p[i] == 0:
                continue
            q = p.copy()
            q[i] -= 1
            grad[i] += c * p[i] * np.prod(x**q)
            for j in range(d):
                r = q.copy()
                if r[j] == 0:
                    continue
                coef = c * p[i] * r[j]
                r[j] -= 1
                hess[i, j] += coef * np.prod(x**r)
    return value, grad, hess


def close(a, b, rtol=1e-12):
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    scale = 1.0 + float(np.max(np.abs(b))) if b.size else 1.0
    return bool(np.all(np.isfinite(a)) and np.max(np.abs(a - b), initial=0.0) <= rtol * scale)


# ---------------------------------------------------------------------------
# report validators


def _finite(v):
    return isinstance(v, (int, float)) and not isinstance(v, bool) and math.isfinite(v)


def check_residual_rows(rows, designated, grid_points, tol=1e-8):
    """Rows of a check/transform report against the benchmark's expectations."""
    problems = []
    got = sorted(r.get("equation") for r in rows)
    if got != sorted(designated):
        problems.append(f"equations {got} != designated {sorted(designated)}")
    for r in rows:
        eq = r.get("equation")
        ev, ex = r.get("points_evaluated"), r.get("points_excluded")
        mx = r.get("max_abs")
        if not (_finite(mx) and mx <= tol):
            problems.append(f"{eq}: max_abs {mx!r} above {tol}")
        if not (_finite(r.get("rms")) and _finite(mx) and r["rms"] <= mx * (1 + 1e-9)):
            problems.append(f"{eq}: rms {r.get('rms')!r} not finite or above max_abs")
        if not (isinstance(ev, int) and ev >= 1):
            problems.append(f"{eq}: points_evaluated {ev!r}")
        elif ev + ex != grid_points:
            problems.append(f"{eq}: {ev} + {ex} points != grid size {grid_points}")
        if r.get("pass") is not True:
            problems.append(f"{eq}: report says pass={r.get('pass')!r}")
    return problems


def check_identity_rows(rows, n_range, points, z, spatial_dim, tol=1e-8):
    problems = []
    ns = [r.get("n") for r in rows]
    if ns != list(range(n_range[0], n_range[1] + 1)):
        problems.append(f"n values {ns}")
    for r in rows:
        n = r.get("n")
        if r.get("points") != points or r.get("z") != z or r.get("N") != spatial_dim:
            problems.append(f"n={n}: points/z/N {r.get('points')}/{r.get('z')}/{r.get('N')}")
        for key in ("identity_gap", "derivative_gap"):
            if not (_finite(r.get(key)) and r[key] < tol):
                problems.append(f"n={n}: {key} {r.get(key)!r}")
        obs = r.get("obstruction_max")
        if n in (-1, 0):
            if obs != 0.0:
                problems.append(f"n={n}: obstruction {obs!r} must be exactly 0")
        elif not (_finite(obs) and obs > 0.0):
            problems.append(f"n={n}: obstruction {obs!r} must be nonzero")
        if r.get("pass") is not True:
            problems.append(f"n={n}: report says pass={r.get('pass')!r}")
    return problems


def check_commutator_rows(rows, generators, tol=1e-9):
    problems = []
    expected_rows = generators * (generators - 1) // 2
    if len(rows) != expected_rows:
        problems.append(f"{len(rows)} rows != C({generators}, 2) = {expected_rows}")
    for r in rows:
        label = f"[{r.get('g1')}, {r.get('g2')}]"
        gap = r.get("gap")
        if not (_finite(gap) and gap < tol):
            problems.append(f"{label}: gap {gap!r}")
        if str(r.get("g1")).startswith("Y(") and str(r.get("g2")).startswith("Y("):
            if gap != 0.0:
                problems.append(f"{label}: translation bracket gap {gap!r} != 0.0")
        if r.get("pass") is not True:
            problems.append(f"{label}: report says pass={r.get('pass')!r}")
    return problems


def check_fd(err, expect_positive, tol=1e-4):
    if not _finite(err):
        return [f"FD error {err!r} not finite"]
    problems = []
    if not err < tol:
        problems.append(f"FD error {err!r} not below {tol}")
    if expect_positive and not err > 0.0:
        problems.append(f"FD error {err!r} must be positive: third derivatives do not vanish")
    return problems
