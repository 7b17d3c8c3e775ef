"""Command-line front end.

Subcommands: check, transform, identity, commutators, fd-check, catalog.
JSON (default) or CSV reports go to standard output, a one-line human
summary to standard error.  Exit codes: 0 all checks passed, 1 some
check failed, 2 usage or configuration error.  Output is byte-identical
across runs for identical arguments.
"""

import argparse
import csv
import dataclasses
import json
import re
import sys

import numpy as np

from .errors import BranchError, DimensionMismatch, DomainError
from .fields import (
    ModelParams,
    Point,
    ProfileFunction,
    RandomPolynomialField,
    parse_profile,
    random_polynomial_function,
)
from .operators import ResidualKind, diffusion_gcallback
from .solutions import (
    DEFAULT_FAMILIES,
    RatioPolynomial,
    SolutionField,
    default_grid,
    default_params,
)
from .symmetry import (
    GenJab,
    GenXn,
    GenYk,
    Rot,
    Xn,
    Yk,
    Yphi,
    commutator_gap,
    derivative_law_gap,
    expected_commutator,
    obstruction_term,
    pushforward_field,
    pushforward_identity_gap,
    xn_transport,
)
from .verify import GridSpec, fd_crosscheck, run_residual_suite


class CLIError(ValueError):
    """Bad grammar or configuration on the command line."""


_KEY_RE = re.compile(r"^[A-Za-z_][A-Za-z0-9_]*=")

# graded-lexicographic exponent order for two ratio variables
_POLY2_EXPONENTS = (
    (0, 0),
    (1, 0),
    (0, 1),
    (2, 0),
    (1, 1),
    (0, 2),
    (3, 0),
    (2, 1),
    (1, 2),
    (0, 3),
)
_POLY2_SIZES = (1, 3, 6, 10)


def _split_kv(text, sep=","):
    """Split ``k1=v1,k2=v2`` where values may themselves contain commas;
    a token without a new ``key=`` prefix continues the previous value."""
    merged = []
    for tok in text.split(sep):
        if _KEY_RE.match(tok) or not merged:
            merged.append(tok)
        else:
            merged[-1] += sep + tok
    out = {}
    for tok in merged:
        key, eq, value = tok.partition("=")
        if not eq or not key:
            raise CLIError(f"expected key=value, got {tok!r}")
        if key in out:
            raise CLIError(f"duplicate key {key!r}")
        out[key] = value
    return out


def _to_float(key, value):
    try:
        return float(value)
    except ValueError:
        raise CLIError(f"bad number for {key}: {value!r}") from None


def _to_int(key, value):
    try:
        return int(value)
    except ValueError:
        raise CLIError(f"bad integer for {key}: {value!r}") from None


def _to_profile(key, value):
    try:
        return parse_profile(value)
    except ValueError as exc:
        raise CLIError(f"bad profile for {key}: {exc}") from None


def _parse_poly2(value):
    try:
        coeffs = [float(tok) for tok in value.split(",")]
    except ValueError:
        raise CLIError(f"bad poly2 coefficients {value!r}") from None
    if len(coeffs) not in _POLY2_SIZES:
        raise CLIError(
            f"poly2 takes {_POLY2_SIZES} coefficients (graded order), "
            f"got {len(coeffs)}"
        )
    terms = tuple(
        (exps, c) for exps, c in zip(_POLY2_EXPONENTS, coeffs) if c != 0.0
    ) or (((0, 0), 0.0),)
    return RatioPolynomial(n_vars=2, terms=terms)


def _format_poly2(rp):
    coeffs = {exps: c for exps, c in rp.terms}
    values = [coeffs.get(exps, 0.0) for exps in _POLY2_EXPONENTS]
    size = next(
        (s for s in _POLY2_SIZES if all(v == 0.0 for v in values[s:])), 10
    )
    return "poly2:" + ",".join(_fmt_num(v) for v in values[:size])


def _fmt_num(v):
    return repr(int(v)) if float(v) == int(v) else repr(float(v))


def _parse_ma_phi(key, value):
    if value.startswith("poly2:"):
        return _parse_poly2(value[len("poly2:"):])
    return _to_profile(key, value)


# converter by dataclass field type, so every family's grammar follows
# from its fields
_CONVERTERS = {
    float: _to_float,
    int: _to_int,
    ProfileFunction: _to_profile,
    ProfileFunction | RatioPolynomial: _parse_ma_phi,
}


def _spec_key(field):
    """The spec key of a family field: ``N`` for the spatial dimension."""
    return "N" if field.name == "spatial_dim" else field.name


def parse_family(spec):
    """Parse ``name:key=value,...`` into a solution family.

    The keys are the family's dataclass field names, with ``N`` for
    ``spatial_dim``.
    """
    name, _, rest = spec.partition(":")
    name = name.lower()
    if name not in DEFAULT_FAMILIES:
        raise CLIError(
            f"unknown family {name!r}; known: {', '.join(sorted(DEFAULT_FAMILIES))}"
        )
    fam = DEFAULT_FAMILIES[name]
    if not rest:
        return fam
    fields = {_spec_key(f): f for f in dataclasses.fields(fam)}
    kwargs = {}
    for key, value in _split_kv(rest).items():
        if key not in fields:
            raise CLIError(f"unknown key {key!r} for family {name!r}")
        f = fields[key]
        kwargs[f.name] = _CONVERTERS[f.type](key, value)
    try:
        return dataclasses.replace(fam, **kwargs)
    except (ValueError, DimensionMismatch) as exc:
        raise CLIError(f"bad family parameters: {exc}") from None


def family_spec(name, fam=None):
    """Canonical spec string for a family (inverse of parse_family)."""
    fam = DEFAULT_FAMILIES[name] if fam is None else fam
    parts = []
    for f in dataclasses.fields(fam):
        value = getattr(fam, f.name)
        key = _spec_key(f)
        if isinstance(value, RatioPolynomial):
            parts.append(f"{key}={_format_poly2(value)}")
        elif hasattr(value, "spec"):
            parts.append(f"{key}={value.spec()}")
        else:
            parts.append(f"{key}={_fmt_num(value)}")
    return name + ":" + ",".join(parts)


def parse_group(spec):
    """Parse a group element spec such as ``Xn:n=1,eps=0.01``."""
    name, _, rest = spec.partition(":")
    key = name.lower()
    if key == "xn":
        kv = _split_kv(rest)
        _require_keys("Xn", kv, {"n", "eps"}, {"lam"})
        return Xn(
            _to_int("n", kv["n"]),
            _to_float("eps", kv["eps"]),
            _to_float("lam", kv.get("lam", "1")),
        )
    if key == "yk":
        kv = _split_kv(rest)
        _require_keys("Yk", kv, {"k", "v"}, set())
        v = tuple(_to_float("v", tok) for tok in kv["v"].split(","))
        return Yk(_to_int("k", kv["k"]), v)
    if key == "yphi":
        kv = {}
        for part in rest.split(";"):
            k, eq, value = part.partition("=")
            if not eq:
                raise CLIError(f"expected key=value in Yphi spec, got {part!r}")
            kv[k] = value
        _require_keys("Yphi", kv, {"e", "profiles"}, set())
        e = tuple(_to_float("e", tok) for tok in kv["e"].split(","))
        profiles = tuple(
            _to_profile("profiles", tok) for tok in kv["profiles"].split("|")
        )
        try:
            return Yphi(profiles, e)
        except (ValueError, DimensionMismatch) as exc:
            raise CLIError(f"bad Yphi element: {exc}") from None
    if key == "rot":
        kv = _split_kv(rest)
        _require_keys("rot", kv, {"a", "b", "angle"}, set())
        try:
            return Rot(
                _to_int("a", kv["a"]),
                _to_int("b", kv["b"]),
                _to_float("angle", kv["angle"]),
            )
        except (ValueError, DimensionMismatch) as exc:
            raise CLIError(f"bad rotation element: {exc}") from None
    raise CLIError(f"unknown group element {name!r}; known: Xn, Yk, Yphi, rot")


def _require_keys(what, kv, required, optional):
    missing = required - kv.keys()
    if missing:
        raise CLIError(f"{what} spec is missing {', '.join(sorted(missing))}")
    unknown = kv.keys() - required - optional
    if unknown:
        raise CLIError(f"{what} spec has unknown keys {', '.join(sorted(unknown))}")


def parse_field_spec(spec):
    """Parse ``random:deg=3,seed=S,bound=B`` into (degree, seed, bound)."""
    name, _, rest = spec.partition(":")
    if name.lower() != "random":
        raise CLIError(f"unknown field spec {name!r}; known: random")
    kv = _split_kv(rest) if rest else {}
    _require_keys("random field", kv, set(), {"deg", "seed", "bound"})
    degree = _to_int("deg", kv.get("deg", "3"))
    seed = _to_int("seed", kv["seed"]) if "seed" in kv else None
    bound = _to_float("bound", kv.get("bound", "1"))
    return degree, seed, bound


def _parse_axis(key, value):
    parts = value.split(":")
    if len(parts) != 3:
        raise CLIError(f"bad axis {key}={value!r}, expected lo:hi:count")
    lo = _to_float(key, parts[0])
    hi = _to_float(key, parts[1])
    count = _to_int(key, parts[2])
    return (lo, hi, count)


def parse_grid(spec, spatial_dim):
    """Parse ``t=0.5:2:10,x=-1:1:10`` (or per-axis x1=, x2=, ...)."""
    kv = _split_kv(spec)
    if "t" not in kv:
        raise CLIError("grid spec needs a t axis")
    t_range = _parse_axis("t", kv.pop("t"))
    common = _parse_axis("x", kv.pop("x")) if "x" in kv else None
    axes = [common] * spatial_dim
    for key in list(kv):
        m = re.fullmatch(r"x([0-9]+)", key)
        if not m:
            raise CLIError(f"unknown grid axis {key!r}")
        idx = int(m.group(1))
        if not 1 <= idx <= spatial_dim:
            raise CLIError(f"grid axis {key!r} out of range for N={spatial_dim}")
        axes[idx - 1] = _parse_axis(key, kv.pop(key))
    if any(a is None for a in axes):
        raise CLIError("grid spec must cover every spatial axis (use x= or x1=..)")
    try:
        return GridSpec(t_range, tuple(axes))
    except ValueError as exc:
        raise CLIError(f"bad grid: {exc}") from None


def parse_kinds(spec):
    out = []
    for tok in spec.split(","):
        tok = tok.strip()
        try:
            out.append(ResidualKind(tok))
        except ValueError:
            known = ", ".join(k.value for k in ResidualKind)
            raise CLIError(f"unknown residual kind {tok!r}; known: {known}") from None
    return tuple(out)


def parse_range(spec):
    m = re.fullmatch(r"(-?\d+)\.\.(-?\d+)", spec.strip())
    if not m:
        raise CLIError(f"bad range {spec!r}, expected A..B")
    lo, hi = int(m.group(1)), int(m.group(2))
    if lo > hi:
        raise CLIError(f"bad range {spec!r}: lower bound exceeds upper")
    return lo, hi


# ---------------------------------------------------------------------------
# output


def _csv_cell(value):
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    if isinstance(value, (dict, list)):
        return json.dumps(value, sort_keys=True, separators=(",", ":"))
    return str(value)


def emit(rows, fmt, out=None):
    out = sys.stdout if out is None else out
    if fmt == "json":
        out.write(json.dumps(rows, indent=2, sort_keys=True) + "\n")
        return
    fieldnames = sorted({key for row in rows for key in row})
    writer = csv.DictWriter(out, fieldnames=fieldnames, lineterminator="\n")
    writer.writeheader()
    for row in rows:
        writer.writerow({k: _csv_cell(row.get(k)) for k in fieldnames})


def _summarize(rows, what):
    ok = sum(1 for r in rows if r.get("pass"))
    print(f"{what}: {ok}/{len(rows)} passed", file=sys.stderr)
    return 0 if ok == len(rows) else 1


# ---------------------------------------------------------------------------
# subcommands


def _resolve_params(fam, z_flag, n_flag):
    try:
        params = default_params(fam, z=z_flag)
    except ValueError as exc:
        raise CLIError(str(exc)) from None
    if n_flag is not None and n_flag != params.spatial_dim:
        raise CLIError(
            f"--N {n_flag} does not match the family's spatial dimension "
            f"{params.spatial_dim}"
        )
    return params


def cmd_check(args):
    fam = parse_family(args.family)
    params = _resolve_params(fam, args.z, args.N)
    kinds = parse_kinds(args.kinds) if args.kinds else fam.designated
    grid = (
        parse_grid(args.grid, params.spatial_dim)
        if args.grid
        else default_grid(fam)
    )
    g = diffusion_gcallback(params) if ResidualKind.GENERAL_INVARIANT in kinds else None
    reports = run_residual_suite(
        SolutionField(fam),
        kinds,
        params,
        grid,
        args.tol,
        g=g,
        family_id=args.family,
    )
    rows = [r.to_dict() for r in reports]
    emit(rows, args.format)
    return _summarize(rows, "check")


def cmd_transform(args):
    fam = parse_family(args.family)
    element = parse_group(args.group)
    params = _resolve_params(fam, args.z, args.N)
    kinds = parse_kinds(args.kinds) if args.kinds else fam.designated
    grid = (
        parse_grid(args.grid, params.spatial_dim)
        if args.grid
        else default_grid(fam)
    )
    try:
        field = pushforward_field(element, params, SolutionField(fam))
    except DimensionMismatch as exc:
        raise CLIError(str(exc)) from None
    g = diffusion_gcallback(params) if ResidualKind.GENERAL_INVARIANT in kinds else None
    reports = run_residual_suite(
        field,
        kinds,
        params,
        grid,
        args.tol,
        g=g,
        family_id=f"{args.family} via {args.group}",
    )
    rows = [r.to_dict() for r in reports]
    emit(rows, args.format)
    return _summarize(rows, "transform")


def _identity_samples(seed, n_points, spatial_dim):
    rng = np.random.default_rng(seed + 1000003)
    points = []
    for _ in range(n_points):
        t = float(rng.uniform(0.6, 1.2))
        x = tuple(float(v) for v in rng.uniform(-1.0, 1.0, spatial_dim))
        points.append(Point(t, x))
    return points


def _require_points(args):
    if args.points < 1:
        raise CLIError(f"--points must be at least 1, got {args.points}")


def cmd_identity(args):
    _require_points(args)
    degree, seed, bound = parse_field_spec(args.field)
    if seed is None:
        seed = args.seed
    if seed is None:
        raise CLIError("random fields need a seed (--seed or seed= in --field)")
    n_lo, n_hi = parse_range(args.n)
    params = ModelParams(args.N, args.z)
    field = RandomPolynomialField(seed, params, degree, bound)
    points = _identity_samples(seed, args.points, params.spatial_dim)
    rows = []
    for n in range(n_lo, n_hi + 1):
        element = Xn(n, args.eps)
        id_gap = law_gap = obs_max = 0.0
        excluded = 0
        for p in points:
            try:
                tr = xn_transport(element, params, field, p)
            except BranchError:
                excluded += 1
                continue
            id_gap = max(id_gap, pushforward_identity_gap(tr))
            law_gap = max(law_gap, derivative_law_gap(tr))
            obs_max = max(obs_max, abs(obstruction_term(tr)))
        evaluated = len(points) - excluded
        enough = evaluated > 0 and excluded <= 0.5 * len(points)
        rows.append(
            {
                "n": n,
                "z": args.z,
                "N": args.N,
                "eps": args.eps,
                "points": evaluated,
                "identity_gap": id_gap,
                "derivative_gap": law_gap,
                "obstruction_max": obs_max,
                "pass": enough and id_gap < args.tol and law_gap < args.tol,
            }
        )
    emit(rows, args.format)
    return _summarize(rows, "identity")


def _gen_label(gen):
    if isinstance(gen, GenXn):
        return f"X({gen.n})"
    if isinstance(gen, GenYk):
        return f"Y({gen.k},axis={gen.axis})"
    return f"J({gen.a},{gen.b})"


def _commutator_points(spatial_dim):
    first = [1.1] + [0.4 * (-0.7) ** i for i in range(spatial_dim)] + [0.8]
    second = [0.7] + [-0.3 * 0.8**i for i in range(spatial_dim)] + [1.2]
    return [np.array(first), np.array(second)]


def cmd_commutators(args):
    n_lo, n_hi = parse_range(args.n)
    k_lo, k_hi = parse_range(args.k)
    params = ModelParams(args.N, args.z)
    gens = [GenXn(n) for n in range(n_lo, n_hi + 1)]
    gens += [
        GenYk(k, axis)
        for k in range(k_lo, k_hi + 1)
        for axis in range(1, args.N + 1)
    ]
    gens += [
        GenJab(a, b)
        for a in range(1, args.N + 1)
        for b in range(a + 1, args.N + 1)
    ]
    funcs = [
        random_polynomial_function(seed, args.N + 2, 3)
        for seed in (101, 102, 103)
    ]
    points = _commutator_points(args.N)
    rows = []
    for i, g1 in enumerate(gens):
        for g2 in gens[i + 1 :]:
            expected = expected_commutator(g1, g2, params)
            gap = 0.0
            for f in funcs:
                for y in points:
                    gap = max(gap, commutator_gap(g1, g2, expected, params, f, y))
            rows.append(
                {
                    "g1": _gen_label(g1),
                    "g2": _gen_label(g2),
                    "gap": gap,
                    "pass": gap < args.tol,
                }
            )
    emit(rows, args.format)
    return _summarize(rows, "commutators")


def cmd_fd_check(args):
    if (args.family is None) == (args.field is None):
        raise CLIError("give exactly one of --family or --field")
    _require_points(args)
    if args.family:
        fam = parse_family(args.family)
        params = _resolve_params(fam, args.z, args.N)
        field = SolutionField(fam)
        seed = args.seed if args.seed is not None else 2026
        target = args.family
    else:
        degree, seed, bound = parse_field_spec(args.field)
        if seed is None:
            seed = args.seed
        if seed is None:
            raise CLIError("random fields need a seed (--seed or seed= in --field)")
        params = ModelParams(
            2 if args.N is None else args.N, 2.0 if args.z is None else args.z
        )
        field = RandomPolynomialField(seed, params, degree, bound)
        target = args.field
    rng = np.random.default_rng(seed + 77)
    accepted = 0
    worst = 0.0
    attempts = 0
    limit = 200 * args.points
    while accepted < args.points and attempts < limit:
        attempts += 1
        t = float(rng.uniform(0.6, 1.9))
        x = tuple(float(v) for v in rng.uniform(-0.9, 0.9, params.spatial_dim))
        try:
            err = fd_crosscheck(field, params, [Point(t, x)], args.h)
        except DomainError:
            continue
        accepted += 1
        worst = max(worst, err)
    if accepted < args.points:
        raise CLIError(
            f"could not find {args.points} interior points "
            f"(accepted {accepted} of {attempts} candidates)"
        )
    rows = [
        {
            "target": target,
            "h": args.h,
            "points": accepted,
            "max_rel_err": worst,
            "pass": worst < args.tol,
        }
    ]
    emit(rows, args.format)
    return _summarize(rows, "fd-check")


def cmd_catalog(args):
    rows = []
    for name in sorted(DEFAULT_FAMILIES):
        fam = DEFAULT_FAMILIES[name]
        rows.append(
            {
                "kind": "family",
                "name": name,
                "spec": family_spec(name),
                "designated": ",".join(k.value for k in fam.designated),
                "N": fam.spatial_dim,
                "z": "any" if fam.z is None else _fmt_num(fam.z),
            }
        )
    for name, grammar in (
        ("poly", "poly:c0,c1,..."),
        ("exp", "exp:a,b for a*exp(b*t)"),
        ("sin", "sin:a,b,c for a*sin(b*t+c)"),
        ("const", "const:c"),
    ):
        rows.append({"kind": "profile", "name": name, "spec": grammar})
    for name, grammar in (
        ("Xn", "Xn:n=1,eps=0.01[,lam=1]"),
        ("Yk", "Yk:k=1,v=0.5,0.0"),
        ("Yphi", "Yphi:e=1,0;profiles=sin:1,1,0|const:0"),
        ("rot", "rot:a=1,b=2,angle=0.3"),
    ):
        rows.append({"kind": "group", "name": name, "spec": grammar})
    rows.append({"kind": "field", "name": "random", "spec": "random:deg=3,seed=S[,bound=B]"})
    emit(rows, args.format)
    print(f"catalog: {len(rows)} entries", file=sys.stderr)
    return 0


# ---------------------------------------------------------------------------
# parser


def _add_common(p, tol):
    p.add_argument("--tol", type=float, default=tol, help="pass tolerance")
    p.add_argument(
        "--format", choices=("json", "csv"), default="json", help="report format"
    )


def build_parser():
    parser = argparse.ArgumentParser(
        prog="condsym",
        description=(
            "verify determinant-form residuals, finite symmetry "
            "transformations and algebra commutators for the anisotropic "
            "diffusion catalog"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True, metavar="COMMAND")

    p = sub.add_parser("check", help="run residuals for a solution family")
    p.add_argument("--family", required=True, help="family spec (see catalog)")
    p.add_argument("--z", type=float, default=None)
    p.add_argument("--N", type=int, default=None)
    p.add_argument("--kinds", default=None, help="comma-separated residual kinds")
    p.add_argument("--grid", default=None, help="t=lo:hi:n,x=lo:hi:n")
    _add_common(p, 1e-8)
    p.set_defaults(func=cmd_check)

    p = sub.add_parser(
        "transform", help="push a family through a group element, then re-check"
    )
    p.add_argument("--family", required=True)
    p.add_argument("--group", required=True, help="group element spec (see catalog)")
    p.add_argument("--z", type=float, default=None)
    p.add_argument("--N", type=int, default=None)
    p.add_argument("--kinds", default=None)
    p.add_argument("--grid", default=None)
    _add_common(p, 1e-8)
    p.set_defaults(func=cmd_transform)

    p = sub.add_parser(
        "identity", help="scan the derivative laws and determinant identity over n"
    )
    p.add_argument("--field", default="random:deg=3", help="field spec")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--n", default="-2..3", help="inclusive n window A..B")
    p.add_argument("--z", type=float, default=2.0)
    p.add_argument("--N", type=int, default=2)
    p.add_argument("--eps", type=float, default=0.01)
    p.add_argument("--points", type=int, default=50)
    _add_common(p, 1e-8)
    p.set_defaults(func=cmd_identity)

    p = sub.add_parser("commutators", help="verify the commutator table")
    p.add_argument("--n", default="-2..2", help="inclusive n window A..B")
    p.add_argument("--k", default="-1..2", help="inclusive k window A..B")
    p.add_argument("--z", type=float, default=2.0)
    p.add_argument("--N", type=int, default=2)
    _add_common(p, 1e-9)
    p.set_defaults(func=cmd_commutators)

    p = sub.add_parser(
        "fd-check", help="cross-check jets against finite differences"
    )
    p.add_argument("--family", default=None)
    p.add_argument("--field", default=None)
    p.add_argument("--z", type=float, default=None)
    p.add_argument("--N", type=int, default=None)
    p.add_argument("--h", type=float, default=1e-4)
    p.add_argument("--points", type=int, default=100)
    p.add_argument("--seed", type=int, default=None)
    _add_common(p, 1e-4)
    p.set_defaults(func=cmd_fd_check)

    p = sub.add_parser("catalog", help="list families, profiles and elements")
    _add_common(p, 1e-8)
    p.set_defaults(func=cmd_catalog)

    return parser


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        code = exc.code
        if code in (None, 0):
            return 0
        return 2
    try:
        return args.func(args)
    except (CLIError, DomainError, DimensionMismatch) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
