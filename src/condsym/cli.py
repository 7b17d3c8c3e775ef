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
import math
import re
import sys

import numpy as np

from .errors import BranchError, DomainError
from .fields import (
    ModelParams,
    Point,
    ProfileFunction,
    RandomPolynomialField,
    evaluate,
    fmt_num,
    parse_profile,
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
_POLY2_EXPONENTS = tuple((d - j, j) for d in range(4) for j in range(d + 1))
_POLY2_SIZES = (1, 3, 6, 10)


def _split_kv(text):
    """Split ``k1=v1,k2=v2`` where values may themselves contain commas;
    a token without a new ``key=`` prefix continues the previous value."""
    merged = []
    for tok in text.split(","):
        if _KEY_RE.match(tok) or not merged:
            merged.append(tok)
        else:
            merged[-1] += "," + tok
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


def _to_floats(key, value):
    return tuple(_to_float(key, tok) for tok in value.split(","))


def _to_profiles(key, value):
    return tuple(_to_profile(key, tok) for tok in value.split("|"))


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
    return "poly2:" + ",".join(fmt_num(v) for v in values[:size])


def _parse_ma_phi(key, value):
    if value.startswith("poly2:"):
        return _parse_poly2(value[len("poly2:"):])
    return _to_profile(key, value)


# converter by dataclass field type, so the grammar of every family and
# group element follows from its fields
_CONVERTERS = {
    float: _to_float,
    int: _to_int,
    ProfileFunction: _to_profile,
    ProfileFunction | RatioPolynomial: _parse_ma_phi,
    tuple[float, ...]: _to_floats,
    tuple[ProfileFunction, ...]: _to_profiles,
}

_GROUP_ELEMENTS = {cls.__name__.lower(): cls for cls in (Xn, Yk, Yphi, Rot)}


def _spec_key(field):
    """The spec key of a record field: ``N`` for the spatial dimension."""
    return "N" if field.name == "spatial_dim" else field.name


def _parse_record(what, cls, rest, defaults=None):
    """Build a ``cls`` from ``key=value`` pairs separated by ``,`` or ``;``.

    The keys are the dataclass fields of ``cls``, each value converted by
    its field's type.  A key left out keeps its value in ``defaults``; with
    no defaults every key is required.
    """
    fields = {_spec_key(f): f for f in dataclasses.fields(cls)}
    kwargs = {}
    for key, value in (_split_kv(rest.replace(";", ",")) if rest else {}).items():
        if key not in fields:
            raise CLIError(f"unknown key {key!r} for {what}")
        f = fields[key]
        kwargs[f.name] = _CONVERTERS[f.type](key, value)
    missing = [k for k, f in fields.items() if f.name not in kwargs]
    if defaults is None and missing:
        raise CLIError(f"{what} is missing {', '.join(missing)}")
    try:
        if defaults is None:
            return cls(**kwargs)
        return dataclasses.replace(defaults, **kwargs)
    except ValueError as exc:
        raise CLIError(f"bad {what}: {exc}") from None


def parse_family(spec):
    """Parse ``name:key=value,...`` into a solution family.

    The keys are the family's dataclass field names, with ``N`` for
    ``spatial_dim``; a key left out keeps its catalog default.
    """
    name, _, rest = spec.partition(":")
    name = name.lower()
    if name not in DEFAULT_FAMILIES:
        raise CLIError(
            f"unknown family {name!r}; known: {', '.join(sorted(DEFAULT_FAMILIES))}"
        )
    fam = DEFAULT_FAMILIES[name]
    return _parse_record(f"family {name!r}", type(fam), rest, fam)


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
            parts.append(f"{key}={fmt_num(value)}")
    return name + ":" + ",".join(parts)


def parse_group(spec):
    """Parse a group element spec such as ``Xn:n=1,eps=0.01``; the keys
    are the element's dataclass fields, all required."""
    name, _, rest = spec.partition(":")
    cls = _GROUP_ELEMENTS.get(name.lower())
    if cls is None:
        known = ", ".join(c.__name__ for c in _GROUP_ELEMENTS.values())
        raise CLIError(f"unknown group element {name!r}; known: {known}")
    return _parse_record(f"group element {cls.__name__}", cls, rest)


def parse_field_spec(spec):
    """Parse ``random:deg=3,seed=S,bound=B`` into (degree, seed, bound)."""
    name, _, rest = spec.partition(":")
    if name.lower() != "random":
        raise CLIError(f"unknown field spec {name!r}; known: random")
    kv = _split_kv(rest) if rest else {}
    unknown = kv.keys() - {"deg", "seed", "bound"}
    if unknown:
        raise CLIError(f"random field spec has unknown keys {', '.join(sorted(unknown))}")
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


# residuals of a field jet; the reduced kinds belong to a profile phi(w1, w2)
_FIELD_KINDS = (
    ResidualKind.DIFFUSION, ResidualKind.GENERAL_INVARIANT, ResidualKind.MONGE_AMPERE
)


def parse_kinds(spec):
    known = ", ".join(k.value for k in _FIELD_KINDS)
    out = []
    for tok in spec.split(","):
        tok = tok.strip()
        try:
            kind = ResidualKind(tok)
        except ValueError:
            raise CLIError(f"unknown residual kind {tok!r}; known: {known}") from None
        if kind not in _FIELD_KINDS:
            raise CLIError(f"{tok!r} is a residual of a profile phi(w1, w2), not of a field")
        if kind in out:
            raise CLIError(f"duplicate residual kind {tok!r}")
        out.append(kind)
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


def _json_value(value):
    """``value`` with every non-finite float spelled as a JSON string."""
    if isinstance(value, float) and not math.isfinite(value):
        return "NaN" if math.isnan(value) else ("Infinity" if value > 0 else "-Infinity")
    if isinstance(value, dict):
        return {k: _json_value(v) for k, v in value.items()}
    if isinstance(value, list):
        return [_json_value(v) for v in value]
    return value


def emit(rows, fmt, out=None):
    """JSON is strict RFC 8259: non-finite floats become the strings
    "Infinity", "-Infinity" and "NaN"; CSV cells keep ``repr``."""
    out = sys.stdout if out is None else out
    if fmt == "json":
        text = json.dumps(_json_value(rows), indent=2, sort_keys=True, allow_nan=False)
        out.write(text + "\n")
        return
    fieldnames = sorted({key for row in rows for key in row})
    writer = csv.DictWriter(out, fieldnames=fieldnames, lineterminator="\n")
    writer.writeheader()
    for row in rows:
        writer.writerow({k: _csv_cell(row.get(k)) for k in fieldnames})


def _worst(worst, gap):
    """Running maximum of gaps that fails closed: a non-finite gap is inf."""
    return max(worst, gap) if math.isfinite(gap) else math.inf


def _summarize(rows, what):
    ok = sum(1 for r in rows if r.get("pass"))
    print(f"{what}: {ok}/{len(rows)} passed", file=sys.stderr)
    return 0 if ok == len(rows) else 1


# ---------------------------------------------------------------------------
# subcommands


def _resolve_params(fam, z_flag, n_flag):
    params = default_params(fam, z=z_flag)
    if n_flag is not None and n_flag != params.spatial_dim:
        raise CLIError(
            f"--N {n_flag} does not match the family's spatial dimension "
            f"{params.spatial_dim}"
        )
    return params


def cmd_check(args):
    """The family's residuals on a grid; ``transform`` runs the same check
    on the field pushed forward by the group element ``args.group``."""
    fam = parse_family(args.family)
    element = None if args.group is None else parse_group(args.group)
    params = _resolve_params(fam, args.z, args.N)
    kinds = fam.designated if args.kinds is None else parse_kinds(args.kinds)
    if args.grid is None:
        grid = default_grid(fam)
    else:
        grid = parse_grid(args.grid, params.spatial_dim)
    field, family_id = SolutionField(fam), args.family
    if element is not None:
        field = pushforward_field(element, params, field)
        family_id = f"{args.family} via {args.group}"
    g = diffusion_gcallback(params) if ResidualKind.GENERAL_INVARIANT in kinds else None
    reports = run_residual_suite(
        field, kinds, params, grid, args.tol, g=g, family_id=family_id
    )
    rows = [r.to_dict() for r in reports]
    emit(rows, args.format)
    return _summarize(rows, "check" if element is None else "transform")


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


def _random_field(args, params):
    """The ``--field`` test field and its seed: ``seed=`` in the spec,
    else ``--seed``."""
    degree, seed, bound = parse_field_spec(args.field)
    seed = args.seed if seed is None else seed
    if seed is None:
        raise CLIError("random fields need a seed (--seed or seed= in --field)")
    return RandomPolynomialField(seed, params, degree, bound), seed


def cmd_identity(args):
    _require_points(args)
    params = ModelParams(args.N, args.z)
    field, seed = _random_field(args, params)
    n_lo, n_hi = parse_range(args.n)
    points = _identity_samples(seed, args.points, params.spatial_dim)
    bases = [evaluate(field, params, p) for p in points]
    rows = []
    for n in range(n_lo, n_hi + 1):
        element = Xn(n, args.eps)
        id_gap = law_gap = obs_max = 0.0
        excluded = 0
        for p, base in zip(points, bases):
            try:
                tr = xn_transport(element, params, field, p, base)
            except BranchError:
                excluded += 1
                continue
            id_gap = _worst(id_gap, pushforward_identity_gap(tr))
            law_gap = _worst(law_gap, derivative_law_gap(tr))
            obs_max = _worst(obs_max, abs(obstruction_term(tr)))
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
    points = _commutator_points(args.N)
    rows = []
    for i, g1 in enumerate(gens):
        for g2 in gens[i + 1 :]:
            expected = expected_commutator(g1, g2, params)
            gap = 0.0
            for y in points:
                gap = _worst(gap, commutator_gap(g1, g2, expected, params, y))
            rows.append(
                {
                    "g1": str(g1),
                    "g2": str(g2),
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
        params = ModelParams(
            2 if args.N is None else args.N, 2.0 if args.z is None else args.z
        )
        field, seed = _random_field(args, params)
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
                "z": "any" if fam.z is None else fmt_num(fam.z),
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
        ("Xn", "Xn:n=1,eps=0.01"),
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


def _add_common(p, tol=None):
    if tol is not None:
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

    family = argparse.ArgumentParser(add_help=False)
    family.add_argument("--family", required=True, help="family spec (see catalog)")
    family.add_argument("--z", type=float, default=None)
    family.add_argument("--N", type=int, default=None)
    family.add_argument("--kinds", default=None, help="comma-separated residual kinds")
    family.add_argument("--grid", default=None, help="t=lo:hi:n,x=lo:hi:n")
    _add_common(family, 1e-8)
    p = sub.add_parser("check", parents=[family], help="run residuals for a solution family")
    p.set_defaults(func=cmd_check, group=None)
    p = sub.add_parser(
        "transform",
        parents=[family],
        help="push a family through a group element, then re-check",
    )
    p.add_argument("--group", required=True, help="group element spec (see catalog)")
    p.set_defaults(func=cmd_check)

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
    _add_common(p)
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
        # a non-finite value is reported in its row, not as a numpy warning
        with np.errstate(over="ignore", invalid="ignore"):
            return args.func(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
