"""Command-line front end.

Subcommands: check, transform, identity, commutators, fd-check, catalog.
JSON (default) or CSV reports go to standard output, a one-line human
summary to standard error.  Exit codes: 0 all checks passed, 1 some
check failed, 2 usage or configuration error.  Output is byte-identical
across runs for identical arguments.  ``main`` builds its parser once per
process, so in-process callers pay for it once, and a shell run is
unchanged.
"""

import argparse
import csv
import dataclasses
import functools
import json
import math
import re
import sys
from json.encoder import encode_basestring_ascii

import numpy as np

from .fields import (
    ModelParams,
    PolynomialFunction,
    ProfileFunction,
    RandomPolynomialField,
    fmt_num,
    parse_finite,
    parse_poly2,
    parse_profile,
)
from .operators import ResidualKind
from .solutions import (
    DEFAULT_FAMILIES,
    SolutionField,
    default_grid,
    default_params,
)
from .symmetry import (
    Coefficients,
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
from .verify import GridSpec, Tally, fd_check, run_residual_suite, scan, within_tolerance


class CLIError(ValueError):
    """Bad grammar or configuration on the command line."""


_KEY_RE = re.compile(r"^[A-Za-z_][A-Za-z0-9_]*=")


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
        return parse_finite(value)
    except ValueError as exc:
        raise CLIError(f"bad number for {key}: {exc}") from None


def _to_tol(key, value):
    """A tolerance: any number but NaN or a negative one, so that ``inf``
    passes every finite gap."""
    try:
        tol = float(value)
    except ValueError as exc:
        raise CLIError(f"bad number for {key}: {exc}") from None
    if math.isnan(tol):
        raise CLIError(f"bad number for {key}: a tolerance cannot be NaN")
    if tol < 0.0:
        raise CLIError(f"bad number for {key}: a tolerance cannot be negative, got {tol!r}")
    return tol


def _to_count(key, value):
    """An integer, or None where the flag is not given."""
    if value is None:
        return None
    try:
        return int(value)
    except ValueError:
        raise CLIError(f"bad number for {key}: {value!r} is not an integer") from None


def _to_seed(key, value):
    """A seed: a non-negative integer, or None where the flag is not given."""
    seed = _to_count(key, value)
    if seed is not None and seed < 0:
        raise CLIError(f"bad number for {key}: a seed cannot be negative, got {seed}")
    return seed


def _to_points(key, value):
    """A number of sample points: at least 1."""
    points = _to_count(key, value)
    if points < 1:
        raise CLIError(f"{key} must be at least 1, got {points}")
    return points


# number flags that argparse leaves as text; ``main`` reads them, so that a
# bad value is one "error:" line like every other usage error
_NUMBER_FLAGS = {
    "h": _to_float, "eps": _to_float, "z": _to_float, "tol": _to_tol, "seed": _to_seed,
    "N": _to_count, "points": _to_points,
}


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


def _parse_ma_phi(key, value):
    """ma-only's phi: a ``poly2:`` polynomial in the ratios, else a profile."""
    if not value.startswith("poly2:"):
        return _to_profile(key, value)
    try:
        return parse_poly2(value)
    except ValueError as exc:
        raise CLIError(str(exc)) from None


# converter by dataclass field type, so the grammar of every family and
# group element follows from its fields
_CONVERTERS = {
    float: _to_float,
    int: _to_int,
    ProfileFunction: _to_profile,
    ProfileFunction | PolynomialFunction: _parse_ma_phi,
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
    """Canonical spec string for a family (inverse of parse_family).

    Raises ValueError for a value that the grammar cannot hold.
    """
    fam = DEFAULT_FAMILIES[name] if fam is None else fam
    parts = []
    for f in dataclasses.fields(fam):
        value = getattr(fam, f.name)
        text = value.spec() if hasattr(value, "spec") else fmt_num(value)
        parts.append(f"{_spec_key(f)}={text}")
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
    """Parse ``random:deg=3,bound=B`` into (degree, bound); the seed of a
    random field is ``--seed``."""
    name, _, rest = spec.partition(":")
    if name.lower() != "random":
        raise CLIError(f"unknown field spec {name!r}; known: random")
    kv = _split_kv(rest) if rest else {}
    unknown = kv.keys() - {"deg", "bound"}
    if unknown:
        raise CLIError(f"random field spec has unknown keys {', '.join(sorted(unknown))}")
    degree = _to_int("deg", kv.get("deg", "3"))
    bound = _to_float("bound", kv.get("bound", "1"))
    return degree, bound


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
        m = re.fullmatch(r"x([1-9][0-9]*)", key)  # one key per axis: no leading 0
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
    known = ", ".join(k.value for k in ResidualKind)
    out = []
    for tok in spec.split(","):
        tok = tok.strip()
        try:
            kind = ResidualKind(tok)
        except ValueError:
            raise CLIError(f"unknown residual kind {tok!r}; known: {known}") from None
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


def _json_text(value, indent=""):
    """``value`` as ``json.dumps(value, indent=2, sort_keys=True)`` writes
    it, with every non-finite float spelled as a JSON string.  The stdlib
    writes an indented document with its pure-Python encoder, whose
    closures leave reference cycles behind on every call."""
    if isinstance(value, str):
        return encode_basestring_ascii(value)
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, int):
        return int.__repr__(value)
    if isinstance(value, float):
        if math.isfinite(value):
            return float.__repr__(value)
        return '"NaN"' if math.isnan(value) else ('"Infinity"' if value > 0 else '"-Infinity"')
    inner = indent + "  "
    if isinstance(value, dict):
        items = [f"{encode_basestring_ascii(k)}: {_json_text(v, inner)}"
                 for k, v in sorted(value.items())]
        brackets = "{}"
    elif isinstance(value, (list, tuple)):
        items = [_json_text(v, inner) for v in value]
        brackets = "[]"
    else:
        raise TypeError(f"{type(value).__name__} is not JSON serializable")
    if not items:
        return brackets
    return f"{brackets[0]}\n{inner}" + f",\n{inner}".join(items) + f"\n{indent}{brackets[1]}"


def emit(rows, fmt, out=None):
    """JSON is strict RFC 8259: non-finite floats become the strings
    "Infinity", "-Infinity" and "NaN"; CSV cells keep ``repr``."""
    out = sys.stdout if out is None else out
    if fmt == "json":
        out.write(_json_text(rows) + "\n")
        return
    fieldnames = sorted({key for row in rows for key in row})
    writer = csv.DictWriter(out, fieldnames=fieldnames, lineterminator="\n")
    writer.writeheader()
    for row in rows:
        writer.writerow({k: _csv_cell(row.get(k)) for k in fieldnames})


def _summarize(rows, what):
    """The stderr line of the subcommand ``what`` and its exit code."""
    if what == "catalog":
        print(f"catalog: {len(rows)} entries", file=sys.stderr)
        return 0
    ok = sum(1 for r in rows if r.get("pass"))
    print(f"{what}: {ok}/{len(rows)} passed", file=sys.stderr)
    return 0 if ok == len(rows) else 1


# ---------------------------------------------------------------------------
# subcommands: each returns its report rows, which ``main`` writes


def cmd_check(args):
    """The family's residuals on a grid; ``transform`` runs the same check
    on the field pushed forward by the group element ``args.group``."""
    fam = parse_family(args.family)
    element = None if args.group is None else parse_group(args.group)
    params = default_params(fam)
    kinds = fam.designated if args.kinds is None else parse_kinds(args.kinds)
    if args.grid is None:
        grid = default_grid(fam)
    else:
        grid = parse_grid(args.grid, params.spatial_dim)
    field, family_id = SolutionField(fam), args.family
    if element is not None:
        field = pushforward_field(element, params, field)
        family_id = f"{args.family} via {args.group}"
    reports = run_residual_suite(field, kinds, params, grid, args.tol, family_id=family_id)
    return [r.to_dict() for r in reports]


def _identity_samples(seed, n_points, spatial_dim):
    """Rows (t, x_1..x_N), each drawn t first, then x."""
    rng = np.random.default_rng(seed + 1000003)
    lo, hi = [0.6] + [-1.0] * spatial_dim, [1.2] + [1.0] * spatial_dim
    return rng.uniform(lo, hi, size=(n_points, spatial_dim + 1))


def _random_field(args, params):
    """The ``--field`` test field, seeded by ``--seed``."""
    degree, bound = parse_field_spec(args.field)
    if args.seed is None:
        raise CLIError("random fields need --seed")
    return RandomPolynomialField(args.seed, params, degree, bound)


def cmd_identity(args):
    params = ModelParams(args.N, args.z)
    field = _random_field(args, params)
    n_lo, n_hi = parse_range(args.n)
    coords = _identity_samples(args.seed, args.points, params.spatial_dim)
    elements = [Xn(n, args.eps) for n in range(n_lo, n_hi + 1)]

    def laws(element, points, jets):
        tr = xn_transport(element, params, points, jets)
        return ((pushforward_identity_gap(tr), 1.0), (derivative_law_gap(tr), 1.0),
                (obstruction_term(tr), 1.0))

    # per element, the identity gap, derivative-law gap and obstruction term;
    # out-of-branch rows are excluded, and overflowed rows make every gap inf
    tallies = [(Tally(), Tally(), Tally()) for _ in elements]
    scan(field, params, coords, [functools.partial(laws, e) for e in elements], tallies)
    return [
        {
            "n": element.n,
            "z": args.z,
            "N": args.N,
            "eps": args.eps,
            "points": identity.evaluated,
            "identity_gap": identity.gap,
            "derivative_gap": law.gap,
            "obstruction_max": obstruction.gap,
            "pass": identity.passed(args.tol) and law.passed(args.tol),
        }
        for element, (identity, law, obstruction) in zip(elements, tallies)
    ]


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
    coeffs = Coefficients(params, _commutator_points(args.N))
    rows = []
    for i, g1 in enumerate(gens):
        for g2 in gens[i + 1 :]:
            try:
                expected = expected_commutator(g1, g2, params)
                gap = commutator_gap(g1, g2, expected, coeffs)
            except ArithmeticError:  # a structure constant or a coefficient overflowed
                gap = math.inf
            # fails closed: a non-finite gap is inf
            gap = gap if math.isfinite(gap) else math.inf
            rows.append(
                {
                    "g1": str(g1),
                    "g2": str(g2),
                    "gap": gap,
                    "pass": within_tolerance(gap, args.tol),
                }
            )
    return rows


def cmd_fd_check(args):
    if (args.family is None) == (args.field is None):
        raise CLIError("give exactly one of --family or --field")
    if args.family is not None:
        if args.N is not None:
            raise CLIError("--N sets a random field's N; a family carries its own")
        fam = parse_family(args.family)
        params, field = default_params(fam), SolutionField(fam)
    else:
        # the FD check never reads z: a random field ignores it
        params = ModelParams(2 if args.N is None else args.N, 2.0)
        field = _random_field(args, params)
    seed = args.seed if args.seed is not None else 2026
    rng = np.random.default_rng(seed + 77)
    n = params.spatial_dim
    lo, hi = [0.6] + [-0.9] * n, [1.9] + [0.9] * n
    check, values = fd_check(field, params, args.h)
    tally = Tally()
    attempts = 0
    limit = 200 * args.points
    while tally.evaluated < args.points and attempts < limit:
        # as many candidates as points are still needed, so that every
        # candidate drawn counts as an attempt; a row (t, x) reads the
        # generator's doubles in the order one point after another does
        count = min(args.points - tally.evaluated, limit - attempts)
        candidates = rng.uniform(lo, hi, size=(count, n + 1))
        scan(field, params, candidates, [check], [[tally]], values)
        attempts += count
    if tally.evaluated < args.points:
        raise CLIError(
            f"could not find {args.points} interior points "
            f"(accepted {tally.evaluated} of {attempts} candidates)"
        )
    return [
        {
            "target": args.family if args.family is not None else args.field,
            "h": args.h,
            "points": tally.evaluated,
            "max_rel_err": tally.gap,
            # a candidate whose stencil leaves the domain is redrawn, not a sample
            "pass": within_tolerance(tally.gap, args.tol),
        }
    ]


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
                "z": fmt_num(fam.z),
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
    rows.append({"kind": "field", "name": "random", "spec": "random:deg=3[,bound=B]"})
    return rows


# ---------------------------------------------------------------------------
# parser


def _add_common(p, tol=None):
    if tol is not None:
        p.add_argument("--tol", default=tol, help="pass tolerance")
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
    p.add_argument("--seed", default=None)
    p.add_argument("--n", default="-2..3", help="inclusive n window A..B")
    p.add_argument("--z", default=2.0)
    p.add_argument("--N", default=2)
    p.add_argument("--eps", default=0.01)
    p.add_argument("--points", default=50)
    _add_common(p, 1e-8)
    p.set_defaults(func=cmd_identity)

    p = sub.add_parser("commutators", help="verify the commutator table")
    p.add_argument("--n", default="-2..2", help="inclusive n window A..B")
    p.add_argument("--k", default="-1..2", help="inclusive k window A..B")
    p.add_argument("--z", default=2.0)
    p.add_argument("--N", default=2)
    _add_common(p, 1e-9)
    p.set_defaults(func=cmd_commutators)

    p = sub.add_parser(
        "fd-check", help="cross-check jets against finite differences"
    )
    p.add_argument("--family", default=None)
    p.add_argument("--field", default=None)
    p.add_argument("--N", default=None, help="N of a random --field")
    p.add_argument("--h", default=1e-4)
    p.add_argument("--points", default=100)
    p.add_argument("--seed", default=None)
    _add_common(p, 1e-4)
    p.set_defaults(func=cmd_fd_check)

    p = sub.add_parser("catalog", help="list families, profiles and elements")
    _add_common(p)
    p.set_defaults(func=cmd_catalog)

    return parser


@functools.lru_cache(maxsize=1)
def _parser(build):
    """The parser ``build`` returns, built on first use and then shared.

    Keyed by the builder, which ``main`` looks up at call time: a
    replaced ``build_parser`` builds once and its parser is reused, and
    restoring the original builds afresh.  Sharing is safe because
    ``parse_args`` keeps its state on a fresh namespace per call.
    """
    return build()


def main(argv=None):
    parser = _parser(build_parser)
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        code = exc.code
        if code in (None, 0):
            return 0
        return 2
    try:
        for key, convert in _NUMBER_FLAGS.items():
            if hasattr(args, key):
                setattr(args, key, convert(f"--{key}", getattr(args, key)))
        # a non-finite value is reported in its row, not as a numpy warning
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            rows = args.func(args)
        emit(rows, args.format)
        return _summarize(rows, args.command)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
