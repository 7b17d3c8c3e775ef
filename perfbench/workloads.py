"""The three workloads: inputs drawn from a seed, and the operations that run on them.

``prepare(name, seed, condsym)`` is the whole set-up of a workload: it
builds the CLI parser, parses every spec the workload will run, builds
the fields and draws the points.  It returns a list of ``Op``; calling
``op.run()`` is the timed work, ``op.check(output)`` validates the
result against ``oracles`` and returns a list of problems.

The program only ever sees the generated specs and points.
"""

import contextlib
import io
from dataclasses import dataclass

import numpy as np

import oracles

WORKLOADS = ("grid-residuals", "symmetry-laws", "fd-crosscheck")

# Size of each default grid by spatial dimension, as documented by the
# catalog: 42 x 42 for N = 1, 12**3 for N = 2, 2 x 12**3 for N = 3.
GRID_POINTS = {1: 42 * 42, 2: 12**3, 3: 2 * 12**3}

FD_STEP = 1e-4
FD_POINTS = 100
FD_RESOLVED = 3e-5  # bound on the closed form's |D(h) - D(2h)|, relative
IDENTITY_N = (-2, 3)  # the CLI's default window
IDENTITY_POINTS = 50
COMMUTATOR_N = (-2, 2)
COMMUTATOR_K = (-1, 2)


@dataclass
class Family:
    name: str
    keys: dict  # spec key -> float, int or (profile kind, params)
    spatial_dim: int
    designated: tuple
    third_vanish: bool  # all third derivatives are identically zero

    @property
    def spec(self):
        return self.name + ":" + ",".join(f"{k}={_fmt(v)}" for k, v in self.keys.items())


@dataclass
class Op:
    label: str
    samples: int
    run: object  # () -> output
    check: object  # output -> list of problems
    failed: object = lambda output: False  # the program reported failure
    evaluates_fields: bool = True


def _fmt(v):
    if isinstance(v, tuple):
        kind, params = v
        return kind + ":" + ",".join(repr(float(p)) for p in params)
    if isinstance(v, list):
        return "poly2:" + ",".join(repr(float(p)) for p in v)
    return repr(v)


def draw_families(rng):
    """Every catalog family with parameters drawn inside ranges that keep
    its domain, and so its excluded share of the grid, nearly fixed."""

    def u(lo, hi):
        return round(float(rng.uniform(lo, hi)), 4)

    both = ("diffusion", "monge-ampere")
    return [
        Family("general-yphi", {"c": u(0.5, 1.5), "e1": 0.4, "e2": 0.25, "z": 2.0,
                                "phi1": ("sin", (1.0, 1.0, 0.0)), "phi2": ("const", (1.0,))},
               2, both, False),
        Family("general-z", {"c": u(0.5, 1.5), "e1": 1.0, "e2": 0.0, "n": 1, "z": 2.0},
               2, both, False),
        Family("ma-only", {"N": 3, "phi": [u(0.5, 1.5), u(0.5, 1.5), 0.0, 0.0,
                                          u(0.5, 1.5), u(0.25, 0.75)]},
               3, ("monge-ampere",), False),
        Family("one-dim-generic", {"q": ("poly", (u(0.5, 1.5), 0.0, u(0.5, 1.5)))},
               1, ("diffusion",), True),
        Family("one-dim-z0", {"c": u(0.5, 1.5), "q": ("poly", (u(1.5, 2.5), u(0.5, 1.5)))},
               1, ("diffusion",), False),
        Family("one-dim-z1", {"c": u(0.25, 0.75), "q": ("poly", (u(1.5, 2.5), u(0.25, 0.75)))},
               1, ("diffusion",), True),
        Family("radial-z1", {"c": u(0.5, 1.5), "e1": u(0.3, 0.7), "e2": 0.0, "n": 1},
               2, both, False),
        Family("z0-linear", {"psi1": ("exp", (u(0.5, 1.5), u(-1.5, -0.5))),
                             "psi2": ("sin", (u(0.5, 1.5), u(1.5, 2.5), 0.0))},
               2, both, False),
        Family("z0-sqrt", {"psi": ("const", (u(24.0, 26.0),))}, 2, both, False),
    ]


def draw_transforms(rng):
    """(family name, group spec) pairs: one element of each kind, each on a
    2-D family it leaves mostly inside the domain."""

    def u(lo, hi):
        return round(float(rng.uniform(lo, hi)), 4)

    return [
        ("radial-z1", f"Xn:n=1,eps={u(0.03, 0.07)!r}"),
        ("general-z", f"Yk:k=1,v={u(-0.15, 0.15)!r},{u(-0.15, 0.15)!r}"),
        ("z0-linear", f"Yphi:e={u(-0.15, 0.15)!r},{u(-0.15, 0.15)!r};"
                      "profiles=sin:1,1,0|const:1"),
        ("z0-sqrt", f"rot:a=1,b=2,angle={u(-0.15, 0.15)!r}"),
    ]


def run_cli(cs, argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cs.cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def _cli_op(cs, label, argv, samples, check_rows, evaluates_fields=True):
    def check(output):
        code, stdout, stderr = output
        try:
            rows = oracles.strict_json(stdout)
        except ValueError as exc:
            return [f"stdout is not strict JSON: {exc}"]
        return check_rows(rows)

    return Op(label, samples, lambda: run_cli(cs, argv), check,
              failed=lambda output: output[0] != 0, evaluates_fields=evaluates_fields)


def value_problems(name, seed, cs, count=8):
    """The workload's families at random grid nodes of their default
    grids against the numpy closed forms."""
    if name == "symmetry-laws":
        return []
    problems = []
    rng = np.random.default_rng([seed, WORKLOADS.index(name), 1])
    for fam in draw_families(np.random.default_rng([seed, WORKLOADS.index(name)])):
        parsed = cs.cli.parse_family(fam.spec)
        params = cs.solutions.default_params(parsed)
        axes = cs.solutions.default_grid(parsed).axes()
        field = cs.solutions.SolutionField(parsed)
        compared = 0
        for _ in range(count):
            coords = [float(a[rng.integers(len(a))]) for a in axes]
            try:
                got = field.evaluate(params, cs.Point(coords[0], tuple(coords[1:]))).value
            except cs.DomainError:
                continue
            ref = oracles.family_value(fam.name, fam.keys, [coords[0]], [coords[1:]])[0]
            if not abs(got - ref) <= 1e-12 * (1.0 + abs(ref)):
                problems.append(f"{fam.name}: value {got!r} != closed form {ref!r} at {coords}")
            compared += 1
        if not compared:
            problems.append(f"{fam.name}: no sampled node inside the domain")
    return problems


def _grid_residuals(cs, rng):
    parser = cs.cli.build_parser()
    families = draw_families(rng)
    by_name = {f.name: f for f in families}
    ops = []
    for fam in families:
        argv = ["check", "--family", fam.spec]
        parser.parse_args(argv)
        cs.solutions.SolutionField(cs.cli.parse_family(fam.spec))
        grid = GRID_POINTS[fam.spatial_dim]
        ops.append(_cli_op(
            cs, f"check {fam.name}", argv, grid * len(fam.designated),
            lambda rows, f=fam, g=grid: oracles.check_residual_rows(rows, f.designated, g),
        ))
    for name, group in draw_transforms(rng):
        fam = by_name[name]
        argv = ["transform", "--family", fam.spec, "--group", group]
        parser.parse_args(argv)
        parsed = cs.cli.parse_family(fam.spec)
        params = cs.solutions.default_params(parsed)
        cs.symmetry.pushforward_field(
            cs.cli.parse_group(group), params, cs.solutions.SolutionField(parsed)
        )
        grid = GRID_POINTS[fam.spatial_dim]
        ops.append(_cli_op(
            cs, f"transform {name} {group.split(':')[0]}", argv, grid * len(fam.designated),
            lambda rows, f=fam, g=grid: oracles.check_residual_rows(rows, f.designated, g),
        ))
    return ops, []


def _symmetry_laws(cs, rng):
    parser = cs.cli.build_parser()
    n_lo, n_hi = IDENTITY_N
    ops = []
    cases = [
        ("generic z", 2, round(float(rng.uniform(1.5, 3.0)), 4)),
        ("z = 0", 2, 0.0),
        ("N = 3", 3, round(float(rng.uniform(1.5, 3.0)), 4)),
    ]
    for label, dim, z in cases:
        seed = int(rng.integers(1, 2**31 - 1))
        argv = ["identity", "--seed", str(seed), "--z", repr(z), "--N", str(dim),
                f"--n={n_lo}..{n_hi}", "--points", str(IDENTITY_POINTS)]
        parser.parse_args(argv)
        cs.fields.RandomPolynomialField(seed, cs.ModelParams(dim, z), 3)
        ops.append(_cli_op(
            cs, f"identity {label}", argv, (n_hi - n_lo + 1) * IDENTITY_POINTS,
            lambda rows, z=z, dim=dim: oracles.check_identity_rows(
                rows, IDENTITY_N, IDENTITY_POINTS, z, dim),
        ))
    for dim in (2, 3):
        (n_lo, n_hi), (k_lo, k_hi) = COMMUTATOR_N, COMMUTATOR_K
        argv = ["commutators", "--N", str(dim), f"--n={n_lo}..{n_hi}", f"--k={k_lo}..{k_hi}"]
        parser.parse_args(argv)
        gens = (n_hi - n_lo + 1) + (k_hi - k_lo + 1) * dim + dim * (dim - 1) // 2
        # each bracket is checked on 3 test functions at 2 points
        ops.append(_cli_op(
            cs, f"commutators N={dim}", argv, gens * (gens - 1) // 2 * 3 * 2,
            lambda rows, g=gens: oracles.check_commutator_rows(rows, g),
            evaluates_fields=False,
        ))
    return ops, []


def _resolved_at_scale(jet, h):
    """The interior rule of the FD acceptance criterion: the curvature
    length |grad| / |hess| must dwarf the stencil width."""
    hess_max = float(np.max(np.abs(jet.hess)))
    if hess_max <= 1.0:
        return True
    return float(np.max(np.abs(jet.grad))) / hess_max >= 100.0 * h


def fd_points(cs, fam, field, params, rng, count=FD_POINTS, h=FD_STEP):
    """Interior points for the FD cross-check.

    A candidate is kept when the program's jet there is finite and
    resolved at the stencil scale (the rule of the FD acceptance
    criterion), and when the closed form's own differences at h and 2h
    agree to FD_RESOLVED, so the stencil stays in the domain and its
    truncation error is far below the 1e-4 tolerance.
    """
    points = []
    for _ in range(50):
        t = rng.uniform(0.6, 1.9, 4 * count)
        x = rng.uniform(-0.9, 0.9, (4 * count, fam.spatial_dim))
        est = oracles.fd_truncation(fam.name, fam.keys, t, x, h, margin=1e3)
        for ti, xi in zip(t[est <= FD_RESOLVED], x[est <= FD_RESOLVED]):
            p = cs.Point(float(ti), tuple(float(v) for v in xi))
            try:
                jet = field.evaluate(params, p)
            except cs.DomainError:
                continue
            if np.isfinite(jet.value) and _resolved_at_scale(jet, h):
                points.append(p)
                if len(points) == count:
                    return points
    return points


def _fd_crosscheck(cs, rng):
    ops, problems = [], []
    for fam in draw_families(rng):
        parsed = cs.cli.parse_family(fam.spec)
        params = cs.solutions.default_params(parsed)
        field = cs.solutions.SolutionField(parsed)
        points = fd_points(cs, fam, field, params, rng)
        if len(points) < FD_POINTS:
            problems.append(f"{fam.name}: only {len(points)} interior points")

        def run(field=field, params=params, points=points):
            # looked up per call, so a traced run sees the wrapped function
            return cs.verify.fd_crosscheck(field, params, points, FD_STEP)

        ops.append(Op(
            f"fd {fam.name}", len(points), run,
            lambda err, f=fam: [f"{f.name}: {p}" for p in oracles.check_fd(err, not f.third_vanish)],
        ))
    return ops, problems


_BUILDERS = {
    "grid-residuals": _grid_residuals,
    "symmetry-laws": _symmetry_laws,
    "fd-crosscheck": _fd_crosscheck,
}


def prepare(name, seed, cs):
    """Set up a workload: (ops, problems found while setting up)."""
    rng = np.random.default_rng([seed, WORKLOADS.index(name)])
    return _BUILDERS[name](cs, rng)
