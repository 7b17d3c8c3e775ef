"""Acceptance gate: one test per advertised guarantee.

Each test prints a single PASS/FAIL line with the governing tolerance
and the worst observed value, then asserts.  Run with ``pytest -v`` for
the per-criterion verdict lines.
"""

import json

import numpy as np
import pytest

from condsym import cli
from condsym.errors import DomainError
from condsym.fields import (
    ModelParams,
    Point,
    RandomPolynomialField,
    evaluate,
    parse_profile,
)
from condsym.operators import (
    HarmonicPhi,
    ResidualKind,
    monge_ampere,
    reduced_residuals,
    residual_scale,
)
from condsym.solutions import (
    DEFAULT_FAMILIES,
    GeneralZ,
    RadialZ1,
    SolutionField,
    ansatz_profile,
    default_grid,
    default_params,
    evaluate_solution,
)
from condsym.symmetry import (
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
    pushforward_identity_gap,
    transform_point,
    xn_transport,
)
from condsym.verify import run_residual_suite

EPS_CYCLE = (0.02, -0.02, 0.013, -0.017, 0.008)


def _verdict(name, ok, detail):
    print(f"{'PASS' if ok else 'FAIL'} {name}: {detail}")
    assert ok, f"{name}: {detail}"


def _sample_points(rng, count, spatial_dim):
    pts = []
    for _ in range(count):
        t = float(rng.uniform(0.6, 1.2))
        x = tuple(float(v) for v in rng.uniform(-1.0, 1.0, spatial_dim))
        pts.append(Point(t, x))
    return pts


@pytest.fixture(scope="module")
def law_sweep():
    """Shared sweep for the identity and derivative-law criteria.

    seeds 1-5, n in -2..3, z in {0.5, 1, 2, 3}, N in {1, 2}, |eps| <= 0.02,
    50 points per combination.
    """
    rows = []
    for spatial_dim in (1, 2):
        for seed in (1, 2, 3, 4, 5):
            for z in (0.5, 1.0, 2.0, 3.0):
                params = ModelParams(spatial_dim, z)
                u = RandomPolynomialField(seed, params, 3)
                rng = np.random.default_rng(900 + 7 * seed + spatial_dim)
                pts = _sample_points(rng, 50, spatial_dim)
                bases = [evaluate(u, params, p) for p in pts]
                ma_big = [abs(monge_ampere(b, params)) > 0.1 for b in bases]
                for i, n in enumerate((-2, -1, 0, 1, 2, 3)):
                    eps = EPS_CYCLE[(seed + i) % len(EPS_CYCLE)]
                    g = Xn(n, eps)
                    law = 0.0
                    idg = 0.0
                    witness = 0.0
                    for p, base in zip(pts, bases):
                        tr = xn_transport(g, params, u, p, base)
                        law = max(law, derivative_law_gap(tr))
                        idg = max(idg, pushforward_identity_gap(tr))
                        if n not in (-1, 0):
                            witness = max(witness, abs(obstruction_term(tr)))
                    rows.append(
                        {
                            "N": spatial_dim,
                            "seed": seed,
                            "z": z,
                            "n": n,
                            "eps": eps,
                            "law": law,
                            "identity": idg,
                            "witness_needed": n not in (-1, 0) and any(ma_big),
                            "witness": witness,
                        }
                    )
    return rows


def test_criterion_1_catalog_families_pass_designated_residuals():
    worst = 0.0
    ok = True
    for name in sorted(DEFAULT_FAMILIES):
        fam = DEFAULT_FAMILIES[name]
        params = default_params(fam)
        reports = run_residual_suite(
            SolutionField(fam),
            fam.designated,
            params,
            default_grid(fam),
            1e-8,
            family_id=name,
        )
        for r in reports:
            worst = max(worst, r.max_abs)
            total = r.points_evaluated + r.points_excluded
            ok = ok and r.passed
            ok = ok and r.points_evaluated >= 1000
            ok = ok and r.points_excluded <= 0.5 * total
    _verdict(
        "criterion 1 (catalog residuals)",
        ok and worst < 1e-8,
        f"normalized max {worst:.3e} (tol 1e-08), >=1000 admissible points each",
    )


def test_criterion_2_determinant_identity_with_obstruction_witness(law_sweep):
    worst = max(r["identity"] for r in law_sweep)
    missing = [
        r for r in law_sweep
        if r["witness_needed"] and r["witness"] <= 1e-3 * abs(r["eps"])
    ]
    ok = worst < 1e-8 and not missing
    _verdict(
        "criterion 2 (determinant identity)",
        ok,
        f"worst gap {worst:.3e} (tol 1e-08), "
        f"{len(missing)} combos missing an obstruction witness",
    )


def test_criterion_3_derivative_laws(law_sweep):
    worst = max(r["law"] for r in law_sweep)
    _verdict(
        "criterion 3 (derivative laws)",
        worst < 1e-8,
        f"worst gap {worst:.3e} (tol 1e-08) over {len(law_sweep)} combos",
    )


def test_criterion_4_commutator_table_with_exact_y_brackets():
    worst = 0.0
    yy_worst = 0.0
    pairs = 0
    for spatial_dim in (2, 3):
        points = [
            np.array(
                [1.1]
                + [0.4 * (-0.7) ** i for i in range(spatial_dim)]
                + [0.8]
            ),
            np.array(
                [0.7]
                + [-0.3 * 0.8**i for i in range(spatial_dim)]
                + [1.2]
            ),
        ]
        for z in (1.0, 2.0):
            params = ModelParams(spatial_dim, z)
            gens = [GenXn(n) for n in range(-2, 3)]
            gens += [
                GenYk(k, axis)
                for k in range(-1, 3)
                for axis in range(1, spatial_dim + 1)
            ]
            gens += [
                GenJab(a, b)
                for a in range(1, spatial_dim + 1)
                for b in range(a + 1, spatial_dim + 1)
            ]
            for i, g1 in enumerate(gens):
                for g2 in gens[i + 1 :]:
                    expected = expected_commutator(g1, g2, params)
                    pairs += 1
                    for y in points:
                        gap = commutator_gap(g1, g2, expected, params, y)
                        worst = max(worst, gap)
                        if isinstance(g1, GenYk) and isinstance(g2, GenYk):
                            yy_worst = max(yy_worst, gap)
    ok = worst < 1e-9 and yy_worst == 0.0
    _verdict(
        "criterion 4 (commutator table)",
        ok,
        f"worst gap {worst:.3e} (tol 1e-09) over {pairs} pairs, "
        f"[Y,Y] worst {yy_worst!r} (must be exactly 0.0)",
    )


def test_criterion_5_reduction_chain():
    worst_pair = 0.0
    for z in (0.5, 2.0, 3.0):
        fam = GeneralZ(0.8, 1.0, 0.0, 1, z)
        prof = ansatz_profile(fam)
        rng = np.random.default_rng(50)
        for _ in range(40):
            a = float(rng.uniform(0.3, 1.5))
            b = float(rng.uniform(-0.6, 0.6))
            try:
                j = prof.at(a, b)
            except DomainError:
                continue
            first, second = reduced_residuals(j, z)
            scale = residual_scale(
                ResidualKind.REDUCED_FIRST, j, ModelParams(2, z)
            )
            worst_pair = max(worst_pair, abs(first) / scale, abs(second) / scale)

    worst_first = 0.0
    windows = {
        "poly:0,1": (0.3, 1.2, -0.7, 0.7),
        "poly:0,0,1": (0.9, 1.5, -0.4, 0.4),
        "exp:1,0.5": (-0.5, 1.0, -0.8, 0.8),
    }
    for z in (1.0, 2.0):
        for text, (lo1, hi1, lo2, hi2) in windows.items():
            f = parse_profile(text)
            phi = HarmonicPhi(f, f, z)
            rng = np.random.default_rng(51)
            for _ in range(40):
                a = float(rng.uniform(lo1, hi1))
                b = float(rng.uniform(lo2, hi2))
                try:
                    j = phi.at(a, b)
                except DomainError:
                    continue
                first, _ = reduced_residuals(j, z)
                scale = residual_scale(
                    ResidualKind.REDUCED_FIRST, j, ModelParams(2, z)
                )
                worst_first = max(worst_first, abs(first) / scale)
    ok = worst_pair < 1e-8 and worst_first < 1e-8
    _verdict(
        "criterion 5 (reduction chain)",
        ok,
        f"ansatz residual pair {worst_pair:.3e}, harmonic first equation "
        f"{worst_first:.3e} (tol 1e-08)",
    )


def _resolved_at_scale(jet, h):
    """Interior test: local feature size must dwarf the stencil width.

    Near a pole or branch point the curvature length |grad| / |hess|
    shrinks toward the singular set; once it is comparable to h the
    truncation term of the stencil dominates and the comparison is
    meaningless, so such candidates are not interior points.
    """
    hess_max = float(np.max(np.abs(jet.hess)))
    if hess_max <= 1.0:
        return True
    grad_max = float(np.max(np.abs(jet.grad)))
    return grad_max / hess_max >= 100.0 * h


def _fd_worst(field, params, rng, n_points, h):
    from condsym.verify import fd_crosscheck

    worst = 0.0
    accepted = 0
    attempts = 0
    while accepted < n_points and attempts < 200 * n_points:
        attempts += 1
        t = float(rng.uniform(0.6, 1.9))
        x = tuple(float(v) for v in rng.uniform(-0.9, 0.9, params.spatial_dim))
        p = Point(t, x)
        try:
            if not _resolved_at_scale(evaluate(field, params, p), h):
                continue
            err = fd_crosscheck(field, params, [p], h)
        except DomainError:
            continue
        accepted += 1
        worst = max(worst, err)
    return worst, accepted


def test_criterion_6_finite_difference_crosscheck():
    worst = 0.0
    ok = True
    targets = []
    for name in sorted(DEFAULT_FAMILIES):
        fam = DEFAULT_FAMILIES[name]
        targets.append((name, SolutionField(fam), default_params(fam)))
    for seed in (1, 2, 3, 4, 5):
        params = ModelParams(2, 2.0)
        targets.append(
            (f"random-{seed}", RandomPolynomialField(seed, params, 3), params)
        )
    for idx, (name, field, params) in enumerate(targets):
        rng = np.random.default_rng(600 + idx)
        err, accepted = _fd_worst(field, params, rng, 100, 1e-4)
        ok = ok and accepted == 100 and err < 1e-4
        worst = max(worst, err)
    _verdict(
        "criterion 6 (finite differences)",
        ok,
        f"worst relative error {worst:.3e} (tol 1e-04, h 1e-04) over "
        f"{len(targets)} targets x 100 points",
    )


def test_criterion_7_general_family_reaches_radial_limit():
    z_near = 1.0 + 1e-6
    gz = GeneralZ(0.5, 0.3, -0.2, 1, z_near)
    rad = RadialZ1(1.0, 0.3, -0.2, 1)
    p_gz = ModelParams(2, z_near)
    p_rad = ModelParams(2, 1.0)
    rng = np.random.default_rng(70)
    worst = 0.0
    accepted = 0
    while accepted < 100:
        t = float(rng.uniform(0.5, 2.0))
        x = tuple(float(v) for v in rng.uniform(-1.0, 1.0, 2))
        try:
            a = evaluate_solution(gz, p_gz, Point(t, x)).value
            b = evaluate_solution(rad, p_rad, Point(t, x)).value
        except DomainError:
            continue
        if abs(b) < 1e-6:
            continue
        accepted += 1
        worst = max(worst, abs(a - b) / abs(b))
    _verdict(
        "criterion 7 (z -> 1 limit)",
        worst < 1e-4,
        f"worst relative deviation {worst:.3e} (tol 1e-04) at 100 points",
    )


def test_criterion_8_group_laws_all_variants():
    sin_prof = parse_profile("sin:1,1,0")
    const_prof = parse_profile("const:1")
    variants = [
        (lambda e: Xn(1, e), ModelParams(2, 2.0)),
        (lambda e: Xn(3, e), ModelParams(2, 0.5)),
        (lambda e: Xn(-2, e), ModelParams(2, 2.0)),
        (lambda e: Xn(-1, e), ModelParams(2, 2.0)),
        (lambda e: Xn(0, e), ModelParams(2, 2.0)),
        (lambda e: Xn(2, e), ModelParams(2, 0.0)),
        (lambda e: Yk(1, (e, -0.5 * e)), ModelParams(2, 2.0)),
        (lambda e: Yk(-1, (0.0, e)), ModelParams(2, 2.0)),
        (
            lambda e: Yphi((sin_prof, const_prof), (e, 2.0 * e)),
            ModelParams(2, 2.0),
        ),
        (lambda e: Rot(1, 2, e), ModelParams(2, 2.0)),
    ]
    pts = [Point(0.8, (0.6, -0.4)), Point(1.3, (-0.2, 0.9)), Point(1.9, (0.1, 0.3))]
    worst = 0.0
    for make, params in variants:
        for p in pts:
            for e1, e2 in ((0.02, 0.013), (-0.015, 0.007)):
                q1, a1 = transform_point(make(e1), params, p)
                q2, a2 = transform_point(make(e2), params, q1)
                q12, a12 = transform_point(make(e1 + e2), params, p)
                worst = max(worst, abs(q2.t - q12.t))
                worst = max(
                    worst,
                    max(abs(a - b) for a, b in zip(q2.x, q12.x)),
                )
                worst = max(worst, abs(a1 * a2 - a12))
            g = make(0.05)
            q, A = transform_point(g, params, p)
            back, a_inv = transform_point(g.inverse(), params, q)
            worst = max(worst, abs(back.t - p.t))
            worst = max(worst, max(abs(a - b) for a, b in zip(back.x, p.x)))
            worst = max(worst, abs(A * a_inv - 1.0))
    _verdict(
        "criterion 8 (group laws)",
        worst < 1e-10,
        f"worst composition/inverse defect {worst:.3e} (tol 1e-10)",
    )


def test_criterion_9_cli_determinism_and_exit_codes(capsys):
    invocations = [
        ["check", "--family", "one-dim-z1"],
        ["transform", "--family", "radial-z1", "--group", "Yk:k=1,v=0.3,-0.1"],
        ["identity", "--seed", "9", "--n=-1..2", "--points", "10"],
        ["commutators", "--n=-1..1", "--k=0..1"],
        ["fd-check", "--family", "radial-z1", "--points", "10"],
        ["catalog"],
    ]
    deterministic = True
    for argv in invocations:
        cli.main(list(argv))
        first = capsys.readouterr().out
        cli.main(list(argv))
        second = capsys.readouterr().out
        deterministic = deterministic and first == second and first
        json.loads(first)  # stdout is a json document

    code_pass = cli.main(
        ["check", "--family", "radial-z1:c=1,e1=0,e2=0,n=0", "--z", "1", "--N", "2"]
    )
    code_fail = cli.main(["check", "--family", "ma-only", "--kinds", "diffusion"])
    code_usage = cli.main(["check", "--family", "radial-z1", "--frobz", "2"])
    capsys.readouterr()
    ok = bool(deterministic) and (code_pass, code_fail, code_usage) == (0, 1, 2)
    _verdict(
        "criterion 9 (cli determinism)",
        ok,
        f"byte-identical reruns for {len(invocations)} subcommands, "
        f"exit codes (pass, fail, usage) = {(code_pass, code_fail, code_usage)}",
    )
