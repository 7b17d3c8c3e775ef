"""Command-line interface: grammars, formats, exit codes, determinism."""

import argparse
import ast
import csv
import dataclasses
import gc
import io
import json
import math
import os
import shlex
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from condsym import cli, fields, jet2, verify
from condsym.cli import (
    CLIError,
    family_spec,
    main,
    parse_family,
    parse_field_spec,
    parse_grid,
    parse_group,
    parse_kinds,
    parse_range,
)
from condsym.errors import BranchError, DomainError
from condsym.fields import (
    ModelParams,
    Point,
    PolynomialFunction,
    RandomPolynomialField,
    parse_profile,
)
from condsym.operators import monge_ampere, w1
from condsym.solutions import DEFAULT_FAMILIES, GeneralZ, MAOnly, Z0Linear
from condsym.symmetry import PushforwardField, Rot, Xn, Yk, Yphi, transform_point

README = Path(__file__).resolve().parents[1] / "README.md"


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# --- grammars ---------------------------------------------------------------


def test_parse_family_defaults_and_overrides():
    assert parse_family("radial-z1") == DEFAULT_FAMILIES["radial-z1"]
    fam = parse_family("general-z:c=2,e1=0.5,e2=0,n=2,z=3")
    assert fam == GeneralZ(2.0, 0.5, 0.0, 2, 3.0)


def test_parse_family_profile_values_merge_commas():
    fam = parse_family("z0-linear:psi1=sin:1,1,0,psi2=poly:0,1")
    assert isinstance(fam, Z0Linear)
    assert fam.psi1 == parse_profile("sin:1,1,0")
    assert fam.psi2 == parse_profile("poly:0,1")


def test_parse_family_ma_only_poly2():
    fam = parse_family("ma-only:N=3,phi=poly2:1,1,0,0,1,0.5")
    assert isinstance(fam, MAOnly)
    assert fam.spatial_dim == 3
    assert fam == DEFAULT_FAMILIES["ma-only"]


def test_parse_family_errors():
    with pytest.raises(CLIError):
        parse_family("no-such")
    with pytest.raises(CLIError):
        parse_family("radial-z1:bogus=1")
    with pytest.raises(CLIError):
        parse_family("radial-z1:c=abc")
    with pytest.raises(CLIError):
        parse_family("radial-z1:c=-1")  # c must be positive
    with pytest.raises(CLIError):
        parse_family("radial-z1:c=1,c=2")
    with pytest.raises(CLIError):
        parse_family("ma-only:phi=poly2:1,1")  # 2 is not a graded size


def test_family_spec_round_trips_catalog():
    for name in DEFAULT_FAMILIES:
        assert parse_family(family_spec(name)) == DEFAULT_FAMILIES[name]


@pytest.mark.parametrize(
    "coeffs",
    ["0.7", "0,-1.5,2", "1,0,0,0.25,0,-3", "0.5,0,2,0,0,0,0.25,0,0,-0.125"],
)
def test_family_spec_round_trips_poly2(coeffs):
    spec = f"ma-only:N=3,phi=poly2:{coeffs},z=2"
    fam = parse_family(spec)
    assert family_spec("ma-only", fam) == spec
    assert parse_family(family_spec("ma-only", fam)) == fam


def test_family_spec_rejects_terms_poly2_cannot_hold():
    # three ratio variables
    fam = MAOnly(4, PolynomialFunction(((0, 0, 0), (1, 0, 2)), (1.0, 2.0)))
    with pytest.raises(ValueError, match=r"\(0, 0, 0\)"):
        family_spec("ma-only", fam)
    # degree 4 in two variables
    fam = MAOnly(3, PolynomialFunction(((4, 0), (1, 0)), (1.0, 2.0)))
    with pytest.raises(ValueError, match=r"\(4, 0\)"):
        family_spec("ma-only", fam)


# a valid value for every field of every catalog family, each differing
# from the catalog default
_OVERRIDES = {
    "one-dim-z0": "c=2,q=poly:1,2",
    "one-dim-z1": "c=1.5,q=exp:1,-1",
    "one-dim-generic": "q=poly:2,0,1,z=3",
    "radial-z1": "c=2,e1=0.25,e2=0.1,n=2",
    "general-z": "c=2,e1=0.5,e2=0.1,n=2,z=3",
    "z0-sqrt": "psi=const:16",
    "z0-linear": "psi1=sin:1,1,0,psi2=poly:0,1",
    "general-yphi": "c=2,e1=0.3,e2=0.2,z=3,phi1=const:1,phi2=sin:1,1,0",
    "ma-only": "N=2,phi=sin:1,1,0.5,z=3",
    "stationary": "f=poly:2,0.5,0.5,z=3",
}


def test_parse_family_overrides_every_field():
    assert set(_OVERRIDES) == set(DEFAULT_FAMILIES)
    for name, overrides in _OVERRIDES.items():
        fam = parse_family(f"{name}:{overrides}")
        default = DEFAULT_FAMILIES[name]
        for f in dataclasses.fields(fam):
            assert getattr(fam, f.name) != getattr(default, f.name), (name, f.name)
        assert parse_family(family_spec(name, fam)) == fam


def test_family_spec_writes_the_overrides_back():
    for name, overrides in _OVERRIDES.items():
        spec = f"{name}:{overrides}"
        assert family_spec(name, parse_family(spec)) == spec


@pytest.mark.parametrize(
    "spec",
    ["radial-z1:c=nan", "general-z:z=inf", "one-dim-generic:z=-inf",
     "z0-linear:psi1=sin:nan,1,0", "ma-only:phi=poly2:nan", "ma-only:phi=poly2:1,inf,0"],
)
def test_parse_family_refuses_non_finite_numbers(capsys, spec):
    with pytest.raises(CLIError, match="not finite"):
        parse_family(spec)
    code, out, err = run_cli(capsys, "check", "--family", spec)
    assert (code, out) == (2, "") and err.startswith("error: ") and "not finite" in err


@pytest.mark.parametrize(
    "argv",
    [("identity", "--field", "random:deg=3,bound=inf", "--seed", "1"),
     ("fd-check", "--field", "random:deg=3,bound=1e308", "--seed", "1"),
     ("identity", "--field", "random:deg=3,bound=nan", "--seed", "1"),
     ("identity", "--field", "random:deg=3,bound=-1", "--seed", "1")],
)
def test_random_field_bound_out_of_range_is_usage_error(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and "Traceback" not in err and "bound" in err


@pytest.mark.parametrize(
    "argv,degree",
    [(("identity", "--seed", "1", "--field", "random:deg=-1"), -1),
     (("fd-check", "--field", "random:deg=-2", "--seed", "1"), -2)],
)
def test_random_field_negative_degree_is_usage_error(capsys, argv, degree):
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (2, "")
    assert err == f"error: polynomial degree {degree} is negative\n"


def test_parse_group_variants():
    assert parse_group("Xn:n=1,eps=0.01") == Xn(1, 0.01)
    assert parse_group("Xn:n=-2,eps=0.01") == Xn(-2, 0.01)
    assert parse_group("Yk:k=1,v=0.5,0.0") == Yk(1, (0.5, 0.0))
    g = parse_group("Yphi:e=1,0;profiles=sin:1,1,0|const:0")
    assert g == Yphi((parse_profile("sin:1,1,0"), parse_profile("const:0")), (1.0, 0.0))
    assert parse_group("rot:a=1,b=2,angle=0.3") == Rot(1, 2, 0.3)
    # "," separates keys as ";" does, and element names ignore case
    assert parse_group("Yphi:e=1,0,profiles=sin:1,1,0|const:0") == g
    assert parse_group("XN:n=1,eps=0.01") == Xn(1, 0.01)


def test_parse_group_errors():
    with pytest.raises(CLIError):
        parse_group("Zz:n=1")
    with pytest.raises(CLIError):
        parse_group("Xn:n=1")  # missing eps
    with pytest.raises(CLIError):
        parse_group("Xn:n=1,eps=0.01,lam=2")  # the field weight is always 1
    with pytest.raises(CLIError):
        parse_group("Yphi:e=1,0;profiles=sin:1,1,0")  # one profile, two shifts
    with pytest.raises(CLIError):
        parse_group("rot:a=1,b=1,angle=0.3")
    with pytest.raises(CLIError, match="duplicate key 'e'"):
        parse_group("Yphi:e=0.1,-0.1;e=5,5;profiles=sin:1,1,0|const:1")
    with pytest.raises(CLIError, match="unknown key 'w'"):
        parse_group("Yk:k=1,v=0.5,0.0,w=1")
    with pytest.raises(CLIError, match="missing angle"):
        parse_group("rot:a=1,b=2")
    with pytest.raises(CLIError, match="bad number for v"):
        parse_group("Yk:k=1,v=0.5,x")


def test_parse_grid():
    grid = parse_grid("t=0.5:2:10,x=-1:1:10", 2)
    assert grid.t_range == (0.5, 2.0, 10)
    assert grid.x_ranges == ((-1.0, 1.0, 10), (-1.0, 1.0, 10))
    mixed = parse_grid("t=0.5:2:4,x1=0:1:3,x2=-2:-1:5", 2)
    assert mixed.x_ranges == ((0.0, 1.0, 3), (-2.0, -1.0, 5))
    with pytest.raises(CLIError):
        parse_grid("x=-1:1:10", 2)
    with pytest.raises(CLIError):
        parse_grid("t=0.5:2:10,x1=0:1:3", 2)  # x2 uncovered
    with pytest.raises(CLIError):
        parse_grid("t=0.5:2:10,x3=0:1:3", 2)
    with pytest.raises(CLIError):
        parse_grid("t=2:0.5:10,x=-1:1:10", 2)


def test_parse_kinds_and_range_and_field():
    kinds = parse_kinds("diffusion,monge-ampere")
    assert [k.value for k in kinds] == ["diffusion", "monge-ampere"]
    with pytest.raises(CLIError):
        parse_kinds("diffusion,bogus")
    with pytest.raises(CLIError, match="unknown residual kind"):
        parse_kinds("z0-diffusion")  # diffusion at z = 0, N = 2 is the same residual
    with pytest.raises(CLIError, match="unknown residual kind"):
        parse_kinds("reduced-first")  # diffusion on a stationary field is that residual
    with pytest.raises(CLIError, match="duplicate residual kind"):
        parse_kinds("diffusion,diffusion")
    with pytest.raises(CLIError, match="unknown residual kind"):
        parse_kinds("")
    assert parse_range("-2..3") == (-2, 3)
    with pytest.raises(CLIError):
        parse_range("3..-2")
    assert parse_field_spec("random:deg=2,bound=0.5") == (2, 0.5)
    assert parse_field_spec("random:deg=4") == (4, 1.0)
    with pytest.raises(CLIError):
        parse_field_spec("fixed:deg=2")
    with pytest.raises(CLIError, match="unknown keys seed"):
        parse_field_spec("random:deg=2,seed=9")  # --seed seeds a random field


# --- subcommands ------------------------------------------------------------


def test_check_pass_case(capsys):
    code, out, err = run_cli(capsys, "check", "--family", "radial-z1:c=1,e1=0,e2=0,n=0")
    assert code == 0
    rows = json.loads(out)
    assert {r["equation"] for r in rows} == {"diffusion", "monge-ampere"}
    assert all(r["pass"] for r in rows)
    assert "2/2 passed" in err


def test_check_fail_case(capsys):
    # the degree-1 homogeneous family solves Monge-Ampere, not diffusion
    code, out, err = run_cli(capsys, "check", "--family", "ma-only", "--kinds", "diffusion")
    assert code == 1
    rows = json.loads(out)
    assert rows[0]["pass"] is False


def test_check_usage_cases(capsys):
    code, _, _ = run_cli(capsys, "check", "--family", "radial-z1", "--frobz", "2")
    assert code == 2
    code, _, err = run_cli(capsys, "check", "--family", "no-such-family")
    assert code == 2 and "unknown family" in err
    code, _, err = run_cli(capsys, "check", "--family", "radial-z1", "--z", "2")
    assert code == 2  # a family carries its own z and N; the flags are gone
    code, _, err = run_cli(capsys, "check", "--family", "radial-z1", "--N", "3")
    assert code == 2
    # an empty or repeated --kinds is a usage error, not the designated kinds
    for kinds in ("", "diffusion, ", "diffusion,diffusion"):
        code, out, err = run_cli(capsys, "check", "--family", "one-dim-z1", "--kinds", kinds)
        assert code == 2 and out == "" and err.startswith("error: ")
    # an empty --grid is a usage error, not the default grid
    code, out, err = run_cli(capsys, "check", "--family", "one-dim-z1", "--grid=")
    assert code == 2 and out == "" and err.startswith("error: ")


def test_check_custom_grid_and_kinds(capsys):
    code, out, _ = run_cli(
        capsys,
        "check",
        "--family",
        "radial-z1",
        "--grid",
        "t=0.6:1.4:3,x=0.2:0.9:4",
        "--kinds",
        "general-invariant,monge-ampere",
    )
    assert code == 0
    rows = json.loads(out)
    assert [r["equation"] for r in rows] == ["general-invariant", "monge-ampere"]
    assert rows[0]["points_evaluated"] == 48


def test_check_csv_format(capsys):
    code, out, _ = run_cli(capsys, "check", "--family", "one-dim-z1", "--format", "csv")
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    assert rows[0]["equation"] == "diffusion"
    assert rows[0]["pass"] == "true"
    assert json.loads(rows[0]["worst_point"])  # compact json cell


def test_check_csv_leaves_a_missing_worst_point_empty(capsys):
    # every point overflows, so no row is the worst: its cell is empty
    code, out, _ = run_cli(
        capsys, "check", "--family", "one-dim-generic:q=exp:1,800", "--format", "csv"
    )
    (row,) = csv.DictReader(io.StringIO(out))
    assert code == 1 and (row["worst_point"], row["pass"]) == ("", "false")


def test_transform_pass(capsys):
    code, out, _ = run_cli(
        capsys,
        "transform",
        "--family",
        "general-z",
        "--group",
        "Xn:n=1,eps=0.02",
    )
    assert code == 0
    rows = json.loads(out)
    assert all(r["pass"] for r in rows)
    assert "via Xn" in rows[0]["family"]


def test_transform_excludes_pole_samples(capsys):
    # Yk with k = -1 has a pole at t = 0: the grid's t = 0 slice is excluded
    code, out, _ = run_cli(
        capsys,
        "transform",
        "--family",
        "radial-z1",
        "--group",
        "Yk:k=-1,v=0.1,0.1",
        "--grid",
        "t=0:1:3,x=-1:1:3",
    )
    assert code == 0
    rows = json.loads(out)
    assert [(r["points_evaluated"], r["points_excluded"]) for r in rows] == [(18, 9)] * 2


def test_transform_of_a_solution_off_ma_zero_fails_for_the_conditional_xn(capsys):
    # the stationary family solves diffusion with MA != 0, so only X_{-1}
    # and X_0, the classical symmetries, carry it to a solution
    code, out, _ = run_cli(capsys, "check", "--family", "stationary", "--kinds", "monge-ampere")
    assert code == 1 and json.loads(out)[0]["points_excluded"] == 0
    for n in (-2, -1, 0, 1, 2, 3):
        code, out, err = run_cli(
            capsys, "transform", "--family", "stationary", "--group", f"Xn:n={n},eps=0.02"
        )
        (row,) = json.loads(out)
        assert code == (0 if n in (-1, 0) else 1), (n, row["max_abs"])
        assert row["pass"] is (n in (-1, 0))
        assert row["points_excluded"] == 0


def test_transform_group_mismatch(capsys):
    code, _, err = run_cli(
        capsys, "transform", "--family", "general-z", "--group", "Yk:k=1,v=0.5"
    )
    assert code == 2


def test_usage_errors_print_one_line(capsys):
    code, out, err = run_cli(capsys, "catalog", "--tol", "1e-3")
    assert code == 2 and out == ""
    # the rotation axis 3 exceeds N = 2; main reports the mismatch itself
    code, out, err = run_cli(
        capsys, "transform", "--family", "radial-z1", "--group", "rot:a=1,b=3,angle=0.1"
    )
    assert code == 2 and out == ""
    assert err == "error: rotation axes exceed spatial dimension\n"


@pytest.mark.parametrize("argv, message", [
    (("check", "--family", "radial-z1:n=x"), "bad integer for n: 'x'"),
    (("check", "--family", "radial-z1", "--grid", "t=0.5:2,x=-1:1:10"),
     "bad axis t='0.5:2', expected lo:hi:count"),
    (("check", "--family", "radial-z1", "--grid", "t=0.5:2:4,y=-1:1:4"),
     "unknown grid axis 'y'"),
    (("identity", "--seed", "3", "--n=1-3"), "bad range '1-3', expected A..B"),
    # a second key for x1 with a leading zero does not replace the first
    (("check", "--family", "radial-z1", "--grid", "t=0.5:2:3,x1=-1:1:3,x01=0:1:4,x2=-1:1:3"),
     "unknown grid axis 'x01'"),
])
def test_grammar_errors_print_one_line(capsys, argv, message):
    assert run_cli(capsys, *argv) == (2, "", f"error: {message}\n")


def test_identity_requires_seed(capsys):
    code, _, err = run_cli(capsys, "identity")
    assert code == 2 and "seed" in err


def test_identity_runs(capsys):
    code, out, _ = run_cli(
        capsys, "identity", "--seed", "3", "--n=-1..1", "--points", "10"
    )
    assert code == 0
    rows = json.loads(out)
    assert [r["n"] for r in rows] == [-1, 0, 1]
    assert all(r["identity_gap"] < 1e-8 for r in rows)


@pytest.mark.parametrize(
    "eps, code, points, passed",
    [("0.2", 0, [50, 42, 30], [True, True, True]),
     ("0.5", 1, [34, 11, 10], [True, False, False])],
)
def test_identity_excludes_out_of_branch_samples(capsys, eps, code, points, passed):
    # 1 - z*n*eps*t^n <= 0 puts a sample outside the finite Xn's branch;
    # a row fails once more than half of its samples are out of branch
    got, out, err = run_cli(capsys, "identity", "--seed", "3", "--n=1..3", "--eps", eps)
    assert got == code and "error" not in err
    rows = json.loads(out)
    assert [r["points"] for r in rows] == points
    assert [r["pass"] for r in rows] == passed
    assert all(r["identity_gap"] < 1e-8 and r["derivative_gap"] < 1e-8 for r in rows)


def test_identity_evaluates_each_jet_once(capsys, monkeypatch):
    # one jet of u per point, in batches, each batch by one call of the
    # kernel; every Xn transports those jets and evaluates u no more
    batches, singles, kernel_rows = [], [], []
    poly_jet = fields.poly_jet

    class Counted(cli.RandomPolynomialField):
        def evaluate(self, params, point):
            singles.append(point)
            return super().evaluate(params, point)

        def evaluate_many(self, params, coords):
            batches.append(len(coords))
            return super().evaluate_many(params, coords)

    def counted(powers, coeffs, coords):
        kernel_rows.append(len(coords))
        return poly_jet(powers, coeffs, coords)

    monkeypatch.setattr(cli, "RandomPolynomialField", Counted)
    monkeypatch.setattr(fields, "poly_jet", counted)
    code, _, _ = run_cli(capsys, "identity", "--seed", "3", "--n=-2..3", "--points", "50")
    assert code == 0
    assert sum(batches) == 50
    assert singles == []
    assert kernel_rows == batches


@pytest.mark.parametrize("argv", [
    ("check", "--family", "general-z"),
    ("check", "--family", "z0-sqrt"),
    ("transform", "--family", "radial-z1", "--group", "Xn:n=0,eps=0.1"),
])
def test_numbers_build_no_constant_jets(capsys, monkeypatch, argv):
    # a float factor or shift in a family, a group element or a pushforward
    # scales or shifts its jet; none becomes a constant jet
    built = []
    constant = jet2.constant

    def counted(dim, value):
        built.append(dim)
        return constant(dim, value)

    monkeypatch.setattr(jet2, "constant", counted)
    code, _, _ = run_cli(capsys, *argv)
    assert code == 0
    assert built == []


@pytest.mark.parametrize("argv, spatial_dim, elements", [
    (("--seed", "5", "--N", "3", "--points", "300", "--field", "random:deg=4,bound=2"), 3, 6),
    (("--seed", "3", "--n=1..3", "--eps", "0.3", "--points", "120"), 2, 3),
])
def test_identity_runs_in_bounded_batches(capsys, monkeypatch, argv, spatial_dim, elements):
    # under a small bound no batch is larger than it allows, and the report
    # is that of the default bound; at eps 0.3 out-of-branch rows fall in
    # several batches and are counted across them
    want = run_cli(capsys, "identity", *argv)[:2]
    batches, excluded = [], []

    class Counted(cli.RandomPolynomialField):
        def evaluate_many(self, params, coords):
            batches.append(len(coords))
            return super().evaluate_many(params, coords)

    guarded = verify._guarded

    def counted(compute, count, tallies):
        before = [tally.excluded for tally in tallies]
        out = guarded(compute, count, tallies)
        # every tally that the call charges sets aside the same rows
        added = {tally.excluded - b for tally, b in zip(tallies, before)}
        assert len(added) == 1
        excluded.append(added.pop())
        return out

    monkeypatch.setattr(cli, "RandomPolynomialField", Counted)
    monkeypatch.setattr(verify, "_guarded", counted)
    monkeypatch.setattr(verify, "_BATCH_ENTRIES", 64)
    assert run_cli(capsys, "identity", *argv)[:2] == want
    step = 64 // (spatial_dim + 1) ** 2
    assert max(batches) == step
    # _guarded runs once for the field, then once per element, in each
    # batch, batch after batch; the field excludes no row
    calls = elements + 1
    points = int(argv[argv.index("--points") + 1])
    assert len(excluded) == calls * math.ceil(points / step)
    assert not any(excluded[::calls])
    excluding = {k // calls for k, count in enumerate(excluded) if count}
    assert len(excluding) > 1 if "--eps" in argv else not excluding


@pytest.mark.parametrize("code, argv", [
    (0, ("check", "--family", "general-yphi")),  # 600 rows excluded per kind
    (0, ("check", "--family", "z0-sqrt")),  # 280 excluded
    (1, ("check", "--family", "one-dim-generic:q=exp:1,800")),  # every row overflows
    (0, ("transform", "--family", "radial-z1", "--group", "Xn:n=1,eps=0.3")),
    (1, ("fd-check", "--family", "z0-sqrt")),
    (0, ("fd-check", "--field", "random:deg=3", "--seed", "4", "--N", "3")),
    # most candidates' stencils leave the domain: they are redrawn, not failed
    (0, ("fd-check", "--family", "general-z:e1=-0.3", "--points", "20")),
])
def test_reports_do_not_depend_on_the_batch_bound(capsys, monkeypatch, code, argv):
    # batch boundaries move no bit of a report: exclusions, overflows and
    # failures that fall in many small batches read as in a few full ones
    want = run_cli(capsys, *argv)
    assert want[0] == code
    monkeypatch.setattr(verify, "_BATCH_ENTRIES", 64)
    assert run_cli(capsys, *argv) == want


def test_identity_excludes_the_rows_its_field_rejects(capsys, monkeypatch):
    # a guard in the field that names rows sets those samples aside for
    # every n, and the scan runs on
    holes = cli._identity_samples(3, 50, 2)[[0, 7, 19]]

    class Holes(cli.RandomPolynomialField):
        def evaluate_many(self, params, coords):
            bad = (coords[:, None, :] == holes).all(axis=-1).any(axis=-1)
            if bad.any():
                err = DomainError("a hole in the field")
                err.rows = bad
                raise err
            return super().evaluate_many(params, coords)

    want = json.loads(run_cli(capsys, "identity", "--seed", "3")[1])
    monkeypatch.setattr(cli, "RandomPolynomialField", Holes)
    code, out, err = run_cli(capsys, "identity", "--seed", "3")
    assert (code, err) == (0, "identity: 6/6 passed\n")
    rows = json.loads(out)
    assert [r["points"] for r in rows] == [47] * 6
    assert all(r["identity_gap"] <= w["identity_gap"] for r, w in zip(rows, want))


def test_cli_imports_no_private_name():
    # the CLI reaches the library through public names only
    tree = ast.parse(Path(cli.__file__).read_text())
    private = [
        (node.module, alias.name)
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom)
        and (node.level or (node.module or "").startswith("condsym"))
        for alias in node.names
        if alias.name.startswith("_")
    ]
    assert private == []


def test_identity_refuses_jets_of_the_wrong_dimension(capsys, monkeypatch):
    class WrongDim(cli.RandomPolynomialField):
        def evaluate_many(self, params, coords):
            return jet2.constant(params.jet_dim + 1, np.zeros(len(coords)))

    monkeypatch.setattr(cli, "RandomPolynomialField", WrongDim)
    code, out, err = run_cli(capsys, "identity", "--seed", "3", "--points", "5")
    assert (code, out) == (2, "")
    assert err == "error: field returned dim 4, expected 3\n"


def test_identity_fails_closed_where_the_inverse_misses_the_sample(capsys, monkeypatch):
    # an inverse that does not give back the sample must not reuse u's jets
    # there: each such row counts as evaluated and not finite, so every
    # element fails with an infinite gap and no row is excluded
    class Doctored(Xn):
        def inverse(self):
            return Xn(self.n, -self.eps * (1.0 + 1e-6))

    monkeypatch.setattr(cli, "Xn", Doctored)
    code, out, err = run_cli(capsys, "identity", "--seed", "3")
    assert (code, err) == (1, "identity: 0/6 passed\n")
    rows = json.loads(out)
    assert [r["n"] for r in rows] == list(range(-2, 4))
    for r in rows:
        assert (r["points"], r["pass"]) == (50, False)
        assert r["identity_gap"] == r["derivative_gap"] == "Infinity"


def test_identity_non_finite_gap_fails_closed(capsys):
    # the mixed determinants overflow, so the identity gap is NaN; the row
    # reports it as inf, and the JSON spells inf as a string
    def no_bare_constants(name):
        raise ValueError(f"bare {name} in JSON")

    code, out, _ = run_cli(
        capsys, "identity", "--seed", "3", "--field", "random:deg=3,bound=1e200",
        "--n=1..1", "--points", "5",
    )
    assert code == 1
    (row,) = json.loads(out, parse_constant=no_bare_constants)
    assert row["identity_gap"] == "Infinity"
    assert row["obstruction_max"] == "Infinity"
    assert row["pass"] is False


def test_identity_nan_obstruction_reads_inf(capsys):
    # for n in {-1, 0} the obstruction coefficient 0 meets an overflowed
    # determinant, so the term is NaN; it reads inf, as plain max read 0.0
    code, out, err = run_cli(
        capsys, "identity", "--seed", "3", "--field", "random:deg=3,bound=1e200",
        "--n=-2..3", "--points", "20", "--format", "csv",
    )
    assert code == 1 and err == "identity: 0/6 passed\n"  # no numpy warnings
    rows = {int(r["n"]): r for r in csv.DictReader(io.StringIO(out))}
    assert rows[-1]["obstruction_max"] == rows[0]["obstruction_max"] == "inf"


@pytest.mark.parametrize("argv", [
    ("transform", "--family", "z0-linear", "--group", "Xn:n=2,eps=1000"),
    ("identity", "--seed", "1", "--z", "0", "--eps", "1000", "--n=2..2"),
    ("identity", "--seed", "1", "--z", "0", "--eps", "-1000", "--n=2..2"),
])
def test_factor_past_the_float_range_fails_its_rows(capsys, argv):
    # exp(eps*t^2) overflows, or the inverse's factor underflows to 0 and
    # the pushforward divides by it: those rows count as evaluated and
    # fail, with one summary line and no traceback
    code, out, err = run_cli(capsys, *argv)
    assert code == 1 and err.count("\n") == 1 and "passed" in err
    rows = json.loads(out)
    assert rows and not any(r["pass"] for r in rows)
    if argv[0] == "transform":
        assert all(r["points_evaluated"] > 0 for r in rows)
    else:
        (row,) = rows
        assert row["points"] == 50
        assert row["identity_gap"] == row["derivative_gap"] == "Infinity"


def _scalar_laws(params, p, base, prime, g, a_val):
    """(identity gap, derivative-law gap, obstruction term) at one sample,
    the closed-form laws written out on floats."""
    n, eps, z, nsp = g.n, g.eps, params.z, params.spatial_dim
    cn, e_obs = 0.0, 0.0
    if n not in (-1, 0):
        cn = eps * n * p.t ** (n - 1) if z == 0.0 else n * (n + 1.0) * eps * p.t ** (n - 1)
        e_obs = 0.0 if z == 0.0 else z * n / (n + 1.0)
    x = np.array(p.x)
    gaps = [abs(prime.value - a_val * base.value)]
    pred_t = a_val ** (1.0 - z) * base.grad[0] + (
        base.value - float(x @ base.grad[1:])
    ) * cn * a_val ** (1.0 + e_obs - z)
    gaps.append(abs(prime.grad[0] - pred_t))
    for a in range(1, nsp + 1):
        gaps.append(abs(prime.grad[a] - base.grad[a]))
        for b in range(a, nsp + 1):
            gaps.append(abs(prime.hess[a, b] - base.hess[a, b] / a_val))
        pred_tb = a_val ** (-z) * base.hess[0, a] - float(
            x @ base.hess[1:, a]
        ) * cn * a_val ** (e_obs - z)
        gaps.append(abs(prime.hess[0, a] - pred_tb))
    obs = cn * a_val ** (e_obs + 1.0 - nsp - z) * base.value * monge_ampere(base, params)
    rhs = a_val ** (1.0 - z - nsp) * w1(base, params) + obs
    return float(abs(w1(prime, params) - rhs)), float(np.max(gaps)), float(obs)


def _identity_per_point(seed, z, spatial_dim, eps, points=50, tol=1e-8):
    """The identity scan one sample at a time: ``transform_point``, then
    the jet of the pushforward at the image, read from one
    ``evaluate_many`` per n over the images kept; a sample outside the
    branch, at the image or in the pullback, is excluded."""
    params = ModelParams(spatial_dim, z)
    u = RandomPolynomialField(seed, params, 3)
    rng = np.random.default_rng(seed + 1000003)
    pts = [Point(rng.uniform(0.6, 1.2), rng.uniform(-1.0, 1.0, spatial_dim))
           for _ in range(points)]
    bases = [u.evaluate(params, p) for p in pts]
    rows = []
    for n in range(-2, 4):
        g = Xn(n, eps)
        worst = [0.0, 0.0, 0.0]
        excluded = 0
        kept = []
        for p, base in zip(pts, bases):
            try:
                kept.append((p, base, *transform_point(g, params, p)))
            except BranchError:
                excluded += 1
        while kept:
            try:
                primes = PushforwardField(g, u).evaluate_many(
                    params, np.array([q.coords() for _, _, q, _ in kept]))
                break
            except BranchError as err:
                excluded += int(np.count_nonzero(err.rows))
                kept = [k for k, bad in zip(kept, err.rows) if not bad]
        for i, (p, base, _, a_val) in enumerate(kept):
            prime = primes.take(i)
            for k, gap in enumerate(_scalar_laws(params, p, base, prime, g, a_val)):
                gap = abs(gap)
                worst[k] = max(worst[k], gap) if math.isfinite(gap) else math.inf
        id_gap, law_gap, obs_max = worst
        evaluated = points - excluded
        rows.append({
            "points": evaluated,
            "identity_gap": id_gap,
            "derivative_gap": law_gap,
            "obstruction_max": obs_max,
            "pass": evaluated > 0 and excluded <= 0.5 * points
                    and max(id_gap, law_gap) <= tol,
        })
    return (0 if all(r["pass"] for r in rows) else 1), rows


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_identity_batch_matches_per_point_scan(capsys, seed):
    # identity transports the samples of an n in batches; per sample
    # the counts and verdicts agree, and the gaps up to the last bits in
    # which this oracle, with Python's ``**``, its own sums and the
    # pushforward evaluated at the images, differs from the batched laws
    excluding = 0
    for z in (0.0, 0.5, 2.0, 3.0):
        for spatial_dim in (1, 2, 3):
            for eps in (0.01, 0.3):
                want_code, want = _identity_per_point(seed, z, spatial_dim, eps)
                code, out, _ = run_cli(
                    capsys, "identity", "--seed", str(seed), "--z", repr(z),
                    "--N", str(spatial_dim), "--eps", repr(eps),
                )
                got = json.loads(out)
                assert code == want_code
                for r, w in zip(got, want, strict=True):
                    assert (r["points"], r["pass"]) == (w["points"], w["pass"])
                    excluding += r["points"] < 50
                    assert r["obstruction_max"] == pytest.approx(
                        w["obstruction_max"], rel=1e-14, abs=0.0)
                    for key in ("identity_gap", "derivative_gap"):
                        assert abs(r[key] - w[key]) <= 1e-11, (z, spatial_dim, eps, key)
    assert excluding  # some rows at eps 0.3 leave part of the samples out


def test_emit_json_is_strict():
    out = io.StringIO()
    cli.emit([{"a": float("nan"), "b": [float("-inf"), 1.5], "c": {"d": float("inf")}}],
             "json", out)
    assert json.loads(out.getvalue()) == [
        {"a": "NaN", "b": ["-Infinity", 1.5], "c": {"d": "Infinity"}}
    ]


def _spelled(value):
    """``value`` with each non-finite float spelled as emit spells it."""
    if isinstance(value, float) and not math.isfinite(value):
        return "NaN" if math.isnan(value) else ("Infinity" if value > 0 else "-Infinity")
    if isinstance(value, dict):
        return {k: _spelled(v) for k, v in value.items()}
    if isinstance(value, list):
        return [_spelled(v) for v in value]
    return value


_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(),
    lambda kids: st.lists(kids, max_size=4) | st.dictionaries(st.text(), kids, max_size=4),
    max_leaves=12,
)


@settings(max_examples=100, deadline=None)
@given(st.lists(st.dictionaries(st.text(), _JSON_VALUES, max_size=6), max_size=4))
@example([])
@example([{"é\n\"\\\u2028\x00": ["\U0001f600", {}, [], -0.0, 10**30, True, None]}, {}])
def test_emit_json_writes_what_the_stdlib_indents(rows):
    # non-ASCII and escaped strings, None, bools, ints, -0.0, nested dicts
    # and lists and the empty list, as json.dumps writes them
    out = io.StringIO()
    cli.emit(rows, "json", out)
    want = json.dumps(_spelled(rows), indent=2, sort_keys=True, allow_nan=False)
    assert out.getvalue() == want + "\n"


def test_warm_emit_leaves_no_garbage():
    # the stdlib's indenting encoder left reference cycles behind on every
    # call, for the next full collection to find
    rows = [{"family": "z0-sqrt", "max_abs": 1e-17, "pass": True,
             "worst_point": {"t": 0.5, "x": [0.25, float("nan")]}}] * 3
    cli.emit(rows, "json", io.StringIO())
    gc.collect()
    gc.disable()
    try:
        cli.emit(rows, "json", io.StringIO())
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_check_evaluates_field_once_per_point(capsys, monkeypatch):
    # both designated kinds read the same jets: each of the 12**3 points is
    # a row of exactly one bounded batch, and none is evaluated alone
    calls, batches = [], []

    class Counted(cli.SolutionField):
        def evaluate(self, params, point):
            calls.append(point)
            return super().evaluate(params, point)

        def evaluate_many(self, params, coords):
            batches.append(np.array(coords))
            return super().evaluate_many(params, coords)

    monkeypatch.setattr(cli, "SolutionField", Counted)
    code, out, _ = run_cli(capsys, "check", "--family", "radial-z1")
    assert code == 0
    assert [r["points_evaluated"] for r in json.loads(out)] == [1728, 1728]
    rows = np.concatenate(batches)
    assert len(rows) == len(np.unique(rows, axis=0)) == 1728
    step = verify._BATCH_ENTRIES // 3**2
    assert max(len(b) for b in batches) == step
    assert len(batches) == -(-1728 // step) >= 2
    assert not calls


def test_check_overflow_fails_closed(capsys):
    code, out, err = run_cli(capsys, "check", "--family", "one-dim-generic:q=exp:1,800")
    assert code == 1 and "Traceback" not in err
    (row,) = json.loads(out)
    assert row["pass"] is False


def test_check_overflow_reads_no_worst_point(capsys):
    # every point overflows, in the field or in its scale: all are counted
    # as evaluated and non-finite, and none is a worst point
    code, out, _ = run_cli(capsys, "check", "--family", "one-dim-generic:q=exp:1,800")
    (row,) = json.loads(out)
    assert code == 1
    assert (row["points_evaluated"], row["points_excluded"]) == (1764, 0)
    assert (row["max_abs"], row["worst_point"], row["pass"]) == (0.0, None, False)


def test_transform_branch_excludes_part_of_the_grid(capsys):
    # Xn(1, -0.6) pulls back through Xn(1, 0.6), whose branch 1 - 0.6 t > 0
    # ends at t = 5/3: the 3 of 12 time slices past it are excluded, the
    # rest pass
    code, out, err = run_cli(
        capsys, "transform", "--family", "radial-z1", "--group", "Xn:n=1,eps=-0.6"
    )
    assert (code, err) == (0, "transform: 2/2 passed\n")
    rows = json.loads(out)
    assert [(r["points_evaluated"], r["points_excluded"]) for r in rows] == [(1296, 432)] * 2


GOLDEN = Path(__file__).resolve().parent / "golden"
GOLDEN_CASES = json.loads((GOLDEN / "cases.json").read_text())


def _leaves(doc, path="$"):
    """(path, leaf) of every leaf of a JSON document, in document order."""
    if isinstance(doc, dict):
        for key, value in doc.items():
            yield from _leaves(value, f"{path}.{key}")
    elif isinstance(doc, list):
        for k, value in enumerate(doc):
            yield from _leaves(value, f"{path}[{k}]")
    else:
        yield path, doc


def _golden_diff(got, want, same_exit_and_stderr):
    """What tells a golden's rounding on another BLAS kernel or SIMD path
    from a regression: whether the exit code and stderr match, whether
    every leaf but the floats matches, and each float that differs, with
    its absolute difference."""
    lines = ["exit and stderr " + ("match" if same_exit_and_stderr else "differ")]
    try:
        got, want = (dict(_leaves(json.loads(doc))) for doc in (got, want))
    except json.JSONDecodeError as exc:
        return "\n".join(lines + [f"stdout is not JSON: {exc}"])
    floats = [p for p, v in want.items() if isinstance(v, float) and isinstance(got.get(p), float)]
    others = got.keys() == want.keys() and all(
        repr(got[p]) == repr(want[p]) for p in want.keys() - set(floats)
    )
    lines.append("non-float leaves " + ("match" if others else "differ"))
    lines += [f"{p}: {got[p]!r} != {want[p]!r}, |diff| {abs(got[p] - want[p]):.3g}"
              for p in floats if repr(got[p]) != repr(want[p])]
    return "\n".join(lines)


def test_golden_diff_tells_a_moved_float_from_a_moved_leaf():
    want = '[{"gap": 1.5e-16, "n": 2, "pass": true}]'
    moved = _golden_diff('[{"gap": 2e-16, "n": 2, "pass": true}]', want, True)
    assert moved.splitlines() == [
        "exit and stderr match",
        "non-float leaves match",
        "$[0].gap: 2e-16 != 1.5e-16, |diff| 5e-17",
    ]
    flipped = _golden_diff('[{"gap": 1.5e-16, "n": 2, "pass": false}]', want, False)
    assert flipped.splitlines() == ["exit and stderr differ", "non-float leaves differ"]
    assert _golden_diff("[]", want, True).splitlines()[1] == "non-float leaves differ"


@pytest.mark.parametrize("name", sorted(GOLDEN_CASES))
def test_check_and_transform_match_goldens(capsys, name):
    # stdout byte for byte, exit code and stderr; a golden is the stdout of
    # ``condsym <argv>`` saved as tests/golden/<name>.json.  The message of a
    # mismatch tells moved float tails from changed results.
    case = GOLDEN_CASES[name]
    code, out, err = run_cli(capsys, *case["argv"])
    want = (GOLDEN / f"{name}.json").read_bytes().decode()
    same_exit_and_stderr = (code, err) == (case["exit"], case["stderr"])
    assert out == want and same_exit_and_stderr, _golden_diff(out, want, same_exit_and_stderr)


@pytest.mark.parametrize(
    "argv, flag",
    [
        (("fd-check", "--family", "radial-z1", "--h", "nan"), "--h"),
        (("fd-check", "--family", "radial-z1", "--h", "inf"), "--h"),
        (("identity", "--seed", "3", "--eps", "nan"), "--eps"),
        (("identity", "--seed", "3", "--z", "inf"), "--z"),
        (("commutators", "--z", "nan"), "--z"),
        (("check", "--family", "radial-z1", "--tol", "nan"), "--tol"),
        (("check", "--family", "radial-z1", "--tol", "abc"), "--tol"),
        # --N and --points read integers
        (("identity", "--seed", "3", "--N", "x"), "--N"),
        (("identity", "--seed", "3", "--N", "2.0"), "--N"),
        (("commutators", "--N", "1.5"), "--N"),
        (("fd-check", "--field", "random:deg=3", "--seed", "1", "--N", "x"), "--N"),
        (("identity", "--seed", "3", "--points", "1.5"), "--points"),
        (("fd-check", "--family", "radial-z1", "--points", "x"), "--points"),
    ],
)
def test_non_finite_float_flags_are_usage_errors(capsys, argv, flag):
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (2, "")
    assert err.startswith(f"error: bad number for {flag}: ") and err.count("\n") == 1


_SCORING = [
    ("check", "--family", "radial-z1"),
    ("transform", "--family", "radial-z1", "--group", "Yk:k=1,v=0.1,-0.05"),
    ("identity", "--seed", "3"),
    ("commutators",),
    ("fd-check", "--family", "radial-z1"),
]


@pytest.mark.parametrize("tol", ["-1", "-1e-8", "-inf"])
@pytest.mark.parametrize("argv", _SCORING, ids=[a[0] for a in _SCORING])
def test_negative_tolerance_is_usage_error(capsys, argv, tol):
    # exit 1 means a check failed; a tolerance nothing can meet is a bad flag
    code, out, err = run_cli(capsys, *argv, f"--tol={tol}")
    assert (code, out) == (2, "")
    assert err == f"error: bad number for --tol: a tolerance cannot be negative, got {float(tol)!r}\n"


@pytest.mark.parametrize(
    "argv",
    [
        ("identity", "--seed", "-1"),
        ("fd-check", "--family", "z0-sqrt", "--seed", "-1"),
        ("fd-check", "--family", "z0-sqrt", "--seed", "-100"),
        ("fd-check", "--field", "random:deg=3", "--seed", "-5"),
        ("fd-check", "--family", "z0-sqrt", "--seed", "1.5"),
    ],
)
def test_seed_must_be_a_non_negative_integer(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (2, "")
    assert err.startswith("error: bad number for --seed: ") and err.count("\n") == 1


def test_seed_zero_is_accepted(capsys):
    code, _, _ = run_cli(capsys, "fd-check", "--field", "random:deg=3", "--seed", "0")
    assert code == 0


def test_infinite_tolerance_is_accepted(capsys):
    code, out, _ = run_cli(capsys, "check", "--family", "radial-z1", "--tol", "inf")
    assert code == 0
    assert all(r["tolerance"] == "Infinity" and r["pass"] for r in json.loads(out))


def test_commutators_runs(capsys):
    code, out, _ = run_cli(
        capsys, "commutators", "--n=0..1", "--k=0..1", "--N", "2"
    )
    assert code == 0
    rows = json.loads(out)
    # generators: X0, X1, Y(0,1), Y(0,2), Y(1,1), Y(1,2), J(1,2) -> 21 pairs
    assert len(rows) == 21
    assert all(r["pass"] for r in rows)
    yy = [r for r in rows if r["g1"].startswith("Y") and r["g2"].startswith("Y")]
    assert yy and all(r["gap"] == 0.0 for r in yy)


def test_commutators_build_no_jets(capsys, monkeypatch):
    # brackets are compared as vector fields, with no test function
    calls = []
    poly_jet = fields.poly_jet

    def counted(*args):
        calls.append(args)
        return poly_jet(*args)

    monkeypatch.setattr(fields, "poly_jet", counted)
    code, out, _ = run_cli(capsys, "commutators", "--N", "3")
    assert code == 0
    assert len(json.loads(out)) == 190
    assert calls == []


def test_commutators_evaluate_each_generator_once_per_point(capsys, monkeypatch):
    # every generator that the table lists or that a structure constant
    # names, X(3) among them, is evaluated once at each of the two
    # points, by one call over both rows
    calls = []
    for kind in (cli.GenXn, cli.GenYk, cli.GenJab):
        def counted(self, params, y, coeffs=kind.coeffs):
            calls.append((str(self), y.shape))
            return coeffs(self, params, y)

        monkeypatch.setattr(kind, "coeffs", counted)
    code, out, _ = run_cli(capsys, "commutators", "--N", "3")
    assert code == 0
    params = ModelParams(3, 2.0)
    listed = [cli.GenXn(n) for n in range(-2, 3)]
    listed += [cli.GenYk(k, a) for k in range(-1, 3) for a in (1, 2, 3)]
    listed += [cli.GenJab(a, b) for a, b in ((1, 2), (1, 3), (2, 3))]
    named = {
        str(gen)
        for i, g1 in enumerate(listed)
        for g2 in listed[i + 1 :]
        for _, gen in cli.expected_commutator(g1, g2, params)
    }
    distinct = {str(g) for g in listed} | named
    assert "X(3)" in distinct - {str(g) for g in listed}
    assert len(json.loads(out)) == 190
    assert sorted(calls) == sorted((gen, (2, 5)) for gen in distinct)


def test_commutators_non_finite_gap_fails_closed(capsys, monkeypatch):
    monkeypatch.setattr(cli, "commutator_gap", lambda *args: float("nan"))
    # a NaN gap fails even at an infinite tolerance
    for tol in ("1e-9", "inf"):
        code, out, _ = run_cli(
            capsys, "commutators", "--n=0..1", "--k=0..0", "--N", "1", "--tol", tol
        )
        assert code == 1
        rows = json.loads(out)
        assert rows and all(r["gap"] == "Infinity" and r["pass"] is False for r in rows)


@pytest.mark.parametrize("argv, overflowed", [
    # a structure constant z*(m - n) past the float range
    (("--n=0..2", "--k=0..0", "--N", "1", "--z", "1e308"), {("X(0)", "X(1)")}),
    # t**n at t = 0.7 past the float range
    (("--n=-2000..-1999", "--k=0..0", "--N", "1"), {("X(-2000)", "X(-1999)")}),
])
def test_commutators_overflow_fails_closed(capsys, argv, overflowed):
    code, out, err = run_cli(capsys, "commutators", *argv)
    assert code == 1 and err.count("\n") == 1 and "passed" in err
    rows = {(r["g1"], r["g2"]): r for r in json.loads(out)}
    for pair in overflowed:
        assert rows[pair]["gap"] == "Infinity" and rows[pair]["pass"] is False


def test_commutators_zero_gap_passes_at_zero_tolerance(capsys):
    # the pass rule is gap <= tol, so an exact [Y, Y] passes at --tol 0,
    # and -0.0 is no negative tolerance
    for tol in ("0", "-0.0"):
        code, out, _ = run_cli(
            capsys, "commutators", "--tol", tol, "--n=0..0", "--k=0..1", "--N", "1"
        )
        assert code == 0
        yy = [r for r in json.loads(out) if r["g1"].startswith("Y") and r["g2"].startswith("Y")]
        assert yy and all(r["gap"] == 0.0 and r["pass"] is True for r in yy)


def test_fd_check_family(capsys):
    code, out, _ = run_cli(
        capsys, "fd-check", "--family", "radial-z1", "--points", "20"
    )
    assert code == 0
    row = json.loads(out)[0]
    assert row["pass"] and row["points"] == 20


def test_fd_check_overflow_fails_closed(capsys):
    code, out, err = run_cli(
        capsys, "fd-check", "--family", "one-dim-generic:q=exp:1,800", "--points", "3",
    )
    assert code == 1 and "Traceback" not in err
    assert err == "fd-check: 0/1 passed\n"
    (row,) = json.loads(out)
    assert row["max_rel_err"] == "Infinity" and row["pass"] is False
    assert row["points"] == 3


def test_fd_check_takes_n_from_family(capsys):
    code, out, _ = run_cli(capsys, "fd-check", "--family", "one-dim-z0")
    assert code == 0
    # --N sets only a random field's N; a family carries its own
    code, out, err = run_cli(capsys, "fd-check", "--family", "one-dim-z0", "--N", "1")
    assert (code, out) == (2, "") and err.startswith("error: --N")
    code, _, _ = run_cli(
        capsys, "fd-check", "--family", "ma-only", "--points", "20"
    )
    assert code == 0


@pytest.mark.parametrize(
    "argv", [("identity", "--seed", "3"), ("fd-check", "--family", "radial-z1")]
)
def test_zero_points_is_usage_error(capsys, argv):
    code, out, err = run_cli(capsys, *argv, "--points", "0")
    assert (code, out, err) == (2, "", "error: --points must be at least 1, got 0\n")


def test_fd_check_field_needs_seed(capsys):
    code, _, err = run_cli(capsys, "fd-check", "--field", "random:deg=3")
    assert code == 2 and "seed" in err


def test_fd_check_exactly_one_target(capsys):
    code, _, _ = run_cli(capsys, "fd-check")
    assert code == 2
    code, _, _ = run_cli(
        capsys, "fd-check", "--family", "radial-z1", "--field", "random:deg=2,seed=1"
    )
    assert code == 2
    code, out, err = run_cli(capsys, "fd-check", "--family", "")
    assert (code, out) == (2, "")
    assert err.startswith("error: unknown family ''")


def test_catalog_lists_everything(capsys):
    code, out, _ = run_cli(capsys, "catalog")
    assert code == 0
    rows = json.loads(out)
    kinds = {r["kind"] for r in rows}
    assert kinds == {"family", "profile", "group", "field"}
    families = [r for r in rows if r["kind"] == "family"]
    assert {r["name"] for r in families} == set(DEFAULT_FAMILIES)
    for row in rows:
        if row["kind"] == "group":
            parse_group(row["spec"])


_DRIVER_CALLS = [
    ("check", "--family", "radial-z1"),
    ("transform", "--family", "radial-z1", "--group", "Xn:n=1,eps=0.05"),
    ("identity", "--seed", "3", "--points", "5"),
    ("commutators", "--N", "1"),
    ("fd-check", "--family", "radial-z1", "--points", "3"),
    ("catalog",),
]


@pytest.mark.parametrize("argv", _DRIVER_CALLS, ids=[a[0] for a in _DRIVER_CALLS])
def test_drivers_return_their_rows_and_main_writes_them(capsys, argv):
    args = cli.build_parser().parse_args(argv)
    for key, convert in cli._NUMBER_FLAGS.items():
        if hasattr(args, key):
            setattr(args, key, convert(f"--{key}", getattr(args, key)))
    rows = args.func(args)
    assert capsys.readouterr() == ("", "")
    assert rows and all(isinstance(row, dict) for row in rows)
    # main writes those rows and the summary line of its command
    code, out, err = run_cli(capsys, *argv)
    report = io.StringIO()
    cli.emit(rows, "json", report)
    assert out == report.getvalue()
    assert code == cli._summarize(rows, argv[0])
    assert capsys.readouterr().err == err


def test_every_driver_is_called_on_parsed_arguments():
    drivers = {name for name in vars(cli) if name.startswith("cmd_")}
    parser = cli.build_parser()
    called = {parser.parse_args(argv).func.__name__ for argv in _DRIVER_CALLS}
    assert called == drivers


def test_byte_determinism(capsys):
    args = ["identity", "--seed", "11", "--n=0..2", "--points", "15"]
    _, out1, _ = run_cli(capsys, *args)
    _, out2, _ = run_cli(capsys, *args)
    assert out1 == out2


# every subcommand's option strings; a knob deleted on purpose stays gone
_OPTIONS = {
    "check": {"--family", "--kinds", "--grid", "--tol", "--format"},
    "transform": {"--family", "--kinds", "--grid", "--tol", "--format", "--group"},
    "identity": {"--field", "--seed", "--n", "--z", "--N", "--eps", "--points", "--tol",
                 "--format"},
    "commutators": {"--n", "--k", "--z", "--N", "--tol", "--format"},
    "fd-check": {"--family", "--field", "--N", "--h", "--points", "--seed", "--tol",
                 "--format"},
    "catalog": {"--format"},
}


def test_subcommand_options_are_exactly_these():
    parser = cli.build_parser()
    (sub,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    assert set(sub.choices) == set(_OPTIONS)
    for name, sub_parser in sub.choices.items():
        options = {s for a in sub_parser._actions for s in a.option_strings}
        assert options - {"-h", "--help"} == _OPTIONS[name], name


def test_help_exits_zero(capsys):
    assert main(["--help"]) == 0
    capsys.readouterr()
    assert main(["check", "--help"]) == 0
    capsys.readouterr()


def test_no_command_is_usage_error(capsys):
    assert main([]) == 2
    capsys.readouterr()


def _counting(build):
    def counted():
        counted.builds += 1
        return build()

    counted.builds = 0
    return counted


def test_main_builds_its_parser_once_per_builder(capsys, monkeypatch):
    original = cli.build_parser
    first = _counting(original)
    monkeypatch.setattr(cli, "build_parser", first)
    calls = [
        (("check", "--family", "radial-z1"), 0),
        (("transform", "--family", "radial-z1", "--group", "Xn:n=1,eps=0.05"), 0),
        (("identity", "--seed", "3", "--points", "5"), 0),
        (("commutators", "--N", "1"), 0),
        (("fd-check", "--family", "radial-z1", "--points", "3"), 0),
        (("catalog",), 0),
        (("check",), 2),
        (("identity", "--help"), 0),
    ]
    for argv, code in calls:
        assert run_cli(capsys, *argv)[0] == code, argv
    assert first.builds == 1
    # a builder swapped in later is looked up on the next call and builds once
    second = _counting(original)
    monkeypatch.setattr(cli, "build_parser", second)
    assert run_cli(capsys, "catalog")[0] == 0
    assert run_cli(capsys, "commutators", "--N", "1")[0] == 0
    assert (first.builds, second.builds) == (1, 1)


def test_shared_parser_leaks_nothing_between_calls(capsys, monkeypatch):
    # each call on the shared parser reads as the same command on a parser
    # of its own: its golden where one exists, else its first call on a
    # freshly built parser
    sequence = [
        ("transform", "--family", "radial-z1", "--group", "Xn:n=1,eps=0.05"),
        ("check", "--family", "radial-z1"),  # --group falls back to None
        ("identity", "--seed", "5", "--N", "3", "--points", "7"),
        ("check",),  # usage error: no --family
        ("identity", "--seed", "3"),  # --N and --points fall back to defaults
    ]
    goldens = {tuple(case["argv"]): name for name, case in GOLDEN_CASES.items()}
    expected = {}
    for argv in sequence:
        if argv in goldens:
            case = GOLDEN_CASES[goldens[argv]]
            out = (GOLDEN / f"{goldens[argv]}.json").read_bytes().decode()
            expected[argv] = (case["exit"], out, case["stderr"])
        else:
            cli._parser.cache_clear()
            expected[argv] = run_cli(capsys, *argv)
    assert expected[("check",)][0] == 2
    assert expected[sequence[0]] != expected[sequence[1]]
    builds = _counting(cli.build_parser)
    monkeypatch.setattr(cli, "build_parser", builds)
    for argv in sequence:
        assert run_cli(capsys, *argv) == expected[argv], argv
    assert builds.builds == 1


def test_main_leaves_no_argparse_garbage(capsys):
    # a parser built per call dies as a reference cycle; the shared one
    # leaves none behind, which is what kept peak RSS growing per call
    main(["commutators"])
    capsys.readouterr()
    flags = gc.get_debug()
    saved = list(gc.garbage)
    gc.collect()
    del gc.garbage[:]
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        assert main(["commutators"]) == 0
        gc.collect()
        leaked = sorted({type(o).__name__ for o in gc.garbage
                         if type(o).__module__ == "argparse"})
    finally:
        gc.set_debug(flags)
        gc.garbage[:] = saved
    capsys.readouterr()
    assert leaked == []


def _readme_block(heading, lang):
    text = README.read_text()
    section = text[text.index(heading):]
    start = section.index(f"```{lang}\n") + len(lang) + 4
    return section[start:section.index("```", start)]


def test_readme_examples_run(capsys):
    exec(_readme_block("## Library in one minute", "python"), {})
    lines = [
        shlex.split(line, comments=True)
        for line in _readme_block("## Command line", "sh").splitlines()
        if line.startswith("condsym ")
    ]
    assert len(lines) == 8
    for argv in lines:
        assert main(argv[1:]) == 0, argv
    capsys.readouterr()


def test_module_entry_point_exits_with_mains_code(capsys):
    # ``python -m condsym.cli`` hands main's return value to the interpreter's exit
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))

    def run(*argv):
        return subprocess.run([sys.executable, "-m", "condsym.cli", *argv],
                              capture_output=True, env=env, check=False)

    catalog = run("catalog")
    assert (catalog.returncode, catalog.stdout.decode()) == (0, run_cli(capsys, "catalog")[1])
    bad = run("identity", "--seed", "3", "--tol", "-1")
    assert (bad.returncode, bad.stdout) == (2, b"")
    assert bad.stderr == b"error: bad number for --tol: a tolerance cannot be negative, got -1.0\n"
