"""Command-line interface: grammars, formats, exit codes, determinism."""

import csv
import dataclasses
import io
import json

import pytest

from condsym import cli
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
from condsym.fields import parse_profile
from condsym.solutions import DEFAULT_FAMILIES, GeneralZ, MAOnly, Z0Linear
from condsym.symmetry import Rot, Xn, Yk, Yphi


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


# a valid value for every field of every catalog family, each differing
# from the catalog default
_OVERRIDES = {
    "one-dim-z0": "c=2,q=poly:1,2",
    "one-dim-z1": "c=1.5,q=exp:1,-1",
    "one-dim-generic": "q=poly:2,0,1",
    "radial-z1": "c=2,e1=0.25,e2=0.1,n=2",
    "general-z": "c=2,e1=0.5,e2=0.1,n=2,z=3",
    "z0-sqrt": "psi=const:16",
    "z0-linear": "psi1=sin:1,1,0,psi2=poly:0,1",
    "general-yphi": "c=2,e1=0.3,e2=0.2,z=3,phi1=const:1,phi2=sin:1,1,0",
    "ma-only": "N=2,phi=sin:1,1,0.5",
}


def test_parse_family_overrides_every_field():
    assert set(_OVERRIDES) == set(DEFAULT_FAMILIES)
    for name, overrides in _OVERRIDES.items():
        fam = parse_family(f"{name}:{overrides}")
        default = DEFAULT_FAMILIES[name]
        for f in dataclasses.fields(fam):
            assert getattr(fam, f.name) != getattr(default, f.name), (name, f.name)
        assert parse_family(family_spec(name, fam)) == fam


def test_parse_group_variants():
    assert parse_group("Xn:n=1,eps=0.01") == Xn(1, 0.01)
    assert parse_group("Xn:n=-2,eps=0.01,lam=2") == Xn(-2, 0.01, 2.0)
    assert parse_group("Yk:k=1,v=0.5,0.0") == Yk(1, (0.5, 0.0))
    g = parse_group("Yphi:e=1,0;profiles=sin:1,1,0|const:0")
    assert g == Yphi((parse_profile("sin:1,1,0"), parse_profile("const:0")), (1.0, 0.0))
    assert parse_group("rot:a=1,b=2,angle=0.3") == Rot(1, 2, 0.3)


def test_parse_group_errors():
    with pytest.raises(CLIError):
        parse_group("Zz:n=1")
    with pytest.raises(CLIError):
        parse_group("Xn:n=1")  # missing eps
    with pytest.raises(CLIError):
        parse_group("Yphi:e=1,0;profiles=sin:1,1,0")  # one profile, two shifts
    with pytest.raises(CLIError):
        parse_group("rot:a=1,b=1,angle=0.3")


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
    assert parse_range("-2..3") == (-2, 3)
    with pytest.raises(CLIError):
        parse_range("3..-2")
    assert parse_field_spec("random:deg=2,seed=9,bound=0.5") == (2, 9, 0.5)
    assert parse_field_spec("random:deg=4") == (4, None, 1.0)
    with pytest.raises(CLIError):
        parse_field_spec("fixed:deg=2")


# --- subcommands ------------------------------------------------------------


def test_check_pass_case(capsys):
    code, out, err = run_cli(
        capsys, "check", "--family", "radial-z1:c=1,e1=0,e2=0,n=0", "--z", "1", "--N", "2"
    )
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
    assert code == 2  # family fixes z = 1
    code, _, err = run_cli(capsys, "check", "--family", "radial-z1", "--N", "3")
    assert code == 2


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


def test_transform_group_mismatch(capsys):
    code, _, err = run_cli(
        capsys, "transform", "--family", "general-z", "--group", "Yk:k=1,v=0.5"
    )
    assert code == 2


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
    # one jet of u at p and one inside the pushforward per (n, point)
    calls = []

    class Counted(cli.RandomPolynomialField):
        def evaluate(self, params, point):
            calls.append(point)
            return super().evaluate(params, point)

    monkeypatch.setattr(cli, "RandomPolynomialField", Counted)
    code, _, _ = run_cli(capsys, "identity", "--seed", "3", "--n=-2..3", "--points", "50")
    assert code == 0
    assert len(calls) == 6 * 50 * 2


def test_check_overflow_fails_closed(capsys):
    code, out, err = run_cli(
        capsys, "check", "--family", "one-dim-generic:q=exp:1,800", "--z", "2"
    )
    assert code == 1 and "Traceback" not in err
    (row,) = json.loads(out)
    assert row["pass"] is False


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


def test_fd_check_family(capsys):
    code, out, _ = run_cli(
        capsys, "fd-check", "--family", "radial-z1", "--points", "20"
    )
    assert code == 0
    row = json.loads(out)[0]
    assert row["pass"] and row["points"] == 20


def test_fd_check_takes_n_from_family(capsys):
    code, out, _ = run_cli(capsys, "fd-check", "--family", "one-dim-z0")
    assert code == 0
    assert run_cli(capsys, "fd-check", "--family", "one-dim-z0", "--N", "1")[:2] == (
        0,
        out,
    )
    code, _, _ = run_cli(
        capsys, "fd-check", "--family", "ma-only", "--points", "20"
    )
    assert code == 0


@pytest.mark.parametrize(
    "argv", [("identity", "--seed", "3"), ("fd-check", "--family", "radial-z1")]
)
def test_zero_points_is_usage_error(capsys, argv):
    code, out, err = run_cli(capsys, *argv, "--points", "0")
    assert code == 2 and out == "" and "--points" in err


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


def test_catalog_lists_everything(capsys):
    code, out, _ = run_cli(capsys, "catalog")
    assert code == 0
    rows = json.loads(out)
    kinds = {r["kind"] for r in rows}
    assert kinds == {"family", "profile", "group", "field"}
    families = [r for r in rows if r["kind"] == "family"]
    assert {r["name"] for r in families} == set(DEFAULT_FAMILIES)


def test_byte_determinism(capsys):
    args = ["identity", "--seed", "11", "--n=0..2", "--points", "15"]
    _, out1, _ = run_cli(capsys, *args)
    _, out2, _ = run_cli(capsys, *args)
    assert out1 == out2


def test_help_exits_zero(capsys):
    assert main(["--help"]) == 0
    capsys.readouterr()
    assert main(["check", "--help"]) == 0
    capsys.readouterr()


def test_no_command_is_usage_error(capsys):
    assert main([]) == 2
    capsys.readouterr()
