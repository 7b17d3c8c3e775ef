"""Command-line interface: grammars, formats, exit codes, determinism."""

import csv
import dataclasses
import io
import json
import shlex
from pathlib import Path

import pytest

from condsym import cli, fields
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
    with pytest.raises(CLIError, match="not of a field"):
        parse_kinds("reduced-first")  # a residual of phi(w1, w2), not of a field
    with pytest.raises(CLIError, match="duplicate residual kind"):
        parse_kinds("diffusion,diffusion")
    with pytest.raises(CLIError, match="unknown residual kind"):
        parse_kinds("")
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
    # one jet of u per point, then one inside the pushforward per (n, point)
    calls = []

    class Counted(cli.RandomPolynomialField):
        def evaluate(self, params, point):
            calls.append(point)
            return super().evaluate(params, point)

    monkeypatch.setattr(cli, "RandomPolynomialField", Counted)
    code, _, _ = run_cli(capsys, "identity", "--seed", "3", "--n=-2..3", "--points", "50")
    assert code == 0
    assert len(calls) == 50 + 6 * 50


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


def test_emit_json_is_strict():
    out = io.StringIO()
    cli.emit([{"a": float("nan"), "b": [float("-inf"), 1.5], "c": {"d": float("inf")}}],
             "json", out)
    assert json.loads(out.getvalue()) == [
        {"a": "NaN", "b": ["-Infinity", 1.5], "c": {"d": "Infinity"}}
    ]


def test_check_evaluates_field_once_per_point(capsys, monkeypatch):
    # both designated kinds read the same jet at each of the 12**3 points
    calls = []

    class Counted(cli.SolutionField):
        def evaluate(self, params, point):
            calls.append(point)
            return super().evaluate(params, point)

    monkeypatch.setattr(cli, "SolutionField", Counted)
    code, out, _ = run_cli(capsys, "check", "--family", "radial-z1")
    assert code == 0
    assert [r["points_evaluated"] for r in json.loads(out)] == [1728, 1728]
    assert len(calls) == 1728


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


def test_commutators_non_finite_gap_fails_closed(capsys, monkeypatch):
    monkeypatch.setattr(cli, "commutator_gap", lambda *args: float("nan"))
    code, out, _ = run_cli(capsys, "commutators", "--n=0..1", "--k=0..0", "--N", "1")
    assert code == 1
    rows = json.loads(out)
    assert rows and all(r["gap"] == "Infinity" and r["pass"] is False for r in rows)


def test_fd_check_family(capsys):
    code, out, _ = run_cli(
        capsys, "fd-check", "--family", "radial-z1", "--points", "20"
    )
    assert code == 0
    row = json.loads(out)[0]
    assert row["pass"] and row["points"] == 20


def test_fd_check_overflow_fails_closed(capsys):
    code, out, err = run_cli(
        capsys, "fd-check", "--family", "one-dim-generic:q=exp:1,800", "--z", "2",
        "--points", "3",
    )
    assert code == 1 and "Traceback" not in err
    assert err == "fd-check: 0/1 passed\n"
    (row,) = json.loads(out)
    assert row["max_rel_err"] == "Infinity" and row["pass"] is False
    assert row["points"] == 3


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
    for row in rows:
        if row["kind"] == "group":
            parse_group(row["spec"])


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
    assert len(lines) == 7
    for argv in lines:
        assert main(argv[1:]) == 0, argv
    capsys.readouterr()
