"""The benchmark's hooks into the program (``perfbench/``): the names its
tracer patches and the negative controls its checks must reject.

``spans.Tracer.install`` reads every name it patches from its owner's
``__dict__``, so a refactor that drops one breaks ``run.py --trace 1``
with a KeyError; these tests see that first.
"""

import sys
import time
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"

# names in ``cli`` that the tracer wraps where the drivers look them up
_CLI_HOOKS = ("derivative_law_gap", "pushforward_identity_gap", "obstruction_term",
              "commutator_gap", "run_residual_suite", "emit", "build_parser")


@pytest.fixture(scope="module")
def perfbench():
    sys.path.insert(0, str(PERFBENCH))
    try:
        import program
        import selftest
        import spans

        yield program.load(), spans, selftest
    finally:
        sys.path.remove(str(PERFBENCH))


def test_tracer_installs_and_uninstalls(perfbench):
    cs, spans, _ = perfbench
    originals = {name: getattr(cs.cli, name) for name in _CLI_HOOKS}
    poly_jet = cs.fields.poly_jet
    tracer = spans.Tracer(clock=time.perf_counter)
    tracer.install(cs)
    try:
        assert all(getattr(cs.cli, name) is not f for name, f in originals.items())
        assert cs.fields.poly_jet is not poly_jet
    finally:
        tracer.uninstall()
    assert all(getattr(cs.cli, name) is f for name, f in originals.items())
    assert cs.fields.poly_jet is poly_jet


def test_tracer_sees_the_checks_that_scan_runs(perfbench, capsys):
    # the residual and law callbacks look the traced names up when they
    # run, so the spans count them
    cs, spans, _ = perfbench
    tracer = spans.Tracer(clock=time.perf_counter)
    tracer.install(cs)
    try:
        assert cs.cli.main(["check", "--family", "radial-z1"]) == 0
        assert cs.cli.main(["identity", "--seed", "3", "--points", "5"]) == 0
    finally:
        tracer.uninstall()
    capsys.readouterr()
    layers = tracer.layers()
    for layer in ("operators.residual", "operators.scale", "symmetry.laws"):
        assert layers.get(layer, (0,))[0] > 0, layer


def test_selftest_rejects_every_control(perfbench):
    cs, _, selftest = perfbench
    controls = selftest.controls(cs)
    assert len(controls) == 6
    assert [name for name, rejected in controls if not rejected] == []


def test_fd_crosscheck_sets_up(perfbench):
    # the set-up reads SolutionField.evaluate at a Point as an unbatched jet
    cs, _, _ = perfbench
    import workloads  # on the path while the fixture is live

    ops, problems = workloads.prepare("fd-crosscheck", 1, cs)
    assert len(ops) == 9 and problems == []


def test_fd_crosscheck_ops_meet_the_benchmark_fd_oracle(perfbench):
    # each family's FD error lies in (0, 1e-4), or in [0, 1e-4) where its
    # third derivatives vanish, as the benchmark's own check demands
    cs, _, _ = perfbench
    import workloads  # on the path while the fixture is live

    ops, _ = workloads.prepare("fd-crosscheck", 1, cs)
    assert len(ops) == 9
    for op in ops:
        err = op.run()
        assert op.check(err) == [], op.label
        assert 0.0 <= err < 1e-4, op.label


def test_tracer_spans_the_shared_parser_once_per_call(perfbench, capsys):
    # ``main`` shares one parser per builder: the tracer's builder runs
    # once, and its ``parse_args`` span wraps the parser once, not once
    # more per call
    cs, spans, _ = perfbench
    tracer = spans.Tracer(clock=time.perf_counter)
    tracer.install(cs)
    counts = []
    try:
        for _ in range(4):
            assert cs.cli.main(["commutators"]) == 0
            counts.append(tracer.layers()["cli.parse"][0])
    finally:
        tracer.uninstall()
    capsys.readouterr()
    added = [b - a for a, b in zip(counts, counts[1:])]
    assert added == [added[0]] * 3 and added[0] < counts[0]
    name_of, parent, _, _ = tracer.arrays()
    parse = tracer.names.index("cli.parse")
    spanned = name_of == parse
    assert not (name_of[parent[spanned & (parent >= 0)]] == parse).any()
    # restoring the builder restores an unwrapped parser
    assert "build_parser" in vars(cs.cli)
    assert cs.cli.main(["commutators", "--N", "1"]) == 0
    capsys.readouterr()
    assert "parse_args" not in vars(cs.cli._parser(cs.cli.build_parser))
