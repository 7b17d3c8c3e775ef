"""condsym benchmark: one workload, one seed, one JSON result line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads: grid-residuals, symmetry-laws, fd-crosscheck (see README.md).
Every run first checks that its checks can fail (selftest.py), that
the kernels agree with their oracles (kernels.py) and that the family
values match their closed forms (oracles.py).  Then it sets the workload
up, runs one untimed warm-up round and then whole rounds of the same
operations, checking every output.

Times are calibrated (reference.py): a shared machine's speed can swing
by 2x within seconds, so a timer samples the machine's speed with a fixed
probe computation while each operation runs, each set-up probe runs
between two launches of a reference interpreter, and wall times are
rescaled to a nominal speed.

--trace 0 reports the end-to-end metrics:
  setup_s        median over PROBES fresh interpreters of the calibrated
                 time from spawn to ready
  samples_per_s  samples per round / sum over operations of the median
                 calibrated time of that operation across the timed rounds
  peak_rss_mb    peak resident set of this process
--trace 1 reports the per-layer metrics instead: untraced rounds for
half the time, then traced rounds (spans.py) for the other half, then
the kernel timings.  Spans of the first traced round are written to
perfbench/out/, next to a raw record of every run.
"""

import argparse
import json
import resource
import statistics
import subprocess
import sys
import time
import traceback

import numpy as np

import kernels
import program
import selftest
import spans
import workloads
import reference

PROBES = 9
OUT = program.ROOT / "perfbench" / "out"


def setup_times(workload, seed, count=PROBES):
    """Calibrated seconds from spawning a fresh interpreter to its
    workload being set up, each probe between two reference launches."""
    times = []
    cmd = [sys.executable, str(program.ROOT / "perfbench" / "probe.py"),
           "--workload", workload, "--seed", str(seed)]
    before = reference.launch_reference(program.ROOT)
    for _ in range(count):
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=program.ROOT, stdout=subprocess.PIPE,
                                stderr=subprocess.PIPE, text=True)
        try:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - t0
            _, err = proc.communicate(timeout=120)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        if line.strip() != "ready" or proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed ({proc.returncode}): {err.strip()}")
        after = reference.launch_reference(program.ROOT)
        times.append(elapsed * reference.LAUNCH_NOMINAL_S / (before * after) ** 0.5)
        before = after
    return times


class Runner:
    """Runs rounds of a workload's operations and keeps the tallies."""

    def __init__(self, ops, timer):
        self.ops = ops
        self.timer = timer
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.failures = []

    def round(self):
        """One pass over every operation; (calibrated, wall) seconds of each."""
        calib, wall = [], []
        for op in self.ops:
            self.attempted += 1
            try:
                out = self.timer.measure(op.run)
                failed = op.failed(out)
            except Exception:  # an operation that raises is a failed one
                out, failed = traceback.format_exc(limit=3), True
            calib.append(self.timer.calibrated)
            wall.append(self.timer.wall)
            if failed:
                self.failed += 1
                self.failures.append(f"{op.label}: {out[2].strip() if isinstance(out, tuple) else out}")
            else:
                self.problems += [f"{op.label}: {p}" for p in op.check(out)]
        return calib, wall

    def rounds_for(self, seconds):
        """Whole rounds until ``seconds`` have passed; at least one."""
        rounds = []
        t0 = time.perf_counter()
        while not rounds or time.perf_counter() - t0 < seconds:
            rounds.append(self.round())
        return rounds


def end_to_end(args, ops):
    setup = setup_times(args.workload, args.seed)
    with reference.SpeedMeter() as meter:
        runner = Runner(ops, meter)
        runner.round()  # warm-up
        rounds = runner.rounds_for(args.seconds)
    per_op = [statistics.median(ts) for ts in zip(*(calib for calib, _ in rounds))]
    samples = sum(op.samples for op in ops)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    metrics = {
        "setup_s": (statistics.median(setup), "s"),
        "samples_per_s": (samples / sum(per_op), "1/s"),
        "peak_rss_mb": (rss_mb, "MB"),
    }
    return runner, metrics, {"setup_s": setup, "rounds": rounds}


def per_layer(args, cs, ops):
    samples = sum(op.samples for op in ops)
    field_samples = sum(op.samples for op in ops if op.evaluates_fields)
    per_round, traced = [], []
    with reference.SpeedMeter() as meter:
        tracer = spans.Tracer(clock=meter.clock)
        runner = Runner(ops, meter)
        runner.round()  # warm-up
        untraced = runner.rounds_for(args.seconds / 2.0)
        t0 = time.perf_counter()
        while not traced or time.perf_counter() - t0 < args.seconds / 2.0:
            tracer.clear()
            tracer.install(cs)
            try:
                traced.append(runner.round())
            finally:
                tracer.uninstall()
            per_round.append(spans.metrics(tracer.layers(), tracer, samples, field_samples))
            if len(per_round) == 1:
                tracer.save(OUT / f"trace-{args.workload}.npz")
        tracer.clear()
        kernel_us = kernels.timings(cs, np.random.default_rng([args.seed, 7]), meter)
    metrics = {}
    for name, (value, unit) in per_round[0].items():
        if unit == "s":  # times: median over traced rounds; counts: first round
            value = statistics.median(r[name][0] for r in per_round)
        metrics[name] = (value, unit)
    metrics.update(kernel_us)

    def median_round(rounds, part):
        return statistics.median(sum(r[part]) for r in rounds)

    metrics["trace.overhead_pct"] = (
        100.0 * (median_round(traced, 0) / median_round(untraced, 0) - 1.0), "%")
    metrics["run.wall_samples_per_s"] = (samples / median_round(untraced, 1), "1/s")
    metrics["run.probe_ms"] = (1e3 * statistics.median(meter.history), "ms")
    return runner, metrics, {"untraced_rounds": untraced, "traced_rounds": traced}


def main(argv=None):
    ap = argparse.ArgumentParser(description="condsym benchmark")
    ap.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    try:
        cs = program.load()
    except program.MissingProgram as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)

    problems = [f"negative control accepted: {name}"
                for name, rejected in selftest.controls(cs) if not rejected]
    problems += kernels.check(cs, np.random.default_rng([args.seed, 7]))
    problems += workloads.value_problems(args.workload, args.seed, cs)
    ops, setup_problems = workloads.prepare(args.workload, args.seed, cs)
    problems += setup_problems
    if args.trace:
        runner, metrics, raw = per_layer(args, cs, ops)
    else:
        runner, metrics, raw = end_to_end(args, ops)
    problems += runner.problems

    for p in problems + runner.failures:
        print(p, file=sys.stderr)
    result = {
        "correct": not problems,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    record = dict(vars(args), ops=[op.label for op in ops], samples=[op.samples for op in ops],
                  problems=problems, failures=runner.failures, result=result, **raw)
    (OUT / f"{args.workload}-s{args.seed}-t{args.trace}.json").write_text(json.dumps(record, indent=1))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
