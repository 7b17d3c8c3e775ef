"""One cold set-up of a workload in a fresh interpreter.

Imports condsym, builds the parser, parses the workload's specs, builds
its fields and draws its points, then prints ``ready`` and exits.  The
benchmark times each launch from spawn to that line.

    python3 perfbench/probe.py --workload NAME --seed N
"""

import argparse
import sys

import program
import workloads


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    args = ap.parse_args()
    workloads.prepare(args.workload, args.seed, program.load())
    sys.stdout.write("ready\n")
    sys.stdout.flush()
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
