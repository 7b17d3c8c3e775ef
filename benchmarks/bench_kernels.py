#!/usr/bin/env python3
"""Benchmark the numeric kernels.

Times ``poly_jet`` (value/gradient/Hessian of a dense polynomial) and
``det`` (small-matrix determinant) inside one process.

Usage:
    python3 benchmarks/bench_kernels.py [--dim N] [--degree D]
        [--points P] [--det-size S] [--matrices M] [--repeat R]
"""

import argparse
import time

import numpy as np

from condsym import _kernels
from condsym.fields import monomial_table


def best_per_call(fn, args_list, repeat):
    """Best wall time per call over `repeat` passes of the whole batch."""
    best = float("inf")
    for _ in range(repeat):
        t0 = time.perf_counter()
        for args in args_list:
            fn(*args)
        dt = time.perf_counter() - t0
        best = min(best, dt / len(args_list))
    return best


def poly_inputs(dim, degree, points, rng):
    powers = monomial_table(dim, degree)
    coeffs = rng.uniform(-1.0, 1.0, powers.shape[0])
    return [
        (powers, coeffs, rng.uniform(-1.0, 1.0, dim)) for _ in range(points)
    ]


def det_inputs(size, matrices, rng):
    return [(rng.uniform(-1.0, 1.0, (size, size)),) for _ in range(matrices)]


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--dim", type=int, default=4, help="polynomial variables")
    ap.add_argument("--degree", type=int, default=3, help="total degree")
    ap.add_argument("--points", type=int, default=2000, help="poly_jet calls per pass")
    ap.add_argument("--det-size", type=int, default=3, help="matrix side length")
    ap.add_argument("--matrices", type=int, default=5000, help="det calls per pass")
    ap.add_argument("--repeat", type=int, default=5, help="passes; best is kept")
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args(argv)

    rng = np.random.default_rng(args.seed)
    poly_args = poly_inputs(args.dim, args.degree, args.points, rng)
    det_args = det_inputs(args.det_size, args.matrices, rng)

    n_terms = poly_args[0][0].shape[0]
    print(f"poly_jet: dim={args.dim} degree={args.degree} "
          f"({n_terms} terms), {args.points} calls/pass")
    print(f"det:      {args.det_size}x{args.det_size}, "
          f"{args.matrices} calls/pass, best of {args.repeat}")
    print()
    print(f"{'kernel':10s} {'us/call':>10s}")
    for kernel, fn, calls in (
        ("poly_jet", _kernels.poly_jet, poly_args),
        ("det", _kernels.det, det_args),
    ):
        per_call = best_per_call(fn, calls, args.repeat)
        print(f"{kernel:10s} {per_call * 1e6:10.2f}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
