"""Kernel-layer timings, each on inputs whose results are checked first.

``poly_jet`` (dim 4, degree 3) is checked against closed-form monomial
derivatives, ``det`` (3 x 3) against ``np.linalg.det`` and a scalar
``jet2.mul`` (dim 3) against the product rule written out in numpy.
The timed calls go through the module attributes, so they time
whichever backend condsym selected; their times are calibrated like the
operations' (reference.py).
"""

import itertools
import statistics

import numpy as np

import oracles

BATCHES = 7


def _inputs(rng):
    powers = np.array(sorted(e for e in itertools.product(range(4), repeat=4) if sum(e) <= 3),
                      dtype=np.int64)
    poly = [(powers, rng.uniform(-1.0, 1.0, len(powers)), rng.uniform(-1.0, 1.0, 4))
            for _ in range(40)]
    mats = [rng.uniform(-1.0, 1.0, (3, 3)) for _ in range(400)]
    jets = [(rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0, 3), _sym(rng.uniform(-1.0, 1.0, (3, 3))))
            for _ in range(400)]
    return poly, mats, jets


def _sym(m):
    return m + m.T


def check(cs, rng):
    """Problems found comparing the kernels with the oracles."""
    poly, mats, jets = _inputs(rng)
    problems = []
    for powers, coeffs, x in poly:
        got = cs._kernels.poly_jet(powers, coeffs, x)
        want = oracles.monomial_jet(powers, coeffs, x)
        if not all(oracles.close(g, w) for g, w in zip(got, want)):
            problems.append(f"poly_jet disagrees with monomial derivatives at {x.tolist()}")
    for m in mats:
        if not oracles.close(cs._kernels.det(m), np.linalg.det(m)):
            problems.append(f"det disagrees with np.linalg.det on {m.tolist()}")
    for (va, ga, ha), (vb, gb, hb) in zip(jets, jets[1:]):
        out = cs.jet2.mul(cs.jet2.Jet2(va, ga, ha), cs.jet2.Jet2(vb, gb, hb))
        want = (va * vb, va * gb + vb * ga, va * hb + vb * ha + np.outer(ga, gb) + np.outer(gb, ga))
        if not all(oracles.close(g, w) for g, w in zip((out.value, out.grad, out.hess), want)):
            problems.append("jet2.mul disagrees with the product rule")
    return problems


def _per_call_us(meter, fn, args_list, repeat):
    def batch():
        for _ in range(repeat):
            for args in args_list:
                fn(*args)

    times = []
    for _ in range(BATCHES):
        meter.measure(batch)
        times.append(meter.calibrated / (repeat * len(args_list)))
    return statistics.median(times) * 1e6


def timings(cs, rng, meter):
    """Median calibrated microseconds per call of each kernel."""
    poly, mats, jets = _inputs(rng)
    jet_pairs = [(cs.jet2.Jet2(*a), cs.jet2.Jet2(*b)) for a, b in zip(jets, jets[1:])]
    return {
        "jet2.mul_us": (_per_call_us(meter, cs.jet2.mul, jet_pairs, 5), "us"),
        "kernels.poly_jet_us": (_per_call_us(meter, cs._kernels.poly_jet, poly, 2), "us"),
        "kernels.det_us": (_per_call_us(meter, cs._kernels.det, [(m,) for m in mats], 25), "us"),
    }
