"""Negative controls: outputs the benchmark's checks must reject.

Each control builds a wrong or non-finite result with condsym and feeds
it to the same validator a workload uses.  A control that is accepted
means the check cannot fail, and the run is marked incorrect.

    python3 perfbench/selftest.py     # exit 0 when every control is rejected
"""

import json
import math
import sys

import numpy as np

import oracles
import program
import workloads


def _nan_jet(cs, dim):
    nan = math.nan
    return cs.jet2.Jet2(nan, [nan] * dim, [[nan] * dim] * dim)


def _small_grid(cs, spatial_dim):
    return cs.verify.GridSpec((0.8, 1.4, 3), ((0.2, 0.9, 4),) * spatial_dim)


def controls(cs):
    """(name, rejected?) for every control."""
    params = cs.ModelParams(2, 1.0)
    radial = cs.solutions.SolutionField(cs.solutions.DEFAULT_FAMILIES["radial-z1"])
    grid = _small_grid(cs, 2)
    diffusion = (cs.operators.ResidualKind.DIFFUSION,)

    class NaNAfterFirst(cs.fields.ScalarField):
        """radial-z1 at the first point, NaN everywhere after it."""

        def __init__(self):
            self.calls = 0

        def evaluate(self, params, point):
            self.calls += 1
            if self.calls == 1:
                return radial.evaluate(params, point)
            return _nan_jet(cs, params.jet_dim)

    class NaNField(cs.fields.ScalarField):
        def evaluate(self, params, point):
            return _nan_jet(cs, params.jet_dim)

    out = []
    # 1. partial-NaN residual rows: the report itself may still say pass
    reports = cs.verify.run_residual_suite(NaNAfterFirst(), diffusion, params, grid, 1e-8)
    rows = [r.to_dict() for r in reports]
    out.append(("NaN after a finite first point fails the residual check",
                 bool(oracles.check_residual_rows(rows, ["diffusion"], grid.total_points))))
    # 2. NaN field under finite differences
    err = cs.verify.fd_crosscheck(NaNField(), params, [cs.Point(1.0, (0.5, 0.5))], 1e-4)
    out.append(("NaN field fails the FD check", bool(oracles.check_fd(err, True))))
    # 3. a random polynomial is not a solution
    poly_params = cs.ModelParams(2, 2.0)
    poly = cs.fields.RandomPolynomialField(7, poly_params, 3)
    rows = [r.to_dict() for r in
            cs.verify.run_residual_suite(poly, diffusion, poly_params, grid, 1e-8)]
    out.append(("random polynomial fails the diffusion check",
                bool(oracles.check_residual_rows(rows, ["diffusion"], grid.total_points))))
    # 4. bare NaN is not JSON
    for text in (json.dumps({"rms": math.nan}), '{"gap": Infinity}'):
        try:
            oracles.strict_json(text)
            rejected = False
        except ValueError:
            rejected = True
        out.append((f"strict JSON parse rejects {text}", rejected))
    # 5. the interior-point rule rejects a NaN field everywhere
    fam = workloads.Family("radial-z1", {"c": 1.0, "e1": 0.5, "e2": 0.0, "n": 1},
                           2, ("diffusion", "monge-ampere"), False)
    pts = workloads.fd_points(cs, fam, NaNField(), params, np.random.default_rng(0), count=1)
    out.append(("FD point drawing finds no interior point of a NaN field", not pts))
    return out


def main():
    cs = program.load()
    ok = True
    for name, rejected in controls(cs):
        print(f"{'ok  ' if rejected else 'FAIL'} {name}")
        ok = ok and rejected
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
