"""Spans around the calls into each condsym layer, patched in from outside.

``Tracer.install(cs)`` replaces each traced name where its callers look
it up (the CLI's imported drivers, ``fields.poly_jet``,
``operators.det``, the ``jet2`` module functions, ``evaluate`` on each
field class, ...) with a wrapper that records a span: layer name,
start, end and parent span.  Spans live in flat arrays in memory until
``save``; ``uninstall`` restores the originals.  Spans are timed on the
speed meter's clock, which stands still while its timer probes run.
Self time is a span's duration minus the time its child spans cover.
"""

import functools
import math
from array import array

import numpy as np

JET2_OPS = ("add", "sub", "mul", "div", "univariate", "exp", "ln", "sqrt", "sin",
            "cos", "atan", "power", "atan2_jet", "compose", "seed", "constant")


class Tracer:
    def __init__(self, clock):
        self.clock = clock  # seconds; SpeedMeter.clock leaves probe time out
        self.names = []
        self._ids = {}
        self.clear()
        self._patched = []

    def clear(self):
        """Drop recorded spans and counters."""
        self.name_of = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self.field_depth = 0
        self.jets_built = 0
        self.poly_inputs = set()
        self.poly_ops = 0

    def _span(self, layer, fn, before=None):
        nid = self._ids.setdefault(layer, len(self.names))
        if nid == len(self.names):
            self.names.append(layer)
        clock = self.clock

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if before is not None:
                before(*args)
            idx = len(self.parent)
            self.name_of.append(nid)
            self.parent.append(self._stack[-1])
            self.end.append(0.0)
            self._stack.append(idx)
            self.start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                self.end[idx] = clock()
                self._stack.pop()

        return wrapper

    def _field_span(self, layer, fn):
        """A field evaluation; only those not nested in another count as
        jets built."""
        inner = self._span(layer, fn)

        def wrapper(*args, **kwargs):
            if self.field_depth == 0:
                self.jets_built += 1
            self.field_depth += 1
            try:
                return inner(*args, **kwargs)
            finally:
                self.field_depth -= 1

        return wrapper

    def _poly_input(self, powers, coeffs, coords):
        self.poly_inputs.add((powers.tobytes(), coeffs.tobytes(), np.asarray(coords).tobytes()))
        m, d = powers.shape
        # computed multiply-adds: a d-factor product per monomial for each
        # distinct jet entry (value, d gradient, d(d+1)/2 Hessian)
        self.poly_ops += m * d * (1 + d + d * (d + 1) // 2)

    def _patch(self, owner, attr, wrapper):
        self._patched.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, wrapper)

    def install(self, cs):
        cli = cs.cli
        for attr in ("parse_family", "parse_group", "parse_grid", "parse_kinds",
                     "parse_range", "parse_field_spec"):
            self._patch(cli, attr, self._span("cli.parse", getattr(cli, attr)))
        build = self._span("cli.parse", cli.build_parser)

        def build_parser():
            parser = build()
            parser.parse_args = self._span("cli.parse", parser.parse_args)
            return parser

        self._patch(cli, "build_parser", build_parser)
        self._patch(cli, "emit", self._span("cli.emit", cli.emit))
        self._patch(cli, "run_residual_suite",
                    self._span("verify.run_residual_suite", cli.run_residual_suite))
        for attr in ("derivative_law_gap", "pushforward_identity_gap", "obstruction_term"):
            self._patch(cli, attr, self._span("symmetry.laws", getattr(cli, attr)))
        self._patch(cli, "commutator_gap",
                    self._span("symmetry.commutator_gap", cli.commutator_gap))
        self._patch(cs.verify, "fd_crosscheck",
                    self._span("verify.fd_crosscheck", cs.verify.fd_crosscheck))
        self._patch(cs.verify, "evaluate_residual",
                    self._span("operators.residual", cs.verify.evaluate_residual))
        self._patch(cs.verify, "residual_scale",
                    self._span("operators.scale", cs.verify.residual_scale))
        for name in JET2_OPS:
            self._patch(cs.jet2, name, self._span(f"jet2.{name}", getattr(cs.jet2, name)))
        self._patch(cs.fields, "poly_jet",
                    self._span("kernels.poly_jet", cs.fields.poly_jet, self._poly_input))
        self._patch(cs.operators, "det", self._span("kernels.det", cs.operators.det))
        layer_of = {"SolutionField": "solutions.evaluate",
                    "PushforwardField": "symmetry.pushforward"}
        for cls in _subclasses(cs.fields.ScalarField):
            if "evaluate" in cls.__dict__:
                layer = layer_of.get(cls.__name__, "fields.evaluate")
                self._patch(cls, "evaluate", self._field_span(layer, cls.evaluate))

    def uninstall(self):
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched = []

    # -- summaries ---------------------------------------------------------

    def arrays(self):
        return (np.frombuffer(self.name_of, dtype=np.int32),
                np.frombuffer(self.parent, dtype=np.int32),
                np.frombuffer(self.start), np.frombuffer(self.end))

    def layers(self):
        """{layer: (calls, inclusive seconds, self seconds)}."""
        name_of, parent, start, end = self.arrays()
        dur = end - start
        child = np.zeros_like(dur)
        has_parent = parent >= 0
        np.add.at(child, parent[has_parent], dur[has_parent])
        own = dur - child
        n = len(self.names)
        calls = np.bincount(name_of, minlength=n)
        incl = np.bincount(name_of, weights=dur, minlength=n)
        selfs = np.bincount(name_of, weights=own, minlength=n)
        return {name: (int(calls[i]), float(incl[i]), float(selfs[i]))
                for i, name in enumerate(self.names)}

    def save(self, path):
        name_of, parent, start, end = self.arrays()
        np.savez_compressed(path, layer=np.array(self.names), name=name_of,
                            parent=parent, start=start - (start[0] if len(start) else 0.0),
                            end=end - (start[0] if len(start) else 0.0))


def _subclasses(cls):
    out = []
    for sub in cls.__subclasses__():
        out.append(sub)
        out.extend(_subclasses(sub))
    return out


def metrics(layers, tracer, samples, field_samples):
    """Per-layer metrics of one traced round."""

    def calls(layer):
        return layers.get(layer, (0, 0.0, 0.0))[0]

    def incl(layer):
        return layers.get(layer, (0, 0.0, 0.0))[1]

    def own(*names):
        return math.fsum(layers.get(n, (0, 0.0, 0.0))[2] for n in names)

    jet2_names = [f"jet2.{n}" for n in JET2_OPS]
    jet2_ops = sum(calls(n) for n in jet2_names)
    poly_calls = calls("kernels.poly_jet")
    distinct = len(tracer.poly_inputs)
    return {
        "cli.parse_s": (incl("cli.parse"), "s"),
        "cli.emit_s": (incl("cli.emit"), "s"),
        "verify.run_residual_suite.self_s": (own("verify.run_residual_suite"), "s"),
        "verify.fd_crosscheck.self_s": (own("verify.fd_crosscheck"), "s"),
        "solutions.evaluate.calls": (calls("solutions.evaluate"), "count"),
        "solutions.evaluate.self_s": (own("solutions.evaluate"), "s"),
        "fields.jets_built": (tracer.jets_built, "count"),
        "fields.jets_per_sample": (tracer.jets_built / field_samples if field_samples else 0.0, "ratio"),
        "fields.poly_jets": (poly_calls, "count"),
        "fields.poly_jets_per_distinct_input": (poly_calls / distinct if distinct else 0.0, "ratio"),
        "symmetry.pushforward.calls": (calls("symmetry.pushforward"), "count"),
        "symmetry.pushforward.self_s": (own("symmetry.pushforward"), "s"),
        "symmetry.laws.self_s": (own("symmetry.laws"), "s"),
        "symmetry.commutator_gap.calls": (calls("symmetry.commutator_gap"), "count"),
        "symmetry.commutator_gap.self_s": (own("symmetry.commutator_gap"), "s"),
        "operators.residual.calls": (calls("operators.residual"), "count"),
        "operators.residual.self_s": (own("operators.residual"), "s"),
        "operators.scale.self_s": (own("operators.scale"), "s"),
        "jet2.ops": (jet2_ops, "count"),
        "jet2.ops_per_sample": (jet2_ops / samples, "ratio"),
        "jet2.self_s": (own(*jet2_names), "s"),
        "jet2.mul.calls": (calls("jet2.mul"), "count"),
        "jet2.univariate.calls": (calls("jet2.univariate"), "count"),
        "jet2.compose.calls": (calls("jet2.compose"), "count"),
        "jet2.mul.self_s": (own("jet2.mul"), "s"),
        "jet2.compose.self_s": (own("jet2.compose"), "s"),
        "kernels.poly_jet.calls": (poly_calls, "count"),
        "kernels.poly_jet.self_s": (own("kernels.poly_jet"), "s"),
        "kernels.poly_jet.ops": (tracer.poly_ops, "count"),
        "kernels.det.calls": (calls("kernels.det"), "count"),
        "kernels.det.self_s": (own("kernels.det"), "s"),
    }
