"""Calibrated operation times: wall time rescaled to a fixed machine speed.

On a shared 2-vCPU virtual machine (the reference figures in README.md)
the speed of identical work swings by up to 2x within seconds (CPU time
tracks wall time and steal time is nil, so the process is not
descheduled: it runs slower).  Raw wall-clock throughput there spread
by 15-35 % between runs.

``SpeedMeter.measure`` runs an operation while a timer signal fires
every INTERVAL_S; each signal runs one short probe, a fixed computation
shaped like condsym's hot path but written here (second-order jets with
numpy gradient and Hessian, product and chain rules, a radial field over
a shifted coordinate), so changes to condsym cannot change it.  Probe
time is subtracted from the operation's wall time, and the rest is
multiplied by the operation's mean probe speed, PROBE_NOMINAL_S / probe
duration: the result is the time the operation would take at the speed
where a probe takes PROBE_NOMINAL_S.  Probes inside the operation sample
the speed it actually ran at; the operation's time scaled with the probe
speed with slope 1.0 on recorded runs.

Set-up time is calibrated the same way against ``launch_reference``, a
fresh interpreter importing numpy, launched before and after each set-up
probe.
"""

import math
import signal
import statistics
import subprocess
import sys
import time

import numpy as np

INTERVAL_S = 0.025
PROBE_ITERATIONS = 16
PROBE_NOMINAL_S = 0.001  # a probe's usual duration on the reference machine
LAUNCH_NOMINAL_S = 0.15  # launch_reference's usual duration there


class _Jet:
    __slots__ = ("v", "g", "h")

    def __init__(self, v, g, h):
        self.v = float(v)
        self.g = np.array(g, dtype=float)
        self.h = np.array(h, dtype=float)


def _add(a, b):
    return _Jet(a.v + b.v, a.g + b.g, a.h + b.h)


def _mul(a, b):
    cross = np.outer(a.g, b.g)
    return _Jet(a.v * b.v, a.v * b.g + b.v * a.g, a.v * b.h + b.v * a.h + cross + cross.T)


def _chain(a, f0, f1, f2):
    return _Jet(f0, f1 * a.g, f1 * a.h + f2 * np.outer(a.g, a.g))


def _seed(i, v):
    g = np.zeros(3)
    g[i] = 1.0
    return _Jet(v, g, np.zeros((3, 3)))


def launch_reference(cwd):
    """Wall seconds of a fresh interpreter importing numpy: the set-up
    counterpart of ``probe``.  Process start and imports follow it with
    slope 0.98, where they followed ``probe`` with slope 0.46."""
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import numpy"], cwd=cwd, check=True)
    return time.perf_counter() - t0


def probe():
    """Seconds taken by one pass of the fixed probe computation."""
    t0 = time.perf_counter()
    for i in range(PROBE_ITERATIONS):
        jt, jx, jy = _seed(0, 1.0 + 1e-3 * i), _seed(1, 0.3), _seed(2, -0.2)
        x = _add(jx, _chain(jt, jt.v * jt.v, 2.0 * jt.v, 2.0))
        r2 = _add(_mul(x, x), _mul(jy, jy))
        r = math.sqrt(r2.v)
        _chain(r2, r, 0.5 / r, -0.25 / (r * r2.v))
    return time.perf_counter() - t0


class SpeedMeter:
    """Times operations and samples the machine's speed while they run.

    Installs a SIGALRM handler for its lifetime; use it as a context
    manager in the main thread.
    """

    def __init__(self):
        self.history = []  # every probe duration, in order
        self.probe_time = 0.0  # seconds spent in timer probes so far
        self._probes = []
        self._previous = None
        self.wall = 0.0
        self.calibrated = 0.0

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)

    def _on_alarm(self, signum, frame):
        seconds = probe()
        self._probes.append(seconds)
        self.probe_time += seconds

    def clock(self):
        """perf_counter without the time spent in timer probes, so that
        spans timed with it hold no probe time."""
        return time.perf_counter() - self.probe_time

    def measure(self, fn):
        """Run ``fn()`` and return its result.  Afterwards, also when it
        raised, ``wall`` holds its wall seconds without probe time and
        ``calibrated`` those seconds at the nominal speed."""
        self._probes = [probe()]
        t0 = time.perf_counter()
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        try:
            return fn()
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
            elapsed = time.perf_counter() - t0
            inside = math.fsum(self._probes[1:])
            self._probes.append(probe())
            self.history += self._probes
            speed = statistics.fmean(PROBE_NOMINAL_S / p for p in self._probes)
            self.wall = elapsed - inside
            self.calibrated = self.wall * speed
