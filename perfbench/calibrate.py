"""Machine-speed calibration of wall-clock times.

On a shared host the speed of a core drifts: the same plnsim work takes
from 1x to 2x its fastest time within seconds, and a 25-second median moves
by 15-20 % from one minute to the next.  ``Clock`` therefore runs a fixed
probe before and after every timed operation and rescales the operation's
wall time by the probe's reference time over the mean of the two probe
times: the time the operation would have taken with the probe at its
reference speed.  Raw and calibrated times are both kept; the end-to-end
metrics use the calibrated ones.  The probes are benchmark code, so no
change to plnsim moves them.

Two probes, each resembling the work it calibrates: ``probe`` (batched
3x3 LAPACK solves, for the in-process sweeps) and ``interpreter_probe``
(a fresh interpreter importing numpy, for CLI calls and set-ups, whose time
is mostly interpreter start-up and imports).
"""

from __future__ import annotations

import subprocess
import sys
import time

import numpy as np

import harness

# Probe times on the machine the baseline was recorded on (2-vCPU Intel
# Xeon, Python 3.11, numpy 2.4, single-threaded OpenBLAS).  Only scales: a
# calibrated time equals the wall time when its probe runs this fast.
PROBE_REF_S = 0.020
INTERPRETER_PROBE_REF_S = 0.18

_solve = np.linalg.solve   # bound before any tracer can patch numpy.linalg
_rng = np.random.default_rng(20180628)
_A = _rng.standard_normal((800, 3, 3)) + 1j * _rng.standard_normal((800, 3, 3)) + 3.0 * np.eye(3)
_B = _rng.standard_normal((800, 3, 3)) + 1j * _rng.standard_normal((800, 3, 3))


def probe() -> float:
    """Seconds for 16 batched (800,3,3) complex solves and products.  Over
    10-20 s spans on a shared host, both sweeps' speed followed this probe
    about one for one, while a probe of (800,1,1) solves and exponentials
    swung half as much again as the sweeps and over-corrected them.  One
    run, not the fastest of several: contention that comes and goes within
    milliseconds slows the timed work on average, and so must the probe."""
    t = time.perf_counter()
    for _ in range(16):
        _A @ _solve(_A, _B)
    return time.perf_counter() - t


def interpreter_probe() -> float:
    """Seconds for a fresh interpreter to start and import numpy."""
    t = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import numpy"], env=harness.child_env(),
                   cwd=harness.ROOT, check=True)
    return time.perf_counter() - t


class Clock:
    """Times operations between probes.  ``raw`` and ``calibrated`` hold one
    entry per operation, in seconds."""

    def __init__(self, interpreter: bool = False):
        self._probe = interpreter_probe if interpreter else probe
        self._ref = INTERPRETER_PROBE_REF_S if interpreter else PROBE_REF_S
        self.raw: list[float] = []
        self.calibrated: list[float] = []
        self.probes: list[float] = [self._probe()]

    def time(self, fn, *args, **kwargs):
        t = time.perf_counter()
        result = fn(*args, **kwargs)
        wall = time.perf_counter() - t
        self.probes.append(self._probe())
        speed = self._ref / (0.5 * (self.probes[-2] + self.probes[-1]))
        self.raw.append(wall)
        self.calibrated.append(wall * speed)
        return result
