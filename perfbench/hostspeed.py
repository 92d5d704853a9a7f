"""How fast the shared host runs: a fixed reference computation, timed
through a run, that the benchmark's times are scaled by.

On the 2-core shared virtual machine the benchmark was written on, the
host's speed drifts by 20-40%, from one second to the next and for tens
of seconds at a time, long enough to slow every pass of a run, so no
statistic over one run's passes removes it.  The same drift slows a
reference computation that does the same kind of work as the workload,
timed between the workload's operations through the whole run.  The
references use Python and numpy only, never cornerwalk, so no change to
the program changes their time.

There are two, because the drift does not slow all work alike.  In
7-minute probes on that machine, cut into 25-second windows, the
pure-Python series solvers slowed like ``PYTHON`` (a bisection over a
sum of exponentials: slope 0.9 of log time on log time) and 1.5 times
as much as ``NUMPY`` (in log), while the Monte Carlo engine slowed like
``NUMPY`` (Philox draws, a step gather and a cumulative sum over a
16384 x 64 block, as the engine's blocks do: slope 0.9-1.0) and 0.6
times as much as ``PYTHON``.

``HostSpeed.scale()`` is the reference's ``seconds`` over its median
time in the run; a time multiplied by it is in reference seconds, the
seconds it would take on a host that runs the reference computation in
its ``seconds``.
"""

import math
import statistics
import time
from dataclasses import dataclass
from typing import Callable

import numpy as np

TERMS = ((1, 0, 0.2), (0, 1, 0.3), (-1, -1, 0.25), (1, 1, 0.15), (0, -1, 0.1))
STEPS = np.array([[1, 0], [0, 1], [-1, -1], [1, 1], [0, -1]], dtype=np.int32)


def _bisect(fun, lo: float, hi: float) -> float:
    flo = fun(lo)
    for _ in range(40):
        mid = 0.5 * (lo + hi)
        fmid = fun(mid)
        if (fmid < 0.0) == (flo < 0.0):
            lo, flo = mid, fmid
        else:
            hi = mid
    return lo


def python_computation() -> float:
    """Roots in x of sum p exp(a x + b y) = 1 for 60 values of y."""

    def kernel(x, y):
        return math.fsum(p * math.exp(a * x + b * y) for a, b, p in TERMS) - 1.0

    return sum(_bisect(lambda x: kernel(x, 0.01 * k), 0.0, 5.0)
               for k in range(60))


def numpy_computation() -> float:
    """Paths of 64 steps from a 16384-row block: how many dip below -3."""
    rng = np.random.Generator(np.random.Philox(key=7))
    idx = (rng.random((16384, 64)) * len(STEPS)).astype(np.int64)
    cum = np.cumsum(STEPS[idx], axis=1, dtype=np.int32)
    low = (cum[:, :, 0] <= -3) | (cum[:, :, 1] <= -3)
    return float(low.any(axis=1).sum())


@dataclass(frozen=True)
class Reference:
    name: str
    compute: Callable[[], float]
    seconds: float  # about its median time on the 2-core machine above
    # One sample per this many seconds of timed operations, so that the
    # samples weigh every moment of the run alike and cost about a tenth
    # of the run.
    every_s: float


PYTHON = Reference("python", python_computation, 0.004, 0.04)
NUMPY = Reference("numpy", numpy_computation, 0.040, 0.4)


class HostSpeed:
    """Times of a reference computation, taken between operations."""

    def __init__(self, reference: Reference):
        self.reference = reference
        self.times: list[float] = []
        self._owed = 0.0  # samples owed for the operations timed so far
        reference.compute()  # warm-up, not kept

    def after(self, seconds: float) -> None:
        """Take the samples owed after an operation that took ``seconds``."""
        self._owed += seconds / self.reference.every_s
        while self._owed >= 1.0:
            self._owed -= 1.0
            t0 = time.perf_counter()
            self.reference.compute()
            self.times.append(time.perf_counter() - t0)

    def scale(self) -> float:
        return self.reference.seconds / statistics.median(self.times)
