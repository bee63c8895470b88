"""How fast this machine runs right now, from a fixed reference computation.

On a shared host the speed of one core can change by half within seconds,
and stay changed for minutes. While a unit runs, a :class:`Meter` interrupts
it every ``PERIOD`` seconds to time one pass of :func:`kernel`; the unit's
time, less the time spent in those passes, is multiplied by ``REFERENCE_S``
over their mean. The result is in seconds at a fixed reference speed, so
runs made while the host is busy compare with runs made while it is quiet.

The kernel imitates the work the workloads do: a loop of small numpy
operations (the logistic and softmax fits), parsing decimal strings (the CSV
reader) and one larger vectorised pass (the coefficient builds). It imports
nothing from the program, so a change to the program cannot move it.
"""

from __future__ import annotations

import signal
import statistics
import time

import numpy as np

# Typical kernel time on the 2-core x86_64 host the baseline was recorded on.
REFERENCE_S = 0.001
PERIOD = 0.05

_rng = np.random.default_rng(0)
_X = _rng.standard_normal((100, 11))
_Y = (_rng.random(100) < 0.5).astype(np.float64)
_TEXT = [repr(float(v)) for v in _rng.standard_normal(1000)]
_BIG = _rng.standard_normal(50_000)


def kernel() -> float:
    """Seconds taken by one pass of the reference computation."""
    t0 = time.perf_counter()
    w = np.zeros(_X.shape[1])
    for _ in range(40):
        p = 1.0 / (1.0 + np.exp(-(_X @ w)))
        w -= 0.01 * (_X.T @ (p - _Y) / _X.shape[0] + 1e-3 * w)
    parsed = [float(s) for s in _TEXT]
    np.exp(_BIG).sum()
    elapsed = time.perf_counter() - t0
    if not (np.isfinite(w).all() and len(parsed) == len(_TEXT)):
        raise ArithmeticError("reference kernel produced a wrong result")
    return elapsed


def sample(repeats: int = 15) -> float:
    """Median of a few back-to-back kernel passes."""
    return statistics.median(kernel() for _ in range(repeats))


class Meter:
    """Times kernel passes on a wall-clock timer signal while the block runs.

    ``spent`` is the time the passes took from the block; ``scale()`` turns
    the block's remaining time into reference seconds. Signal handlers run in
    the main thread between bytecodes, so the program is never interrupted
    inside a numpy call, and interrupted system calls are retried.
    """

    def __init__(self, period: float = PERIOD):
        self.period = period
        self.samples: list[float] = []
        self.spent = 0.0
        self._previous = None

    def _tick(self, signum, frame):
        t0 = time.perf_counter()
        self.samples.append(kernel())
        self.spent += time.perf_counter() - t0

    def __enter__(self) -> "Meter":
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, self.period, self.period)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def scale(self) -> float:
        """``REFERENCE_S`` over the mean kernel time seen during the block
        (one sample taken now if the block was too short for any)."""
        seen = self.samples or [sample()]
        return REFERENCE_S / statistics.fmean(seen)
