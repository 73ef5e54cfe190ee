"""Machine-speed sampling for a shared, noisy host.

On the shared 2-vCPU virtual machine this benchmark was developed on, other
tenants slow every process by up to 1.8x in phases that last from seconds to
minutes, so raw pass times of the same code spread by 30 % and more.
``SpeedSampler`` times
a fixed half-millisecond kernel from a SIGALRM handler every INTERVAL_S while
the workload runs; a timed interval is then scaled by ``NOMINAL_S / mean
kernel time`` inside it, which reads as seconds on the machine running at its
quiet-phase speed.  The mean, not the median, is used because the interval
pays the time-average of the machine's speed.

The kernel is the benchmark's own code and never changes with the library.
It mimics the library's hot path (small frozen objects built from float
tuples, set comprehensions, sorting, bitmask predicates through lambdas,
table lookups).  It costs about 1 % of the timed work, and the handler runs
in the main thread between bytecodes, so it never runs beside the library.
"""

from __future__ import annotations

import gc
import math
import signal
import statistics
import time
from dataclasses import dataclass

INTERVAL_S = 0.05
# Mean kernel time on the reference machine in a quiet phase (shared 2-vCPU
# virtual machine, Python 3.11.7).  Only ratios matter when two commits are
# compared; this constant keeps the scaled times in seconds.
NOMINAL_S = 0.0004

_N = 4
_TABLE = tuple(((m * 37) % 16) / 16.0 if m not in (0, 15) else float(m == 15) for m in range(16))
_ROWS = tuple(
    tuple(((k * 7919 + i * 104729) % 2001) / 100.0 - 10.0 for i in range(_N)) for k in range(40)
)


@dataclass(frozen=True)
class _Vector:
    values: tuple

    def __post_init__(self):
        values = tuple(float(v) for v in self.values)
        object.__setattr__(self, "values", values)
        if not all(math.isfinite(v) for v in values):
            raise ValueError("values must be finite")


def _mask(values, pred) -> int:
    m = 0
    for i, v in enumerate(values):
        if pred(v):
            m |= 1 << i
    return m


def _kernel() -> float:
    total = 0.0
    for row in _ROWS:
        x = _Vector(row).values
        pos = sorted({v for v in x if v > 0.0})
        tails = [_TABLE[_mask(x, lambda v, d=d: v > d)] for d in [0.0] + pos[:-1]]
        tails.append(0.0)
        for j, d in enumerate(pos):
            total += d * (tails[j] - tails[j + 1])
        neg = sorted({v for v in x if v < 0.0})
        lowers = [_TABLE[_mask(x, lambda v, c=c: v < c)] for c in neg[1:] + [0.0]]
        prev = 0.0
        for j, c in enumerate(neg):
            total -= c * (prev - lowers[j])
            prev = lowers[j]
    return total


class SpeedSampler:
    """Samples the kernel time every INTERVAL_S while active (a context manager)."""

    def __init__(self):
        self.samples: list[float] = []
        self._previous = None

    def _sample(self, signum, frame):
        # the kernel makes no cycles; a collection here would time the
        # workload's heap instead of the machine
        enabled = gc.isenabled()
        gc.disable()
        try:
            t0 = time.perf_counter()
            _kernel()
            self.samples.append(time.perf_counter() - t0)
        finally:
            if enabled:
                gc.enable()

    def __enter__(self):
        for _ in range(3):  # let the interpreter specialise the kernel before it is timed
            _kernel()
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        return False

    def mark(self) -> int:
        return len(self.samples)

    def factor(self, start: int, end: int | None = None) -> float:
        """Scale factor for an interval, from the samples taken inside it.

        An interval too short to hold a sample uses all samples so far.
        """
        window = self.samples[start:end] or self.samples
        return NOMINAL_S / statistics.fmean(window) if window else 1.0
