"""Machine-speed calibration for timings on a shared machine.

On a machine whose cores are shared with other tenants, the same Python
work can take twice as long from one minute to the next, and the speed can
change in the middle of a long op.  No steal time is reported, and CPU time
moves with wall time.  Longer runs cannot average that away.  So while the
benchmark runs, a `Sampler` interrupts it on a wall-clock timer and times a
fixed exact-arithmetic kernel, inside ops as well as between them.  Each op's
wall time, less the kernel runs inside it, is scaled by REF_SECONDS / (median
kernel time during and around the op).  A scaled time is the time the op
would take at the speed where the kernel takes REF_SECONDS.

The kernel does the kinds of work kdg does, in about equal shares of time:
Fraction elimination on a small matrix, fraction-free integer elimination
on many tiny matrices, and the same on one larger matrix.  Code of each
kind slows down by a different factor when the machine is busy, and the
mix follows all three workloads more closely than any one part.  It uses
nothing from kdg, so a change to kdg cannot move it.
"""

from __future__ import annotations

import bisect
import contextlib
import signal
import statistics
from fractions import Fraction
from time import perf_counter

#: Kernel time at the reference speed (about the fastest this kernel ran on
#: the machine where the benchmark was defined).
REF_SECONDS = 0.001


def _tridiagonal(n: int, diagonal: int) -> list[list[int]]:
    return [[diagonal if i == j else (1 if abs(i - j) == 1 else 0) for j in range(n)]
            for i in range(n)]


_FRACTIONS = [[Fraction(x) for x in row] for row in _tridiagonal(12, -3)]
_TINY = _tridiagonal(7, -3)
_LARGER = _tridiagonal(22, -2)


def _fraction_elimination() -> Fraction:
    a = [row[:] for row in _FRACTIONS]
    n = len(a)
    for k in range(n):
        pivot = a[k][k]
        for i in range(k + 1, n):
            factor = a[i][k] / pivot
            if factor:
                for j in range(k, n):
                    a[i][j] -= factor * a[k][j]
    return a[-1][-1]


def _bareiss(m: list[list[int]]) -> int:
    a = [row[:] for row in m]
    n = len(a)
    prev = 1
    for k in range(n - 1):
        pivot = a[k][k]
        for i in range(k + 1, n):
            head, row_i, row_k = a[i][k], a[i], a[k]
            for j in range(k + 1, n):
                row_i[j] = (pivot * row_i[j] - head * row_k[j]) // prev
        prev = pivot
    return a[-1][-1]


def kernel() -> None:
    _fraction_elimination()
    for _ in range(20):
        _bareiss(_TINY)
    _bareiss(_LARGER)


class Sampler:
    """Context manager that runs the kernel every `interval` seconds of wall
    time from a SIGALRM timer, in the main thread, and records (start,
    seconds) of each run.  A handler runs to its end before the interrupted
    code resumes, so a run that starts inside an op also ends inside it."""

    def __init__(self, interval: float) -> None:
        self.interval = interval
        self.starts: list[float] = []
        self.seconds: list[float] = []

    def _tick(self, signum=None, frame=None) -> None:
        start = perf_counter()
        kernel()
        self.starts.append(start)
        self.seconds.append(perf_counter() - start)

    def __enter__(self) -> "Sampler":
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    @contextlib.contextmanager
    def held(self):
        """Hold the timer's signal: a kernel run that falls due meanwhile
        runs as soon as the block ends, outside it."""
        signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGALRM})
        try:
            yield
        finally:
            signal.pthread_sigmask(signal.SIG_UNBLOCK, {signal.SIGALRM})

    def measure(self, start: float, wall: float, window: float) -> tuple[float, float]:
        """(wall seconds less the kernel runs inside [start, start + wall],
        factor to reference speed from the runs within `window` of it)."""
        inside = self.seconds[bisect.bisect_left(self.starts, start):
                              bisect.bisect_right(self.starts, start + wall)]
        near = self.seconds[bisect.bisect_left(self.starts, start - window):
                            bisect.bisect_right(self.starts, start + wall + window)]
        if not near:  # shorter than the timer interval
            self._tick()
            near = self.seconds[-1:]
        return wall - sum(inside), REF_SECONDS / statistics.median(near)
