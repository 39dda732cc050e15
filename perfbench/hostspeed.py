"""Correct the end-to-end timings for the speed of a shared host.

On a virtual machine that shares its cores with other tenants, the same
code runs up to 2x slower while a neighbour is busy, in phases from a
fraction of a second to many minutes.  The process keeps its CPU time, so
neither CPU time nor the fastest of a few runs removes that: whole runs
fall into slow phases.  ``HostSpeed`` measures the host's speed during the
run instead.  Every ``INTERVAL_S`` a timer signal interrupts the program
and times ``probe``, a fixed miniature of the package's own work.  A
call's wall time, less the probe's own time, is multiplied by the probe's
mean speed during and around the call, so it reads as the call's time on
a host where ``probe`` takes ``NOMINAL_S``.  The probe's code never
changes, so a faster package still reads faster.
"""

from __future__ import annotations

import signal
import statistics
import time
from dataclasses import dataclass

INTERVAL_S = 0.01
# About the probe's fastest time on the host of the committed baseline
# (2 vCPU Xeon, Python 3.11.7); it sets the scale of every corrected time.
NOMINAL_S = 3.0e-4
# A call's speed is the mean over the samples taken during it and this many
# on each side: the host's speed changes within a fraction of a second.
AROUND = 10


class _Fn:
    """A transformation of a few points, as the package composes them."""

    __slots__ = ("images",)

    def __init__(self, images: tuple[int, ...]) -> None:
        self.images = images

    def then(self, other: _Fn) -> _Fn:
        return _Fn(tuple(other.images[x] for x in self.images))


class _Node:
    """A predicate over a characteristic tuple, evaluated recursively."""

    __slots__ = ("op", "kids", "at")

    def __init__(self, op: str, kids: tuple[_Node, ...] = (), at: int = 0) -> None:
        self.op, self.kids, self.at = op, kids, at

    def holds(self, chi: tuple[bool, ...]) -> bool:
        if self.op == "leaf":
            return chi[self.at]
        if self.op == "not":
            return not self.kids[0].holds(chi)
        if self.op == "and":
            return self.kids[0].holds(chi) and self.kids[1].holds(chi)
        return self.kids[0].holds(chi) or self.kids[1].holds(chi)


_LETTERS = (_Fn((1, 2, 0, 3)), _Fn((0, 0, 2, 3)), _Fn((3, 1, 2, 0)))
_PRED = _Node("or", (_Node("and", (_Node("leaf", at=0), _Node("not", (_Node("leaf", at=1),)))), _Node("leaf", at=2)))


def probe() -> int:
    """A fixed miniature of the package's work: fold words into transformations, test a predicate.

    Among the probes tried, the host slowed this one most nearly as much as
    it slowed the workloads, on the sc builds and on the oracle sweep alike.
    """
    accepted = 0
    for word in range(40):
        f = _Fn((0, 1, 2, 3))
        for i in range(6):
            f = f.then(_LETTERS[(word >> i) % 3])
        accepted += _PRED.holds(tuple(f.images[q] == 3 for q in range(3)))
    return accepted


@dataclass(frozen=True)
class Timing:
    seconds: float  # wall time of the call, less the probe's
    first: int  # samples taken before the call
    last: int  # samples taken by its end


class HostSpeed:
    """Samples the host's speed while it is entered and corrects timings by it."""

    def __init__(self) -> None:
        self.speeds: list[float] = []  # NOMINAL_S over the probe's time, one per sample
        self.busy = 0.0  # seconds spent in the probe

    def _sample(self, signum=None, frame=None) -> None:
        t0 = time.perf_counter()
        probe()
        elapsed = time.perf_counter() - t0
        self.speeds.append(NOMINAL_S / elapsed)
        self.busy += elapsed

    def __enter__(self) -> HostSpeed:
        for _ in range(AROUND):
            self._sample()
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def time(self, fn, *args) -> tuple[object, Timing]:
        """Call ``fn(*args)``; return its result and its timing."""
        first, busy = len(self.speeds), self.busy
        t0 = time.perf_counter()
        result = fn(*args)
        seconds = time.perf_counter() - t0 - (self.busy - busy)
        return result, Timing(seconds, first, len(self.speeds))

    def correct(self, timing: Timing) -> float:
        """The call's seconds at nominal host speed; best once ``AROUND`` more samples are taken."""
        around = self.speeds[max(0, timing.first - AROUND) : timing.last + AROUND]
        return timing.seconds * statistics.fmean(around)


class Unadjusted:
    """The interface of ``HostSpeed`` with plain wall times, for traced runs."""

    def __enter__(self) -> Unadjusted:
        return self

    def __exit__(self, *exc) -> None:
        pass

    def time(self, fn, *args) -> tuple[object, Timing]:
        t0 = time.perf_counter()
        result = fn(*args)
        return result, Timing(time.perf_counter() - t0, 0, 0)

    def correct(self, timing: Timing) -> float:
        return timing.seconds
