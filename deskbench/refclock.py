"""A clock that counts time in passes of a fixed reference loop.

The machine the benchmark runs on is a small share of a busy host.  Its speed
moves in phases that last from seconds to minutes: the same pure-Python loop
takes 0.17 s in one phase and 0.32 s in another, and process CPU time swings
as much as wall time.  A median over the rounds of one run cannot remove a
phase that covers the whole run, so two runs of the same code can differ by
a third.

`RefClock` measures the machine's speed while the workload runs.  Every
PERIOD_S seconds a SIGALRM handler runs one pass of `reference_pass`, a fixed
loop of interpreter work, numpy scalar access and small-object allocation,
which is the kind of work the program's pure-Python code does.  The program
time since the previous pass, divided by this pass's duration, is added to
the clock.  `now()` therefore reads the time the program has spent, in units
of one reference pass at the speed the machine had at that moment.  A change
to the program moves it; a phase of the host mostly does not.  The time
spent in the passes is left out of the clock, and `sampling_s` sums it so
that it can be left out of times taken in seconds too.

The handler runs between bytecodes of the main thread, so a long call into C
delays a pass but never splits it.  The reference loop must never change:
every figure stated in refs depends on it.
"""

from __future__ import annotations

import signal
import time

import numpy as np

PERIOD_S = 0.1
PASS_ITERATIONS = 3000
_SCRATCH = np.zeros(64, dtype=np.int64)


def reference_pass() -> float:
    """One pass of the reference loop (about 2.5 ms on a 2.1 GHz Xeon).

    The first part is interpreter arithmetic and numpy scalar access, as in
    the RSK and sampler kernels.  The second is small-object allocation,
    hashing and sorting, as in the lattice builds and partition enumeration;
    it takes about 40% of the pass.  Either part alone tracks one of the
    workloads well and another badly: in alternating rounds on a busy host,
    the first part alone left a spread of 0.10 on exact-laws rounds, the
    second alone 0.12 on rsk-trajectory rounds, and the two together at most
    0.06 on any workload.
    """
    arr = _SCRATCH
    lst = list(range(64))
    s = 0.0
    for i in range(PASS_ITERATIONS):
        j = i & 63
        arr[j] += 1
        lst[j] = lst[j] + i % 7
        s += 0.5 * lst[j]
    counts: dict = {}
    pairs = []
    for i in range(PASS_ITERATIONS // 4):
        key = (i & 127, i >> 7)
        counts[key] = counts.get(key, 0) + 1
        pairs.append((i % 13, key))
    pairs.sort()
    return s + len(counts)


def _timed_pass() -> float:
    t0 = time.perf_counter()
    reference_pass()
    return time.perf_counter() - t0


class RefClock:
    """Program time in reference passes, sampled by a SIGALRM handler."""

    def __init__(self):
        self.passes = 0
        self.sampling_s = 0.0  # time spent in the reference passes
        # (refs so far, end of the last pass, duration of the last pass),
        # replaced as one tuple so that now() never sees half an update
        self._state = (0.0, 0.0, 1.0)
        self._old_handler = None

    def _tick(self, signum, frame):
        refs, last, _ = self._state
        t0 = time.perf_counter()
        reference_pass()
        t1 = time.perf_counter()
        self._state = (refs + (t0 - last) / (t1 - t0), t1, t1 - t0)
        self.passes += 1
        self.sampling_s += t1 - t0

    def start(self):
        pass_s = min(_timed_pass() for _ in range(3))  # warm, and a first speed
        self._state = (0.0, time.perf_counter(), pass_s)
        self._old_handler = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        if self._old_handler is not None:
            signal.signal(signal.SIGALRM, self._old_handler)
            self._old_handler = None

    def now(self) -> float:
        """Reference passes of program time since start()."""
        refs, last, pass_s = self._state
        return refs + (time.perf_counter() - last) / pass_s
