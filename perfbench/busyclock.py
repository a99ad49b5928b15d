"""The benchmark's clock: busy time of a call, scaled to a reference speed.

A call's busy time is the CPU time of the calling thread during the call
plus that of the longest-running process it started and joined (the
parallel search's workers).  On an idle machine that reads as wall time;
time spent waiting for a CPU, or taken by the host, is left out.

A shared machine also changes how fast a CPU runs, by up to 1.8x within
seconds (neighbours on the same core).  So while the clock is installed, a
profiling timer interrupts the thread every PROBE_EVERY_S of CPU time and
runs a fixed probe that does the same kinds of work as the package (see
`probe`).  A call's busy time, less the probes run inside it, is scaled
by REF_PROBE_S over the mean probe time around the call: the probes inside
it, or, for a call too short to hold WINDOW of them, also the last ones
before it.  Times therefore read as seconds on a machine where one probe
takes REF_PROBE_S, its time on an unshared core of the 2-vCPU Xeon VM this
was written on; there a probe took 1.1 to 2 ms with the machine's state.

Each multiprocessing child scales its own busy time with its own probes
and records it when its `run` ends.  A child started without fork does not
see the patch; a call that joined such children counts the CPU time of all
of them, scaled by the caller's speed.  Calls may nest.
"""

from __future__ import annotations

import bisect
import contextlib
import multiprocessing
import random
import resource
import signal
import time

PROBE_EVERY_S = 0.02
WINDOW = 8
REF_PROBE_S = 0.0011
SLOTS = 256  # child times kept; a call that started more keeps the last ones

_MASKS = [random.Random(1).getrandbits(120) for _ in range(16)]
_POINTS = [(i % 31, i * 7 % 31, i * 13 % 31) for i in range(40)]


class _Field:
    p = q = 31


def _checked(f, a: int) -> int:
    if not 0 <= a < f.q:
        raise ValueError(a)
    return a


def _dot(f, u, v) -> int:
    acc = 0
    for x, y in zip(u, v):
        acc = (_checked(f, acc) + _checked(f, (_checked(f, x) * _checked(f, y)) % f.p)) % f.p
    return acc


def probe() -> int:
    """About 1 ms of the two kinds of work the package does: the search's
    big-integer unions and bit counts, and core's per-point dot products
    through small checked field functions."""
    acc = 0
    for r in range(100):
        u = 0
        for i, m in enumerate(_MASKS):
            u |= m & _MASKS[(i + r) % 16]
            acc += (u ^ m).bit_count() + (i * r) % 7
        acc += len([x for x in range(20) if x % 3])
    f = _Field()
    for r in range(3):
        for u in ((1, 2, 3), (0, 1, 5), (1, 0, 30)):
            for idx, c in enumerate(_POINTS):
                if _dot(f, u, c) == r:
                    acc |= 1 << idx
    return acc


def _children_cpu() -> float:
    ru = resource.getrusage(resource.RUSAGE_CHILDREN)
    return ru.ru_utime + ru.ru_stime


class Speedometer:
    """Probe times of this thread, by the thread CPU time they started at."""

    def __init__(self) -> None:
        self.at: list[float] = []
        self.took: list[float] = []

    def _tick(self, signum, frame) -> None:
        t0 = time.thread_time()
        probe()
        self.took.append(time.thread_time() - t0)
        self.at.append(t0)

    @contextlib.contextmanager
    def running(self):
        previous = signal.signal(signal.SIGPROF, self._tick)
        signal.setitimer(signal.ITIMER_PROF, PROBE_EVERY_S, PROBE_EVERY_S)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_PROF, 0, 0)
            signal.signal(signal.SIGPROF, previous)

    def scale(self, t0: float, t1: float) -> tuple[float, float]:
        """Busy seconds of this thread from t0 to t1 less the probes run in
        between, and the factor that takes them to the reference speed."""
        lo = bisect.bisect_left(self.at, t0)
        hi = bisect.bisect_left(self.at, t1)
        busy = t1 - t0 - sum(self.took[lo:hi])
        lo = max(0, min(lo, hi - WINDOW))
        if hi == lo:
            return busy, 1.0  # no probe yet: the clock is not installed
        return busy, REF_PROBE_S * (hi - lo) / sum(self.took[lo:hi])


class BusyClock:
    def __init__(self) -> None:
        ctx = multiprocessing.get_context()
        self._count = ctx.Value("q", 0)
        self._child_busy = ctx.Array("d", SLOTS, lock=False)
        self.speed = Speedometer()

    @contextlib.contextmanager
    def installed(self):
        base = multiprocessing.process.BaseProcess
        run = base.run
        count, child_busy = self._count, self._child_busy

        def timed_run(proc):
            speed = Speedometer()
            try:
                with speed.running():
                    run(proc)
            finally:
                busy, factor = speed.scale(0.0, time.thread_time())
                with count.get_lock():
                    child_busy[count.value % SLOTS] = busy * factor
                    count.value += 1

        base.run = timed_run
        try:
            with self.speed.running():
                yield self
        finally:
            base.run = run

    def start(self) -> tuple[float, float, int]:
        return time.thread_time(), _children_cpu(), self._count.value

    def since(self, start: tuple[float, float, int]) -> float:
        """Busy seconds since `start`, at the reference speed."""
        busy, factor = self.speed.scale(start[0], time.thread_time())
        children = _children_cpu() - start[1]
        first, end = start[2], self._count.value
        longest = max((self._child_busy[i % SLOTS]
                       for i in range(max(first, end - SLOTS), end)), default=0.0)
        return busy * factor + (longest or children * factor)


# One per process: the profiling signal and the multiprocessing patch it
# installs are process-wide.
CLOCK = BusyClock()
