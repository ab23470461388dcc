"""The speed of one CPU while a child process runs on it.

The benchmark's host is shared.  Each vCPU's speed changes by up to half
for seconds at a time, independently on each vCPU, and there is no steal
time to show for it: a request's CPU time equals its wall time, and both
move with the host.  So the benchmark reads a request's cost as its CPU
time scaled by how fast its CPU ran meanwhile.

A `SpeedProbe` owns one thread.  For each child, it pins the thread to the
child's CPU at nice `NICE` and runs a fixed pure-Python loop there until
the child has exited.  The scheduler gives the thread short slices spread
over the child's life, about a tenth of the CPU, so the loop's mean time
per pass tracks the CPU's speed during the child.  The loop uses nothing
from the program, so no change to the program moves it.  Its mix of
dicts, tuples and small big-integers slows with the host about as much
as the program does; a pure arithmetic loop slows less.

A child's reference time is its CPU time times ``REF_PASS_S`` over the
mean pass time: the time it would have taken on a CPU that runs a pass in
``REF_PASS_S``.  The thread marks its progress every few passes, so the
speed over part of the window can be read as well.
"""

from __future__ import annotations

import bisect
import os
import threading
from time import perf_counter, thread_time

# About the pass time on the 2-vCPU x86-64 host the benchmark was tuned on,
# in its faster state.  Only a scale: every reference time is divided by it.
REF_PASS_S = 110e-6
# Scheduler weight 110 against the child's 1024: about 10% of the CPU
NICE = 10
# A mark every 16 passes: about one per scheduler slice the thread gets
MARK_EVERY = 16


def one_pass() -> int:
    """Small dicts, tuples, lists and two-word integers, as in the
    program's inner loops, without any of its code."""
    d = {}
    for i in range(300):
        d[(i, i & 7)] = [i, i * 3]
    s = 0
    for k, v in d.items():
        s += v[1] * (1 << 70) // (k[0] + 1)
    return s


class Speed:
    """One window's marks: (perf_counter time, passes, thread CPU time)."""

    def __init__(self, marks: list[tuple[float, int, float]]):
        self.marks = marks
        self.mean = self._ratio(marks[0], marks[-1])

    @staticmethod
    def _ratio(a, b) -> float:
        return REF_PASS_S * (b[1] - a[1]) / (b[2] - a[2])

    def over(self, t0: float, t1: float) -> float:
        """The speed over the marks that cover [t0, t1]."""
        times = [m[0] for m in self.marks]
        i = max(0, bisect.bisect_right(times, t0) - 1)
        j = min(len(times) - 1, bisect.bisect_left(times, t1))
        return self._ratio(self.marks[i], self.marks[j]) if i < j else self.mean


class SpeedProbe:
    """Measures one CPU's speed over a window, from a low-priority thread."""

    def __init__(self):
        self.cpus = sorted(os.sched_getaffinity(0))
        self._next = 0
        self._go = threading.Event()
        self._idle = threading.Event()
        self._idle.set()
        self._closed = False
        self._marks = []
        self._thread = threading.Thread(target=self._loop, name="speed-probe", daemon=True)
        self._thread.start()
        # set from here, so that a refusal raises in the caller
        os.setpriority(os.PRIO_PROCESS, self._thread.native_id, NICE)

    def _loop(self) -> None:
        while True:
            self._go.wait()
            if self._closed:
                return
            n = 0
            marks = [(perf_counter(), n, thread_time())]
            while True:  # at least one pass, so every window has a sample
                one_pass()
                n += 1
                if not self._go.is_set():
                    break
                if n % MARK_EVERY == 0:
                    marks.append((perf_counter(), n, thread_time()))
            marks.append((perf_counter(), n, thread_time()))
            self._marks = marks
            self._idle.set()

    def start(self) -> int:
        """Start a window on the next CPU in turn; return that CPU."""
        self._idle.wait()
        cpu = self.cpus[self._next % len(self.cpus)]
        self._next += 1
        os.sched_setaffinity(self._thread.native_id, {cpu})
        self._idle.clear()
        self._go.set()
        return cpu

    def stop(self) -> Speed:
        """End the window and return its speed."""
        self._go.clear()
        self._idle.wait()
        return Speed(self._marks)

    def close(self) -> None:
        self._go.clear()
        self._idle.wait()
        self._closed = True
        self._go.set()
        self._thread.join()
