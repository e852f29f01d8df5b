"""Machine-speed reference that the reported timings are scaled to.

On a shared host the same code runs up to twice as slowly in some
ten-second windows as in others, and process CPU time slows with it (the
contention is not steal time).  Within a window the host flips between a
fast and a slow state every fraction of a second.  A fixed reference task,
owned by the benchmark and never touched by the library, is timed before
every operation, out of the timed wall clock.  Each timing is reported
scaled by REF_S / (mean reference time from SPAN_S before it started to
SPAN_S after it ended), that is, in seconds at the speed the host had when
the reference task took REF_S.  Samples on both sides of a timing, taken
close to it, catch the state it ran in; samples further away would scale
an operation that ran slow by a fast neighbour's speed and put it in the
tail.  The library cannot change the reference task, so a change that
makes the library faster or slower moves the scaled figures by the same
factor as the raw ones; the raw figures stay in the run details.
"""

from __future__ import annotations

import bisect
import statistics
import time

import numpy as np

REF_S = 0.002      # nominal reference-task time; scaled timings use its units
SPAN_S = 0.1       # reference samples this close to a timing scale it
WINDOW = 25        # samples taken before a timed phase starts and after it ends

_VEC = np.linspace(-2.0, 2.0, 40401)
_MAT = np.array([[4.0, 1.0, 0.5], [1.0, 3.0, 0.2], [0.5, 0.2, 2.0]])
_RHS = np.array([1.0, 2.0, 3.0])


def _leaf(pair):
    return pair[0] * 0.5 + pair[1]


def reference_task():
    """A fixed mix of the library's kinds of work: Python-level calls over
    small tuples (expression walks, dedup loops), vector arithmetic over a
    201^2-point array (the sweep) and tiny dense solves (basis
    enumeration)."""
    acc = 0.0
    for i in range(4000):
        acc += _leaf((i, acc * 1e-9))
    for _ in range(4):
        acc += float(np.min(np.abs(_VEC - 0.3)) + np.sum(_VEC * _VEC))
    for _ in range(60):
        acc += float(np.linalg.solve(_MAT, _RHS)[0])
    return acc


class Speed:
    """Reference-task timings taken by one process, with their times."""

    def __init__(self):
        self.times = []
        self.samples = []

    def sample(self):
        """Time one run of the reference task; returns the seconds spent."""
        start = time.perf_counter()
        reference_task()
        end = time.perf_counter()
        self.samples.append(end - start)
        self.times.append((start + end) / 2.0)
        return end - start

    def bracket(self):
        """Take WINDOW samples, before a timing starts or after it ends."""
        for _ in range(WINDOW):
            self.sample()

    def factor(self, start, end):
        """Multiplier that turns a raw timing from `start` to `end`
        (perf_counter seconds) into seconds at REF_S speed."""
        lo = bisect.bisect_left(self.times, start - SPAN_S)
        hi = bisect.bisect_right(self.times, end + SPAN_S)
        near = self.samples[lo:hi]
        if not near:
            # no sample within SPAN_S: the nearest one on each side
            near = self.samples[max(lo - 1, 0):lo + 1]
        return REF_S / statistics.fmean(near)


class TimedLoop:
    """The clock of one closed-loop phase.

    A reference sample is taken before every operation and left out of the
    timed wall clock; each operation's start and raw latency are recorded,
    and scaled once the samples after the last operation are in.
    """

    def __init__(self, seconds):
        self.seconds = seconds
        self.speed = Speed()
        self.speed.bracket()
        self.starts = []
        self.latencies = []
        self.spent = 0.0
        self.wall = 0.0
        self.t0 = time.perf_counter()

    def running(self):
        """Sample the reference; True while time is left.

        The timed wall clock stops at the call that returns False."""
        self.spent += self.speed.sample()
        self.wall = time.perf_counter() - self.t0 - self.spent
        return self.wall < self.seconds

    def record(self, start, latency):
        self.starts.append(start)
        self.latencies.append(latency)

    def result(self, failed_at=()):
        """Raw and scaled latencies of the completed operations, and the
        raw and scaled timed wall clock."""
        self.speed.bracket()
        wall = self.wall
        scaled_all = [lat * self.speed.factor(s, s + lat)
                      for s, lat in zip(self.starts, self.latencies)]
        raw, scaled = sum(self.latencies), sum(scaled_all)
        done = [i for i in range(len(self.latencies)) if i not in failed_at]
        return {
            "latencies": [self.latencies[i] for i in done],
            "scaled_latencies": [scaled_all[i] for i in done],
            "wall_s": wall,
            "scaled_wall_s": wall * (scaled / raw if raw else
                                     self.speed.factor(self.t0, self.t0 + wall)),
            "reference_s": statistics.median(self.speed.samples),
        }
