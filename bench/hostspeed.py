"""The speed of the CPU the benchmark's jobs run on, sampled while they run.

On a few vCPUs of a shared host, the same Python code runs up to twice as
slow from one second or minute to the next, as other tenants load the
cores underneath.  A run cannot average that away in a minute, so the
benchmark measures it: it pins itself and its jobs to one CPU, and a thread
of the benchmark's process runs a fixed piece of interpreter work (the
probe) on that CPU every ``PERIOD_S`` and records the thread CPU time it
took.  A job that runs while the probe is slow ran on a slow host;
``HostSpeed.factor`` gives, for a span of time, ``NOMINAL_NS`` over the
probe's mean time in it, and the benchmark multiplies the times it measured
in that span by it.  Reported times are therefore seconds at the nominal
speed: what the job would take on this machine with its cores at the speed
they usually have.

Each sample is first replaced by the median of the samples within
``SMOOTH_S`` of it.  One sample can read several times too slow (a cache
flushed by the job, an interrupt), and a 5 ms request holds at most one
sample; the host's own changes of speed last a second or more, so the
median keeps them and drops the outliers.  Over a long span the mean of
these medians then weighs a slow and a fast stretch by their length.

The probe takes about 1.5 ms of CPU every 50 ms, so the jobs lose about 3%
of their CPU to it, the same share in every run.  It uses only the standard
library, never the package, so no change to the package changes it.
"""

from __future__ import annotations

import os
import statistics
import threading
import time
from bisect import bisect_left, bisect_right
from fractions import Fraction

PERIOD_S = 0.05
SMOOTH_S = 0.5
# About the probe's median time on the machine the baseline in NOTES.md was
# taken on (2-vCPU Intel Xeon VM at 2.1 GHz, CPython 3.11.7).  Any constant
# would do; this one keeps reported times near the seconds seen there.
NOMINAL_NS = 1_550_000


def pin_to_one_cpu():
    """Pin this process, and so every child it starts, to one CPU; the
    jobs then run on the CPU the probe samples.  Returns that CPU."""
    cpu = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


def probe_work():
    """Fraction arithmetic on growing integers, a dict, a sort and string
    conversion: what the package's exact arithmetic does.  Job times tracked
    this closer than a bare integer loop, which a busy host slows less than
    it slows the jobs (NOTES.md)."""
    for _ in range(4):
        acc = Fraction(0)
        for i in range(1, 25):
            acc = (acc + Fraction(i, i + 2) * Fraction(i + 3, 5)) / 2
        table = {}
        for i in range(250):
            table[(i * 7) % 101, i % 13] = (i, str(i))
        total = 0
        for key, (_, text) in sorted(table.items(), key=lambda kv: kv[1][1]):
            total += len(text) + key[0]
    return acc, total


class HostSpeed:
    """Samples the probe loop from entering the ``with`` block to leaving it."""

    def __init__(self):
        self.samples = []  # (perf_counter at the end of the loop, CPU ns it took)
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._sample, daemon=True)

    def __enter__(self):
        self._thread.start()
        return self

    def __exit__(self, *exc):
        self._stop.set()
        self._thread.join()
        self._times = [t for t, _ in self.samples]
        ns = [ns for _, ns in self.samples]
        self._smoothed = [
            statistics.median(ns[bisect_left(self._times, t - SMOOTH_S):
                                 bisect_right(self._times, t + SMOOTH_S)])
            for t in self._times]

    def _sample(self):
        while not self._stop.is_set():
            c0 = time.thread_time_ns()
            probe_work()
            self.samples.append((time.perf_counter(), time.thread_time_ns() - c0))
            self._stop.wait(PERIOD_S)

    def factor(self, t0, t1):
        """``NOMINAL_NS`` over the mean smoothed probe time between ``t0``
        and ``t1`` (``perf_counter`` values); the nearest sample's if none
        fell inside.  Call it after the ``with`` block has ended."""
        lo, hi = bisect_left(self._times, t0), bisect_right(self._times, t1)
        inside = self._smoothed[lo:hi]
        if not inside:
            near = min(range(max(lo - 1, 0), min(lo + 1, len(self._times))),
                       key=lambda i: abs(self._times[i] - (t0 + t1) / 2))
            inside = [self._smoothed[near]]
        return NOMINAL_NS / statistics.mean(inside)

    def median_ns(self):
        return statistics.median(ns for _, ns in self.samples)
