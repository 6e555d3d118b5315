"""Host speed probes, timed around and during jobs to scale their wall times.

On a shared 2-CPU host the speed of this process swings between two levels
about 1.4-1.8x apart, in phases of 20-60 s, when other tenants load the
physical cores (no steal time shows in the guest, and CPU time swings with
wall time).  A 25 s run falls mostly in one phase, so raw wall times of
whole runs spread by about 30 %.  The benchmark therefore times a fixed
probe before every job and once after the last, and every
SAMPLE_INTERVAL_S during in-process jobs, and scales each job's wall time
by the probe's reference time over the median of the probes that bracket
it: the BRACKET last ones before it, those during it and the BRACKET first
ones after it.  Speed drifts within a second, so only the nearest probes
count.  In eight timed phases of each in-process workload, this spread
jobs_per_s between phases by 0.04-0.06, against 0.06-0.11 when every probe
within 1 s either side counted.

Two probes, because work of different kinds slows differently: an
in-process pure-Python kernel (KernelProbe) for in-process jobs, and a fresh
interpreter importing a few stdlib modules (StartupProbe) for jobs and
set-ups that start a process.  Over about 40 repeats each, the kernel cut
the spread (interquartile range over median) of in-process jobs from
0.25-0.48 to 0.05-0.13; the start-up probe cut that of short CLI commands
from 0.18 to 0.08-0.10, where the kernel reached only 0.14-0.15.  Raw wall
times stay in the job records.
"""

from __future__ import annotations

import signal
import statistics
import subprocess
import sys
import time
from fractions import Fraction

SAMPLE_INTERVAL_S = 0.25
BRACKET = 2  # probes counted on each side of a timed interval


def kernel_seconds() -> float:
    """Wall time of a fixed exact-arithmetic and dictionary workload."""
    start = time.perf_counter()
    total = Fraction(0)
    counts: dict = {}
    for i in range(4000):
        total += Fraction(i % 7 - 3, 1 + i % 5)
        key = (i % 13, i % 11)
        counts[key] = counts.get(key, 0) + 1
    if total != Fraction(-7, 3) or len(counts) != 143:
        raise RuntimeError("speed kernel computed a wrong result")
    return time.perf_counter() - start


class KernelProbe:
    """Times kernel_seconds() in this process."""

    # median time in the fast phase of a 2-CPU x86-64 host; scaled times
    # read as seconds on that host when it runs at that speed
    reference_s = 0.010

    def __call__(self) -> float:
        return kernel_seconds()


class StartupProbe:
    """Times a fresh interpreter that imports a few stdlib modules."""

    reference_s = 0.065  # as for KernelProbe
    COMMAND = (sys.executable, "-c", "import argparse, json, fractions, decimal, email.parser")

    def __init__(self, cwd, env: dict) -> None:
        self.cwd = cwd
        self.env = env

    def __call__(self) -> float:
        # No timeout: with one, and no output to read, subprocess polls for
        # the exit with sleeps of up to 50 ms, and the probe read 64 or 114 ms.
        start = time.perf_counter()
        subprocess.run(self.COMMAND, cwd=self.cwd, env=self.env, check=True)
        return time.perf_counter() - start


class SpeedLog:
    """Probe times, each with the perf_counter time it was taken at."""

    def __init__(self, probe) -> None:
        self.measure = probe
        self.samples: list = []

    def probe(self) -> float:
        """Take one probe; returns the wall time it took."""
        start = time.perf_counter()
        self.samples.append((start, self.measure()))
        return time.perf_counter() - start

    def scale(self, wall_s: float, start: float, end: float) -> tuple:
        """(wall_s at the reference speed, median probe time used) for [start, end]."""
        before = [k for t, k in self.samples if t < start]
        during = [k for t, k in self.samples if start <= t <= end]
        after = [k for t, k in self.samples if t > end]
        probe_s = statistics.median(before[-BRACKET:] + during + after[:BRACKET])
        return wall_s * self.measure.reference_s / probe_s, probe_s


class Sampler:
    """Probes on SIGALRM every SAMPLE_INTERVAL_S inside a ``with`` block.

    ``spent_s`` is the wall time the probes took, to be subtracted from the
    block's.  Only for code that runs in this process: a parent waiting on a
    child would time the other CPU.
    """

    def __init__(self, log: SpeedLog, enabled: bool = True) -> None:
        self.log = log
        self.enabled = enabled
        self.spent_s = 0.0
        self._previous = None

    def _tick(self, signum, frame) -> None:
        self.spent_s += self.log.probe()

    def __enter__(self) -> "Sampler":
        if self.enabled:
            self._previous = signal.signal(signal.SIGALRM, self._tick)
            signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL_S, SAMPLE_INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        if self.enabled:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, self._previous)
