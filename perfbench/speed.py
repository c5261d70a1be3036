"""How fast the host runs Python right now, sampled while the CLI runs.

On a shared host the speed of a core moves by a third and more within
seconds to minutes, as other tenants load the machine, and each core moves
on its own; wall and CPU time both follow it.  ``Sampler`` runs a small
fixed pure-Python kernel every ``PERIOD_S`` in a thread of the benchmark, on
the cores the program runs on, and times each run of it in thread CPU time,
which the program's competing for the core does not inflate.  The kernel is
power iteration written the way the program's hot loops are (explicit
``for`` loops over neighbor lists into float accumulators) on a 120-vertex
tree and a 40-vertex dense graph: its time follows the host's speed as the
program's does on every workload, where a kernel of comprehensions and
small-graph work tracked the large-graph workload less closely.  The benchmark divides a
CLI run's wall and CPU times by ``mean sample / REFERENCE_UNIT_S``: the time
the run would have taken on a host that runs the kernel in the reference
time.  The kernel is part of the benchmark, not of the program, so a change
to the program moves the scaled times exactly as it moves the raw ones.
"""

from __future__ import annotations

import math
import os
import random
import statistics
import threading
import time
from contextlib import contextmanager

#: Typical thread CPU time of one kernel unit on a 2-vCPU Intel Xeon
#: (Sapphire Rapids) KVM guest with Python 3.11 (its fast state reads about
#: half of it); only a scale: it sets the units of the scaled times, not
#: their spread.
REFERENCE_UNIT_S = 0.010

#: Pause between two samples; a unit takes about REFERENCE_UNIT_S, so the
#: sampler takes about 4% of the core it shares with a serial campaign.
PERIOD_S = 0.25

_UNIT_ITERATIONS = 105


def _graph(rng: random.Random, n: int, p: float) -> list[list[int]]:
    """Neighbor lists of a random recursive tree plus G(n, p) edges."""
    nbrs: list[list[int]] = [[] for _ in range(n)]
    for i in range(1, n):
        j = rng.randrange(i)
        nbrs[i].append(j)
        nbrs[j].append(i)
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < p and j not in nbrs[i]:
                nbrs[i].append(j)
                nbrs[j].append(i)
    return nbrs


_rng = random.Random(3)
_GRAPHS = (_graph(_rng, 120, 0.0), _graph(_rng, 40, 0.5))


def unit_s() -> float:
    """Thread CPU time of one run of the kernel."""
    started = time.thread_time()
    for nbrs in _GRAPHS:
        n = len(nbrs)
        v = [1.0 / math.sqrt(n)] * n
        for _ in range(_UNIT_ITERATIONS):
            w = [0.0] * n
            for i, nb in enumerate(nbrs):
                acc = 0.0
                for u in nb:
                    acc += v[u]
                w[i] = acc
            norm = 0.0
            for i in range(n):
                w[i] += v[i]
                norm += w[i] * w[i]
            norm = math.sqrt(norm)
            v = [x / norm for x in w]
    return time.thread_time() - started


def probe_s() -> float:
    """Median time of ten kernel units on each CPU this process may use
    (see ``workload_cpus``), averaged over the CPUs."""
    home = os.sched_getaffinity(0)
    cpus = sorted(home)
    total = 0.0
    try:
        for cpu in cpus:
            if len(cpus) > 1:
                os.sched_setaffinity(0, {cpu})
            total += statistics.median(unit_s() for _ in range(10))
    finally:
        if len(cpus) > 1:
            os.sched_setaffinity(0, home)
    return total / len(cpus)


class Sampler:
    """Time one kernel unit every ``PERIOD_S`` while the block runs, on
    each CPU of the process in turn.

        with Sampler() as s:
            started = time.perf_counter()
            run_the_program()
            factor = s.slowdown(started, time.perf_counter())
    """

    def __init__(self) -> None:
        #: (perf_counter when the unit ended, its thread CPU time)
        self.samples: list[tuple[float, float]] = []
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._loop, daemon=True)

    def _loop(self) -> None:
        # visit the process's CPUs in turn; affinity set here binds this
        # thread only
        cpus = sorted(os.sched_getaffinity(0))
        visit = 0
        while not self._stop.wait(PERIOD_S):
            if len(cpus) > 1:
                os.sched_setaffinity(0, {cpus[visit % len(cpus)]})
                visit += 1
            took = unit_s()
            self.samples.append((time.perf_counter(), took))

    def __enter__(self) -> "Sampler":
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()

    def slowdown(self, start: float = float("-inf"), end: float = float("inf")) -> float:
        """Mean sample taken between ``start`` and ``end`` over
        REFERENCE_UNIT_S: a time measured then, divided by this, is the time
        at reference speed.  Without a sample in the interval, the mean of
        all samples; without any, one unit timed now."""
        inside = [took for at, took in self.samples if start <= at <= end]
        if not inside:
            if not self.samples:
                self.samples.append((time.perf_counter(), unit_s()))
            inside = [took for _, took in self.samples]
        return statistics.fmean(inside) / REFERENCE_UNIT_S


@contextmanager
def workload_cpus(jobs: int):
    """Yield the CPUs a campaign with ``jobs`` workers runs on.

    This process, and every child it starts, is pinned to the last
    ``jobs`` usable CPUs, so the probe runs on the cores the program runs
    on: a serial campaign shares one core with it.  The original affinity
    comes back on exit.
    """
    home = os.sched_getaffinity(0)
    cpus = sorted(home)[-max(jobs, 1):]
    try:
        os.sched_setaffinity(0, set(cpus))
        yield cpus
    finally:
        os.sched_setaffinity(0, home)
