"""Host-speed probes: fixed loops that never touch the repository, timed
so a slow or noisy host can be recognised and the repository's timings
divided by the host's speed measured next to them.

Both probes are timed in thread CPU time: the host's speed drift shows
in CPU time as much as in wall time, while time spent preempted does
not.  A probe reading is reported as a *host factor*, its time over the
time it takes on the reference host, so every scaled timing reads as
seconds on that host.
"""

from __future__ import annotations

import functools
import statistics
import threading
import time

import numpy as np

#: Probe loops per reading.
REPEATS = 3

#: :func:`probe_ms` on the reference host (a 2-vCPU Xeon, fast phase).
REFERENCE_MS = 5.5

#: One :class:`Sampler` loop on the same host.
SAMPLER_REFERENCE_MS = 1.6


@functools.cache
def _memory() -> tuple:
    """The probe's working set, built once per process: a 4 MB array
    gathered at random and a dict walked in random key order, so the
    probe feels cache and memory contention as the repository does."""
    rng = np.random.default_rng(0)
    values = rng.random(1 << 19)
    picks = rng.integers(0, values.size, size=1 << 15)
    table = {key: key * 3 for key in range(1 << 15)}
    order = rng.permutation(1 << 15)[:15000].tolist()
    return values, picks, table, order


def _compute() -> float:
    total = 0.0
    for i in range(12000):
        total += (i % 7) * 0.5
    small = np.linspace(0.0, 1.0, 4096)
    for _ in range(60):
        small = np.sqrt(small * small + 1.0) - 0.5
    return total + float(small[0])


def _work() -> float:
    values, picks, table, order = _memory()
    total = _compute()
    for key in order:
        total += table[key]
    for _ in range(2):
        total += float(values[picks].sum())
    return total


def _cpu_ms(loop) -> float:
    start = time.thread_time()
    loop()
    return (time.thread_time() - start) * 1000.0


def probe_ms() -> float:
    """Median CPU time of :data:`REPEATS` probe loops, in milliseconds."""
    return statistics.median(_cpu_ms(_work) for _ in range(REPEATS))


def host_factor() -> float:
    """How much slower than the reference host this host runs now."""
    return probe_ms() / REFERENCE_MS


class Sampler(threading.Thread):
    """Samples the host's speed every ``interval`` seconds from a side
    thread while the process's pool workers do the measured work.

    The workers keep both CPUs busy, so a sample is the fastest of
    :data:`REPEATS` short compute-only loops: no working set of its own
    to contend with theirs, and the minimum drops the loops a context
    switch or interrupt slowed.
    """

    def __init__(self, interval: float = 0.4) -> None:
        super().__init__(daemon=True)
        self.interval = interval
        self.samples: list[tuple[float, float]] = []
        self._stopped = threading.Event()

    def run(self) -> None:
        while True:
            fastest = min(_cpu_ms(_compute) for _ in range(REPEATS))
            self.samples.append((time.perf_counter(), fastest))
            if self._stopped.wait(self.interval):
                return

    def stop(self) -> None:
        self._stopped.set()
        self.join()

    def host_factor_until(self, moment: float) -> float:
        """Mean host factor sampled up to ``moment`` (the first sample
        if none; one is always taken, even when :meth:`stop` comes
        first)."""
        taken = [ms for at, ms in self.samples if at <= moment]
        mean = statistics.fmean(taken or [self.samples[0][1]])
        return mean / SAMPLER_REFERENCE_MS
