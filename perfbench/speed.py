"""The benchmark's clock: timings normalised to the speed the host gave.

The reference host is a 2-vCPU share of a larger machine.  A vCPU runs
at one of two speeds (a fixed 0.3-ms loop reads about 0.33 or 0.55 ms,
the second when a neighbour loads the core), and the share of slow time
moves over seconds to minutes, independently on each vCPU.  A whole
run can sit in a 1.5x slower stretch, so medians over a run do not
remove it, and a probe before and after a request misses what happened
during it.

So every process of a measured run samples its own speed while it
works.  :func:`start` arms a ``SIGALRM`` timer; every ``INTERVAL_S`` the
handler runs a fixed pure-Python loop (``PROBE_LOOPS`` iterations, no
program code) and records its start and duration.  The duration is the
thread's CPU time: the guest cannot see a neighbour on its core, so a
slow core shows there in full, while a probe that waits behind the
program's own processes (three of them share two vCPUs in ``query``)
does not count the wait, which would fold the program's contention
into the host's speed.  Nor does it count time the hypervisor gives
the vCPU to another guest; the kernel accounts that as stolen, and the
process that called :func:`start` records the guest's stolen time from
``/proc/stat`` with every sample.  Each process writes its samples
into its own sparse, memory-mapped file in the sample directory, so a
worker that is killed keeps what it recorded, and a forked child (a
``parallel_map`` or ``WarmPool`` worker) opens a file of its own and
re-arms the timer.  The probes cost about 2% of each process's time,
on both sides of any comparison.

:func:`load` gathers every process's samples.  ``Samples.normalised``
turns a measured interval into the time it would have taken at the
nominal speed: the interval times the mean of ``NOMINAL_PROBE_S /
probe`` over every sample, of every process, inside it, each weighted
by the CPU time its process spent on the program since its previous
sample, and scaled by the share of the vCPU time the program asked for
that it got (see :class:`Samples`).  An interval with fewer than
``MIN_SAMPLES`` samples is widened about its middle until it holds that
many.  ``NOMINAL_PROBE_S`` is a fixed constant (about the probe's time
on the reference host), so it cancels in any comparison of two
commits.
"""

from __future__ import annotations

import mmap
import os
import signal
import struct
from pathlib import Path
from time import perf_counter, process_time, thread_time

import numpy as np

PROBE_LOOPS = 2000
INTERVAL_S = 0.02
NOMINAL_PROBE_S = 2.0e-4
MIN_SAMPLES = 8
# Samples one process can hold: over ten minutes at INTERVAL_S.
CAPACITY = 1 << 15

# probe start (perf_counter), probe duration (this thread's CPU time),
# this process's CPU time at the probe's start, and the guest's stolen
# time so far in clock ticks (-1 in forked children)
_RECORD = struct.Struct("dddd")
_TICK_S = 1.0 / os.sysconf("SC_CLK_TCK")


class _Sampler:
    """This process's sample file and the count written to it."""

    def __init__(self, directory: Path) -> None:
        self.directory = directory
        self.stat_fd = os.open("/proc/stat", os.O_RDONLY)
        self.open()

    def open(self) -> None:
        path = self.directory / f"speed-{os.getpid()}.bin"
        size = CAPACITY * _RECORD.size
        fd = os.open(path, os.O_RDWR | os.O_CREAT | os.O_TRUNC, 0o644)
        try:
            os.ftruncate(fd, size)
            self.buffer = mmap.mmap(fd, size)
        finally:
            os.close(fd)
        self.count = 0


_SAMPLER: _Sampler | None = None


def _stolen_ticks(stat_fd: int | None) -> float:
    """The guest's stolen time (all vCPUs) from ``/proc/stat``."""
    if stat_fd is None:
        return -1.0
    return float(os.pread(stat_fd, 256, 0).split(None, 9)[8])


def _probe(_signum, _frame) -> None:
    sampler = _SAMPLER
    if sampler is None or sampler.count >= CAPACITY:
        return
    start = perf_counter()
    used = process_time()
    cpu = thread_time()
    acc = 0
    for i in range(PROBE_LOOPS):
        acc += i * i % 7
    probe = thread_time() - cpu
    _RECORD.pack_into(sampler.buffer, sampler.count * _RECORD.size,
                      start, probe, used, _stolen_ticks(sampler.stat_fd))
    sampler.count += 1


def _arm() -> None:
    signal.signal(signal.SIGALRM, _probe)
    signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)


def _after_fork() -> None:
    # The child must not write into its parent's file; the parent
    # already records the stolen time.
    if _SAMPLER is not None:
        if _SAMPLER.stat_fd is not None:
            os.close(_SAMPLER.stat_fd)
            _SAMPLER.stat_fd = None
        _SAMPLER.open()
        _arm()


_FORK_HOOK = False


def start(directory) -> None:
    """Sample this process, and every child it forks, into ``directory``."""
    global _SAMPLER, _FORK_HOOK
    if _SAMPLER is not None:
        raise RuntimeError("the speed sampler is already running")
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    _SAMPLER = _Sampler(directory)
    if not _FORK_HOOK:
        os.register_at_fork(after_in_child=_after_fork)
        _FORK_HOOK = True
    _arm()


def stop() -> None:
    """Stop sampling this process (the samples stay in their file)."""
    global _SAMPLER
    signal.setitimer(signal.ITIMER_REAL, 0, 0)
    signal.signal(signal.SIGALRM, signal.SIG_DFL)
    if _SAMPLER is not None and _SAMPLER.stat_fd is not None:
        os.close(_SAMPLER.stat_fd)
    _SAMPLER = None


class Samples:
    """Every process's samples of one run, in time order.

    Each sample carries the speed its probe read and a weight: the CPU
    time its process spent on the program since its previous sample.  A
    process that waits (the parent of a pool, an idle worker) weighs
    nothing, so an interval's speed is that of the vCPUs that did its
    work, and the vCPU left working alone at the end of a parallel
    section sets it.

    The probe's CPU time does not include time the hypervisor gave the
    vCPU to another guest (the kernel accounts it as stolen), so the
    speed is also scaled by ``cpu / (cpu + stolen)``: the program's CPU
    time in the interval against that plus the guest's stolen time,
    which only a vCPU that has work to run can lose.
    """

    def __init__(self, times: np.ndarray, speeds: np.ndarray,
                 weights: np.ndarray, steal_times: np.ndarray,
                 stolen: np.ndarray) -> None:
        order = np.argsort(times, kind="stable")
        self.times = times[order]
        speeds, weights = speeds[order], weights[order]

        def cumulative(values):
            return np.concatenate(([0.0], np.cumsum(values)))

        self._speeds = cumulative(speeds)
        self._weights = cumulative(weights)
        self._weighted = cumulative(weights * speeds)
        order = np.argsort(steal_times, kind="stable")
        self._steal_times = steal_times[order]
        self._stolen = stolen[order]

    def __len__(self) -> int:
        return len(self.times)

    def stolen(self, start: float, end: float) -> float:
        """Seconds the guest's vCPUs lost to other guests in the
        interval (0 when it was not recorded)."""
        if len(self._steal_times) < 2:
            return 0.0
        at = np.interp((start, end), self._steal_times, self._stolen)
        return float(at[1] - at[0])

    def speed(self, start: float, end: float) -> float:
        """Mean relative speed over ``[start, end]`` (1.0 is nominal)."""
        count = len(self.times)
        if count == 0:
            raise ValueError("no speed samples were recorded")
        lo = int(np.searchsorted(self.times, start, side="left"))
        hi = int(np.searchsorted(self.times, end, side="right"))
        if hi - lo < MIN_SAMPLES:
            middle = int(np.searchsorted(self.times, (start + end) / 2.0))
            lo = max(0, min(middle - MIN_SAMPLES // 2,
                            count - MIN_SAMPLES))
            hi = min(count, lo + MIN_SAMPLES)
            start, end = self.times[lo], self.times[hi - 1]
        weight = self._weights[hi] - self._weights[lo]
        if weight <= 0.0:
            return float((self._speeds[hi] - self._speeds[lo]) / (hi - lo))
        speed = (self._weighted[hi] - self._weighted[lo]) / weight
        return float(speed * weight / (weight + self.stolen(start, end)))

    def normalised(self, start: float, end: float) -> float:
        """``end - start`` at the nominal speed, in seconds."""
        return (end - start) * self.speed(start, end)


def load(directory) -> Samples:
    """The samples every process wrote into ``directory``."""
    times, speeds, weights, steal_times, stolen = [], [], [], [], []
    for path in sorted(Path(directory).glob("speed-*.bin")):
        records = np.fromfile(path, dtype=np.float64).reshape(-1, 4)
        start, probe, used, ticks = records[records[:, 1] > 0.0].T
        if not len(start):
            continue
        # CPU time spent between two probes, less the earlier probe.
        spent = np.maximum(np.diff(used) - probe[:-1], 0.0)
        times.append(start)
        speeds.append(NOMINAL_PROBE_S / probe)
        weights.append(np.concatenate(([0.0], spent)))
        if ticks[0] >= 0.0:
            steal_times.append(start)
            stolen.append(ticks * _TICK_S)
    if not times:
        return Samples(*[np.empty(0)] * 5)
    return Samples(*[np.concatenate(parts) if parts else np.empty(0)
                     for parts in (times, speeds, weights, steal_times,
                                   stolen)])
