"""Measurement helpers shared by the workloads: percentiles, CPU, memory,
host speed.

CPU time and peak memory cover the benchmark process *and* its child
processes, live or reaped, so work moved into another process still shows.
"""

from __future__ import annotations

import os
import resource
import time
from pathlib import Path
from typing import Dict, Iterable, List, Sequence

import numpy as np
import scipy.sparse

_PROC = Path("/proc")


def percentile(values: Sequence[float], q: float) -> float:
    """Linear-interpolation percentile of ``values`` (``q`` in 0..100); 0 if empty."""
    if not values:
        return 0.0
    return float(np.percentile(np.asarray(values, dtype=np.float64), q))


def _live_children(pid: int) -> List[int]:
    """Every live descendant of ``pid`` (empty where ``/proc`` is unavailable)."""
    found: List[int] = []
    pending = [pid]
    while pending:
        parent = pending.pop()
        try:
            tasks = list((_PROC / str(parent) / "task").iterdir())
        except OSError:
            continue
        for task in tasks:
            try:
                text = (task / "children").read_text()
            except OSError:
                continue
            for child in text.split():
                found.append(int(child))
                pending.append(int(child))
    return found


def _child_cpu_seconds(pid: int) -> float:
    try:
        fields = (_PROC / str(pid) / "stat").read_text().rsplit(")", 1)[1].split()
    except OSError:
        return 0.0
    # Fields after the command name start at field 3 (state); utime and
    # stime are fields 14 and 15 of stat(5).
    return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")


def _child_peak_rss_mb(pid: int) -> float:
    try:
        for line in (_PROC / str(pid) / "status").read_text().splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return 0.0


def cpu_seconds() -> float:
    """CPU seconds used so far by this process and all of its children."""
    times = os.times()
    total = times.user + times.system + times.children_user + times.children_system
    return total + sum(_child_cpu_seconds(pid) for pid in _live_children(os.getpid()))


def peak_rss_mb() -> float:
    """Peak resident memory of this process plus its children, in MiB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    reaped = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0
    live = sum(_child_peak_rss_mb(pid) for pid in _live_children(os.getpid()))
    return own + reaped + live


def host_ticks() -> List[int]:
    """Host-wide CPU ticks from ``/proc/stat`` (empty where unavailable)."""
    try:
        with open(_PROC / "stat") as stat:
            return [int(field) for field in stat.readline().split()[1:]]
    except OSError:
        return []


def stolen_share(start: Sequence[int], end: Sequence[int]) -> float:
    """Share of the CPUs' busy time stolen between two :func:`host_ticks` readings.

    Steal is time the hypervisor ran another guest while this machine's CPUs
    wanted to run.  It stretches wall-clock time but not CPU time, and an
    idle CPU accrues none, so it is taken as a share of busy plus stolen
    ticks.
    """
    ticks = [after - before for before, after in zip(start, end)]
    if len(ticks) < 8:
        return 0.0
    # user nice system idle iowait irq softirq steal; guest time is already
    # inside user and nice.
    busy = ticks[0] + ticks[1] + ticks[2] + ticks[5] + ticks[6]
    return ticks[7] / (busy + ticks[7]) if busy + ticks[7] else 0.0


class Phase:
    """Wall and CPU clock of one timed phase, plus the host's steal share."""

    def __init__(self) -> None:
        self.ticks_start = host_ticks()
        self.wall_start = time.perf_counter()
        self.cpu_start = cpu_seconds()
        self.wall = 0.0
        self.cpu = 0.0
        self.steal_share = 0.0

    def stop(self) -> "Phase":
        self.wall = time.perf_counter() - self.wall_start
        self.cpu = cpu_seconds() - self.cpu_start
        self.steal_share = stolen_share(self.ticks_start, host_ticks())
        return self


#: Thread CPU time of one calibration kernel on the reference host, in ms.
#: Timings are reported as they would read on a host that runs the kernel in
#: exactly this time.
CALIBRATION_REFERENCE_MS = 2.0


class HostSpeed:
    """Host-speed calibration: a fixed kernel timed next to the measured work.

    On a shared 2-core VM the same code runs at speeds that move by tens of
    percent within a minute, with no steal recorded (a fixed Python loop took
    16 to 25 ms in one minute).  The kernel, some interpreter work and a few
    sparse mat-vecs like the ranking kernels', runs on the client thread
    between requests, while the platform is idle.  Scaling a duration by
    ``CALIBRATION_REFERENCE_MS / kernel time`` measured next to it removes
    most of that drift.  The kernel is timed in thread CPU time, so the
    program's own threads, busy or not, cannot change the scale; steal does
    not reach thread CPU time either, and is taken out with
    :func:`stolen_share` instead.
    """

    def __init__(self) -> None:
        rng = np.random.default_rng(20240101)
        size = 10_000
        self.matrix = scipy.sparse.random(size, size, density=6 / size, random_state=rng,
                                          format="csr")
        self.vector = np.ones(size)
        self.cpu_ms = 0.0

    def measure(self) -> float:
        """Run the kernel once; return its thread CPU time in ms."""
        started = time.thread_time()
        total = 0
        for step in range(10_000):
            total += step * step % 7
        vector = self.vector
        for _ in range(6):
            vector = self.matrix @ vector
        elapsed = (time.thread_time() - started) * 1e3
        self.cpu_ms += elapsed
        return elapsed

    @staticmethod
    def scale(readings: Sequence[float]) -> float:
        """Factor that turns CPU time measured next to ``readings`` into reference time."""
        return CALIBRATION_REFERENCE_MS / float(np.median(readings))

    @classmethod
    def wall_scale(cls, readings: Sequence[float], start: Sequence[int],
                   end: Sequence[int]) -> float:
        """Factor for a wall-clock duration between two :func:`host_ticks` readings."""
        return cls.scale(readings) * (1.0 - stolen_share(start, end))


def metric(value: float, unit: str) -> Dict[str, object]:
    return {"value": float(value), "unit": unit}


def summarise(values: Iterable[float]) -> Dict[str, float]:
    """Median and p90 of a sample, with its count (for the run record)."""
    values = list(values)
    return {
        "n": len(values),
        "p50": percentile(values, 50),
        "p90": percentile(values, 90),
    }
