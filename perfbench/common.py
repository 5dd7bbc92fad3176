"""Shared pieces: thread caps, sample statistics, memory probes, results."""

from __future__ import annotations

import math
import os
import resource
import time
from statistics import median
from dataclasses import dataclass, field
from typing import Dict, List, Sequence

#: The benchmark caps every BLAS/OpenMP pool at one thread, before numpy is
#: imported, in its own process and every process it starts.  Load then
#: comes from at most two workers, connections or processes on a 2-CPU box,
#: and both commits of a comparison run under the same caps.
THREAD_CAP_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
THREAD_CAP = "1"

#: How many times set-up is repeated in one run; ``setup_s`` is the median.
SETUP_REPEATS = 3

RSS_METHOD = (
    "VmHWM from /proc/self/status after resetting it through "
    "/proc/self/clear_refs; getrusage ru_maxrss for child processes"
)


def apply_thread_caps() -> None:
    for name in THREAD_CAP_VARS:
        os.environ[name] = THREAD_CAP


def percentile(values: Sequence[float], pct: float) -> float:
    """Linear-interpolated percentile (numpy's default method)."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of no samples")
    position = (len(ordered) - 1) * pct / 100.0
    low = math.floor(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def tail_percentile(n: int, cap: float = 99.0) -> float:
    """The highest percentile with at least ten samples beyond it.

    With fewer than 20 samples no percentile above the median has ten
    samples beyond it; the tail is then p90 and the report says so.
    """
    if n >= 20:
        return min(cap, math.floor(100.0 * (n - 10) / n))
    return 90.0


def reset_peak_rss() -> None:
    """Reset this process's VmHWM; where the kernel refuses, the peak then
    covers the whole process lifetime."""
    try:
        with open("/proc/self/clear_refs", "w") as handle:
            handle.write("5")
    except OSError:
        pass


def peak_rss_mb() -> float:
    """This process's peak resident memory (since the last reset)."""
    try:
        with open("/proc/self/status") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def children_peak_rss_mb() -> float:
    """Largest peak resident memory of any waited-for child process."""
    return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0


@dataclass
class Outcome:
    """What one workload run measured, before it is printed."""

    correct: bool
    attempted: int
    failed: int
    metrics: Dict[str, float]
    #: Extra human-readable lines (sample counts, layer shares, notes).
    notes: List[str] = field(default_factory=list)


def run_timed(seconds: float, unit, min_units: int = 3) -> tuple:
    """Call ``unit(i)`` until ``seconds`` have passed (and at least
    ``min_units`` times); returns ``(walls, outputs, elapsed)``."""
    walls: List[float] = []
    outputs: list = []
    started = time.perf_counter()
    while len(walls) < min_units or time.perf_counter() - started < seconds:
        unit_started = time.perf_counter()
        outputs.append(unit(len(walls)))
        walls.append(time.perf_counter() - unit_started)
    return walls, outputs, time.perf_counter() - started


def timed_setup(setup) -> tuple:
    """Run ``setup()`` SETUP_REPEATS times; returns (median seconds, last state)."""
    seconds: List[float] = []
    state = None
    for _ in range(SETUP_REPEATS):
        if state is not None and hasattr(state, "close"):
            state.close()
        started = time.perf_counter()
        state = setup()
        seconds.append(time.perf_counter() - started)
    return median(seconds), state
