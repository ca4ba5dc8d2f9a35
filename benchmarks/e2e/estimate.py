"""Estimators shared by the runner: pure functions, no ``repro`` imports.

The host this benchmark is gated on flips, in bursts of tens to hundreds of
milliseconds, between full speed and about 0.55 of it, whenever something
wants the sibling vCPU (README, "Noise on this host"). A single wall-clock
reading of a 3 s section therefore says how busy the host was, not how fast
the code is. Every timing here is built from *repetitions of identical work*
and keeps, slice by slice, the fastest one: interference only ever adds time
to a deterministic single-threaded section.
"""

# repro-lint: disable-file=R002 -- the benchmark is a wall-clock instrument

from __future__ import annotations

import resource
import statistics
import time
from typing import Sequence

__all__ = [
    "canary_ms",
    "highest_supported_percentile",
    "peak_rss_mb",
    "quartile_spread",
    "slice_min_sum",
    "slice_walls",
]

#: A percentile is reported only with at least this many samples beyond it.
MIN_SAMPLES_BEYOND = 10

#: Candidate tail percentiles, lowest first.
TAIL_PERCENTILES = (0.5, 0.9, 0.99, 0.999, 0.9999, 0.99999)

#: Iterations of the canary loop (about 0.1 s in this host's fast regime).
CANARY_ITERATIONS = 1_500_000


def slice_walls(marks: Sequence[float]) -> list[float]:
    """Wall time of each slice from its ``n + 1`` boundary timestamps."""
    return [b - a for a, b in zip(marks, marks[1:])]


def slice_min_sum(repetitions: Sequence[Sequence[float]]) -> float:
    """Sum over slices of the fastest repetition of that slice.

    ``repetitions[r][s]`` is the wall time repetition ``r`` spent on slice
    ``s``; all repetitions did identical work, slice by slice.
    """
    if not repetitions:
        raise ValueError("need at least one repetition")
    n_slices = len(repetitions[0])
    if n_slices == 0 or any(len(rep) != n_slices for rep in repetitions):
        raise ValueError("repetitions must have the same, non-zero, number of slices")
    return sum(min(rep[s] for rep in repetitions) for s in range(n_slices))


def highest_supported_percentile(n_samples: int) -> float:
    """The highest of :data:`TAIL_PERCENTILES` with >= 10 samples beyond it.

    0.0 when even the median is unsupported (fewer than 20 samples).
    """
    supported = [q for q in TAIL_PERCENTILES if round(n_samples * (1.0 - q), 9) >= MIN_SAMPLES_BEYOND]
    return max(supported, default=0.0)


def quartile_spread(values: Sequence[float]) -> float:
    """(Q3 - Q1) / median, the driver's steadiness measure."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def canary_ms() -> float:
    """Wall milliseconds of a fixed pure-Python loop: reported, never used to normalise."""
    started = time.perf_counter()
    acc = 0
    for i in range(CANARY_ITERATIONS):
        acc += i & 7
    return (time.perf_counter() - started) * 1e3


def peak_rss_mb() -> float:
    """This process's peak resident set in MiB (Linux: ``ru_maxrss`` is KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
