"""Measurement utilities: counters, running statistics, time series, and the
hourly bucketing the paper's figures are built from.

These are deliberately independent of the kernel so the fast (non-kernel)
Gnutella engine can reuse them; they only need to be *told* the time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

__all__ = ["Counter", "HourlyBuckets", "TimeSeries", "WelfordStats"]


@dataclass(slots=True)
class Counter:
    """A named monotonically increasing counter."""

    name: str
    value: int = 0

    def increment(self, amount: int = 1) -> None:
        """Add ``amount`` (must be non-negative) to the counter."""
        if amount < 0:
            raise ValueError(f"Counter.increment expects amount >= 0, got {amount}")
        self.value += amount

    def reset(self) -> None:
        """Reset the counter to zero."""
        self.value = 0


class WelfordStats:
    """Numerically stable running mean/variance (Welford's algorithm).

    Used for delay statistics where millions of samples would make a naive
    sum-of-squares accumulator lose precision.
    """

    __slots__ = ("count", "_mean", "_m2", "min", "max")

    def __init__(self) -> None:
        self.count = 0
        self._mean = 0.0
        self._m2 = 0.0
        self.min = math.inf
        self.max = -math.inf

    def add(self, x: float) -> None:
        """Fold one sample into the running statistics."""
        self.count += 1
        delta = x - self._mean
        self._mean += delta / self.count
        self._m2 += delta * (x - self._mean)
        if x < self.min:
            self.min = x
        if x > self.max:
            self.max = x

    @property
    def mean(self) -> float:
        """Sample mean; ``nan`` with no samples."""
        return self._mean if self.count else math.nan

    @property
    def variance(self) -> float:
        """Unbiased sample variance; ``nan`` with fewer than two samples."""
        if self.count < 2:
            return math.nan
        return self._m2 / (self.count - 1)

    @property
    def std(self) -> float:
        """Unbiased sample standard deviation."""
        v = self.variance
        return math.sqrt(v) if not math.isnan(v) else math.nan

    def merge(self, other: "WelfordStats") -> None:
        """Fold another accumulator into this one (parallel Welford merge)."""
        if other.count == 0:
            return
        if self.count == 0:
            self.count = other.count
            self._mean = other._mean
            self._m2 = other._m2
            self.min = other.min
            self.max = other.max
            return
        total = self.count + other.count
        delta = other._mean - self._mean
        self._m2 += other._m2 + delta * delta * self.count * other.count / total
        self._mean += delta * other.count / total
        self.count = total
        self.min = min(self.min, other.min)
        self.max = max(self.max, other.max)


@dataclass(slots=True)
class TimeSeries:
    """An append-only sequence of ``(time, value)`` observations."""

    name: str
    times: list[float] = field(default_factory=list)
    values: list[float] = field(default_factory=list)

    def record(self, time: float, value: float) -> None:
        """Append one observation. Times must be non-decreasing."""
        if self.times and time < self.times[-1]:
            raise ValueError(
                f"TimeSeries '{self.name}': time went backwards "
                f"({time} < {self.times[-1]})"
            )
        self.times.append(time)
        self.values.append(value)

    def __len__(self) -> int:
        return len(self.times)

    def as_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """Return ``(times, values)`` as float arrays."""
        return np.asarray(self.times, dtype=float), np.asarray(self.values, dtype=float)


class HourlyBuckets:
    """Accumulate event counts into fixed-width time buckets.

    The paper's Figures 1 and 2 plot per-hour totals (hits, messages); this is
    the accumulator that produces those series. Bucket width defaults to one
    hour but is configurable so scaled-down experiments can keep the same
    number of plotted points.
    """

    def __init__(self, horizon: float, width: float = 3600.0) -> None:
        if horizon <= 0 or width <= 0:
            raise ValueError("horizon and width must be positive")
        self.width = float(width)
        self.n_buckets = int(math.ceil(horizon / width))
        # Plain ints while accumulating (an ndarray element update per event
        # costs several list updates); int64 arrays on read, as ever.
        self._counts = [0] * self.n_buckets

    def add(self, time: float, amount: int = 1) -> None:
        """Add ``amount`` to the bucket containing ``time``.

        Events beyond the horizon are folded into the last bucket (the run
        loop may execute a final event exactly at the horizon).
        """
        if time < 0:
            raise ValueError(f"negative time {time!r}")
        idx = int(time / self.width)
        if idx >= self.n_buckets:
            idx = self.n_buckets - 1
        self._counts[idx] += amount

    @property
    def counts(self) -> np.ndarray:
        """Copy of the per-bucket totals."""
        return np.array(self._counts, dtype=np.int64)

    def bucket_starts(self) -> np.ndarray:
        """Start time of each bucket, in the same unit as ``width``."""
        return np.arange(self.n_buckets, dtype=float) * self.width

    def series(self, skip: int = 0) -> tuple[np.ndarray, np.ndarray]:
        """Return ``(bucket_index, counts)`` skipping the first ``skip`` buckets.

        The paper discards the first 12 hours as warm-up; pass ``skip=12`` (in
        buckets) to match.
        """
        if skip < 0 or skip > self.n_buckets:
            raise ValueError(f"skip must be in [0, {self.n_buckets}], got {skip}")
        idx = np.arange(skip, self.n_buckets, dtype=int)
        return idx, np.array(self._counts[skip:], dtype=np.int64)

    def total(self, skip: int = 0) -> int:
        """Sum of all buckets from ``skip`` onward."""
        return sum(self._counts[skip:])
