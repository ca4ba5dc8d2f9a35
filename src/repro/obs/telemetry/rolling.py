"""Rolling-window instruments: tail latency, rate, and SLO burn.

A :class:`RollingWindow` keeps the last ``window_s`` seconds of
``(time, latency, ok)`` observations in a deque, pruning the head on
every observation and on every read, so a window nobody reads still
holds one window's worth. On top of it, :class:`RollingTelemetry`
maintains one window per configured horizon (10s/1m/5m by default) and
publishes windowed p50/p95/p99/p999, requests-per-second, and
error-budget burn rate into a :class:`~repro.obs.registry.MetricsRegistry`
as gauges — the series ``repro-top`` renders live.

Every method takes the clock *as an argument*; nothing here reads a
clock of its own. The serve front end passes its event-loop time, the
simulation-side :class:`~repro.obs.telemetry.live.LiveTelemetry` passes
simulated seconds — either way the windows are pure observers and cannot
move an event-stream digest.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Deque, Mapping, Sequence, Tuple

from repro.errors import ConfigurationError
from repro.obs.registry import MetricsRegistry

__all__ = ["DEFAULT_WINDOWS", "RollingTelemetry", "RollingWindow"]

#: Default rolling horizons, in seconds (10s / 1m / 5m).
DEFAULT_WINDOWS: tuple[float, ...] = (10.0, 60.0, 300.0)

#: The tail quantiles published per window.
QUANTILES: tuple[float, ...] = (0.5, 0.95, 0.99, 0.999)


def _nearest_rank(ordered: Sequence[float], q: float) -> float:
    """Nearest-rank percentile of an already-sorted sequence."""
    if not ordered:
        return float("nan")
    rank = max(1, int(round(q * len(ordered) + 0.5)))
    return ordered[min(rank, len(ordered)) - 1]


class RollingWindow:
    """The last ``window_s`` seconds of (time, latency, ok) observations."""

    __slots__ = ("window_s", "_obs")

    def __init__(self, window_s: float) -> None:
        if window_s <= 0:
            raise ConfigurationError(f"window_s must be positive, got {window_s}")
        self.window_s = float(window_s)
        self._obs: Deque[Tuple[float, float, bool]] = deque()

    def observe(self, t: float, latency_s: float, ok: bool = True) -> None:
        """Fold one request outcome observed at time ``t``."""
        self.add((float(t), float(latency_s), bool(ok)))

    def add(self, entry: Tuple[float, float, bool]) -> None:
        """Fold a ready-made ``(t, latency_s, ok)`` entry, shared, not copied.

        Drops what a read at ``t`` would drop, so reads return what pruning
        on read alone would, as long as every read comes at or after the
        times already observed — or right after an observation at its time,
        as :class:`~repro.obs.telemetry.live.LiveTelemetry` reads.
        """
        obs = self._obs
        obs.append(entry)
        horizon = entry[0] - self.window_s
        while obs[0][0] < horizon:
            obs.popleft()

    def prune(self, now: float) -> None:
        """Drop observations older than ``now - window_s``."""
        horizon = now - self.window_s
        obs = self._obs
        while obs and obs[0][0] < horizon:
            obs.popleft()

    def count(self, now: float) -> int:
        """Observations inside the window at time ``now``."""
        self.prune(now)
        return len(self._obs)

    def rate(self, now: float) -> float:
        """Requests per second over the window at time ``now``."""
        self.prune(now)
        return len(self._obs) / self.window_s

    def percentile(self, now: float, q: float) -> float:
        """Nearest-rank latency quantile over the window (``nan`` if empty)."""
        self.prune(now)
        return _nearest_rank(sorted(o[1] for o in self._obs), q)

    def bad_fraction(self, now: float) -> float:
        """Fraction of in-window observations marked not-ok (0.0 if empty)."""
        self.prune(now)
        if not self._obs:
            return 0.0
        return sum(1 for o in self._obs if not o[2]) / len(self._obs)

    def burn_rate(self, now: float, error_budget: float) -> float:
        """SLO burn: bad fraction over budget (1.0 = burning exactly at budget)."""
        if error_budget <= 0:
            raise ConfigurationError(
                f"error_budget must be positive, got {error_budget}"
            )
        return self.bad_fraction(now) / error_budget


class RollingTelemetry:
    """One window per horizon, published as gauges under a name prefix.

    ``slo_latency_s`` marks a request *bad* when it either failed or ran
    past the latency objective; ``slo_error_budget`` is the tolerated bad
    fraction (burn rate 1.0 means the budget is being spent exactly as
    fast as it accrues).
    """

    __slots__ = ("windows", "slo_latency_s", "slo_error_budget", "prefix")

    def __init__(
        self,
        window_seconds: Sequence[float] = DEFAULT_WINDOWS,
        *,
        slo_latency_s: float = 0.5,
        slo_error_budget: float = 0.01,
        prefix: str = "serve",
    ) -> None:
        if not window_seconds:
            raise ConfigurationError("at least one rolling window is required")
        self.windows = {float(w): RollingWindow(w) for w in window_seconds}
        self.slo_latency_s = float(slo_latency_s)
        self.slo_error_budget = float(slo_error_budget)
        self.prefix = prefix

    def observe(self, t: float, latency_s: float, ok: bool = True) -> None:
        """Fold one request outcome into every window (one shared entry)."""
        entry = (float(t), float(latency_s), bool(ok and latency_s <= self.slo_latency_s))
        for window in self.windows.values():
            window.add(entry)

    def publish(self, registry: MetricsRegistry, now: float) -> None:
        """Refresh the rolling gauges in ``registry`` as of time ``now``."""
        latency = registry.gauge(f"{self.prefix}.rolling_latency_seconds")
        qps = registry.gauge(f"{self.prefix}.rolling_qps")
        burn = registry.gauge(f"{self.prefix}.slo_burn_rate")
        for seconds, window in sorted(self.windows.items()):
            label = f"{seconds:g}s"
            for q in QUANTILES:
                latency.set(
                    window.percentile(now, q), window=label, quantile=f"{q:g}"
                )
            qps.set(window.rate(now), window=label)
            burn.set(window.burn_rate(now, self.slo_error_budget), window=label)

    def as_dict(self, now: float) -> dict[str, Any]:
        """JSON-ready rendering of every window (for stats-style endpoints)."""
        out: dict[str, Any] = {
            "slo_latency_s": self.slo_latency_s,
            "slo_error_budget": self.slo_error_budget,
        }
        windows: dict[str, Mapping[str, float]] = {}
        for seconds, window in sorted(self.windows.items()):
            windows[f"{seconds:g}s"] = {
                "requests": float(window.count(now)),
                "qps": window.rate(now),
                **{
                    f"p{str(q)[2:].ljust(2, '0')}_s": window.percentile(now, q)
                    for q in QUANTILES
                },
                "burn_rate": window.burn_rate(now, self.slo_error_budget),
            }
        out["windows"] = windows
        return out
