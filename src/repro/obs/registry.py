"""A unified metrics registry over the repo's scattered instruments.

:mod:`repro.sim.monitor` grew four instrument types (``Counter``,
``WelfordStats``, ``HourlyBuckets``, ``TimeSeries``) that every subsystem
instantiates ad hoc; :class:`repro.gnutella.metrics.SimulationMetrics` holds
a fixed bundle of them plus bare ints. The registry puts one namespace over
all of it:

* **native instruments** — :meth:`MetricsRegistry.counter`,
  :meth:`~MetricsRegistry.gauge`, :meth:`~MetricsRegistry.histogram` create
  (or return, idempotently) named instruments supporting *labeled
  dimensions* (``registry.counter("queries").inc(scheme="dynamic")``);
* **adopted instruments** — :meth:`~MetricsRegistry.register` attaches an
  existing monitor object (or a zero-argument callable for computed values)
  under a name, so legacy code keeps its objects and the registry's
  snapshot still sees them;
* **one export** — :meth:`~MetricsRegistry.snapshot` renders everything as
  a sorted, JSON-ready dict.

Like the tracer, the registry only observes: it draws no RNG and schedules
nothing, so registering instruments cannot move an event-stream digest.
"""

from __future__ import annotations

import math
from typing import Any, Callable, Mapping

from repro.errors import ConfigurationError
from repro.sim.monitor import Counter, HourlyBuckets, TimeSeries, WelfordStats

__all__ = [
    "LabeledCounter",
    "LabeledGauge",
    "LabeledHistogram",
    "MetricsRegistry",
    "bind_simulation_metrics",
]

#: A label set rendered hashable and order-independent.
LabelKey = tuple[tuple[str, str], ...]

#: Default histogram bucket upper bounds (seconds-flavored, Prometheus-ish).
DEFAULT_BUCKETS: tuple[float, ...] = (
    0.001, 0.005, 0.01, 0.05, 0.1, 0.5, 1.0, 5.0, 10.0, 60.0,
)


def _label_key(labels: Mapping[str, Any]) -> LabelKey:
    # Zero or one label is the per-request case: nothing to sort.
    if not labels:
        return ()
    if len(labels) == 1:
        ((k, v),) = labels.items()
        return ((str(k), str(v)),)
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


def _label_str(key: LabelKey) -> str:
    """``((k, v), ...)`` -> ``"k=v,k2=v2"`` (empty key -> ``""``)."""
    return ",".join(f"{k}={v}" for k, v in key)


class LabeledCounter:
    """A named, monotonically increasing counter with label dimensions."""

    __slots__ = ("name", "_values")

    def __init__(self, name: str) -> None:
        self.name = name
        self._values: dict[LabelKey, float] = {}

    def inc(self, amount: float = 1.0, **labels: Any) -> None:
        """Add ``amount`` (>= 0) to the series selected by ``labels``."""
        if amount < 0:
            raise ValueError(f"counter {self.name!r}: amount must be >= 0, got {amount}")
        key = _label_key(labels)
        self._values[key] = self._values.get(key, 0.0) + amount

    def get(self, **labels: Any) -> float:
        """Current value of the labeled series (0.0 if never incremented)."""
        return self._values.get(_label_key(labels), 0.0)

    def snapshot(self) -> dict[str, Any]:
        return {
            "type": "counter",
            "values": {
                _label_str(key): value
                for key, value in sorted(self._values.items())
            },
        }


class LabeledGauge:
    """A named point-in-time value with label dimensions."""

    __slots__ = ("name", "_values")

    def __init__(self, name: str) -> None:
        self.name = name
        self._values: dict[LabelKey, float] = {}

    def set(self, value: float, **labels: Any) -> None:
        """Set the labeled series to ``value``."""
        self._values[_label_key(labels)] = float(value)

    def get(self, **labels: Any) -> float:
        """Current value (``nan`` if never set)."""
        return self._values.get(_label_key(labels), math.nan)

    def snapshot(self) -> dict[str, Any]:
        return {
            "type": "gauge",
            "values": {
                _label_str(key): value
                for key, value in sorted(self._values.items())
            },
        }


class _HistogramSeries:
    """One labeled series of a histogram: bucket counts + running moments."""

    __slots__ = ("counts", "stats", "sum")

    def __init__(self, n_buckets: int) -> None:
        # counts[i] tallies observations <= bounds[i]; the final slot is the
        # +inf overflow bucket.
        self.counts = [0] * (n_buckets + 1)
        self.stats = WelfordStats()
        self.sum = 0.0

    def observe(self, value: float, bounds: tuple[float, ...]) -> None:
        self.stats.add(value)
        self.sum += value
        for i, bound in enumerate(bounds):
            if value <= bound:
                self.counts[i] += 1
                return
        self.counts[-1] += 1


class LabeledHistogram:
    """A named histogram: fixed upper bounds plus Welford moments per series."""

    __slots__ = ("name", "bounds", "_series")

    def __init__(self, name: str, bounds: tuple[float, ...] = DEFAULT_BUCKETS) -> None:
        if not bounds or list(bounds) != sorted(bounds):
            raise ConfigurationError(
                f"histogram {name!r}: bucket bounds must be non-empty and ascending"
            )
        self.name = name
        self.bounds = tuple(float(b) for b in bounds)
        self._series: dict[LabelKey, _HistogramSeries] = {}

    def observe(self, value: float, **labels: Any) -> None:
        """Fold one observation into the labeled series."""
        key = _label_key(labels)
        series = self._series.get(key)
        if series is None:
            series = self._series[key] = _HistogramSeries(len(self.bounds))
        series.observe(float(value), self.bounds)

    def count(self, **labels: Any) -> int:
        """Observations folded into the labeled series so far."""
        series = self._series.get(_label_key(labels))
        return series.stats.count if series is not None else 0

    def sum(self, **labels: Any) -> float:
        """Sum of all observations in the labeled series (0.0 when empty)."""
        series = self._series.get(_label_key(labels))
        return series.sum if series is not None else 0.0

    def cumulative(self, **labels: Any) -> list[tuple[float, int]]:
        """Prometheus-style cumulative buckets: ``[(le, count<=le), ...]``.

        The final entry is always ``(inf, total_count)`` — the explicit
        ``+Inf`` bucket the exposition format requires — so the list has
        ``len(bounds) + 1`` entries even for an empty series.
        """
        series = self._series.get(_label_key(labels))
        counts = series.counts if series is not None else [0] * (len(self.bounds) + 1)
        out: list[tuple[float, int]] = []
        running = 0
        for bound, bucket in zip(self.bounds, counts):
            running += bucket
            out.append((bound, running))
        out.append((math.inf, running + counts[-1]))
        return out

    def snapshot(self) -> dict[str, Any]:
        out: dict[str, Any] = {"type": "histogram", "bounds": list(self.bounds)}
        values: dict[str, Any] = {}
        for key, series in sorted(self._series.items()):
            stats = series.stats
            values[_label_str(key)] = {
                "buckets": list(series.counts),
                "count": stats.count,
                "sum": series.sum,
                "mean": stats.mean,
                "std": stats.std,
                "min": stats.min,
                "max": stats.max,
            }
        out["values"] = values
        return out


def _snapshot_adopted(obj: Any) -> Any:
    """Render an adopted legacy instrument (or callable) JSON-ready."""
    if callable(obj):
        return {"type": "value", "value": obj()}
    if isinstance(obj, Counter):
        return {"type": "counter", "values": {"": float(obj.value)}}
    if isinstance(obj, WelfordStats):
        return {
            "type": "welford",
            "count": obj.count,
            "mean": obj.mean,
            "std": obj.std,
            "min": obj.min,
            "max": obj.max,
        }
    if isinstance(obj, HourlyBuckets):
        return {
            "type": "buckets",
            "width": obj.width,
            "counts": [int(c) for c in obj.counts],
        }
    if isinstance(obj, TimeSeries):
        return {
            "type": "timeseries",
            "times": list(obj.times),
            "values": list(obj.values),
        }
    raise ConfigurationError(
        f"cannot snapshot {type(obj).__name__}; register a monitor instrument "
        "or a zero-argument callable"
    )


class MetricsRegistry:
    """One namespace over native and adopted instruments.

    ``counter``/``gauge``/``histogram`` are get-or-create: asking twice for
    the same name returns the same instrument, asking for a name that exists
    as a different kind raises — silent shadowing is how metrics go missing.
    """

    __slots__ = ("_native", "_adopted")

    def __init__(self) -> None:
        self._native: dict[str, LabeledCounter | LabeledGauge | LabeledHistogram] = {}
        self._adopted: dict[str, Any] = {}

    # ------------------------------------------------------------------
    # Native instruments
    # ------------------------------------------------------------------
    def _get_or_create(self, name: str, kind: type, factory: Callable[[], Any]) -> Any:
        if name in self._adopted:
            raise ConfigurationError(f"metric {name!r} already registered (adopted)")
        existing = self._native.get(name)
        if existing is not None:
            if not isinstance(existing, kind):
                raise ConfigurationError(
                    f"metric {name!r} already exists as {type(existing).__name__}"
                )
            return existing
        instrument = factory()
        self._native[name] = instrument
        return instrument

    def counter(self, name: str) -> LabeledCounter:
        """Get or create the labeled counter ``name``."""
        return self._get_or_create(name, LabeledCounter, lambda: LabeledCounter(name))

    def gauge(self, name: str) -> LabeledGauge:
        """Get or create the labeled gauge ``name``."""
        return self._get_or_create(name, LabeledGauge, lambda: LabeledGauge(name))

    def histogram(
        self, name: str, bounds: tuple[float, ...] = DEFAULT_BUCKETS
    ) -> LabeledHistogram:
        """Get or create the labeled histogram ``name``."""
        return self._get_or_create(
            name, LabeledHistogram, lambda: LabeledHistogram(name, bounds)
        )

    # ------------------------------------------------------------------
    # Adoption of existing instruments
    # ------------------------------------------------------------------
    def register(self, name: str, instrument: Any) -> None:
        """Adopt an existing monitor instrument (or 0-arg callable) as ``name``."""
        if name in self._native or name in self._adopted:
            raise ConfigurationError(f"metric {name!r} already registered")
        if not callable(instrument) and not isinstance(
            instrument, (Counter, WelfordStats, HourlyBuckets, TimeSeries)
        ):
            raise ConfigurationError(
                f"metric {name!r}: unsupported instrument "
                f"{type(instrument).__name__}"
            )
        self._adopted[name] = instrument

    # ------------------------------------------------------------------
    # Introspection / export
    # ------------------------------------------------------------------
    def names(self) -> tuple[str, ...]:
        """Every registered metric name, sorted."""
        return tuple(sorted([*self._native, *self._adopted]))

    def __len__(self) -> int:
        return len(self._native) + len(self._adopted)

    def __contains__(self, name: str) -> bool:
        return name in self._native or name in self._adopted

    def snapshot(self) -> dict[str, Any]:
        """Every metric rendered JSON-ready, sorted by name."""
        out: dict[str, Any] = {}
        for name in self.names():
            if name in self._native:
                out[name] = self._native[name].snapshot()
            else:
                out[name] = _snapshot_adopted(self._adopted[name])
        return out


def bind_simulation_metrics(
    registry: MetricsRegistry, metrics: Any, prefix: str = "sim"
) -> None:
    """Adopt a :class:`~repro.gnutella.metrics.SimulationMetrics` bundle.

    Registers the hour-bucketed series and delay statistics as instruments
    and the bare integer tallies as computed values, so one
    ``registry.snapshot()`` exports the whole run the way the figures see
    it. ``prefix`` namespaces the entries (``sim.hits``, ``sim.logins`` ...).
    """
    registry.register(f"{prefix}.hits", metrics.hits)
    registry.register(f"{prefix}.messages", metrics.messages)
    registry.register(f"{prefix}.queries", metrics.queries)
    registry.register(f"{prefix}.first_result_delay", metrics.first_result_delay)
    for field in (
        "total_queries",
        "total_hits",
        "total_results",
        "reconfigurations",
        "invitations",
        "evictions",
        "exploration_messages",
        "logins",
        "logoffs",
    ):
        registry.register(
            f"{prefix}.{field}",
            (lambda m=metrics, f=field: getattr(m, f)),
        )
