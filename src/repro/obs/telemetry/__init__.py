"""Live telemetry plane over :class:`repro.obs.registry.MetricsRegistry`.

Four pieces, all pure observation (no RNG draws, no kernel events — so
turning any of them on leaves event-stream digests bit-identical):

* :mod:`~repro.obs.telemetry.exposition` — Prometheus text-format v0.0.4
  rendering of registry snapshots, plus the minimal parser the tests and
  CI scrape validation use;
* :mod:`~repro.obs.telemetry.rolling` — windowed tail latencies, request
  rate, and SLO burn-rate over configurable rolling windows;
* :mod:`~repro.obs.telemetry.accesslog` — sampled structured access logs,
  one JSON line per admitted request, with deterministic hash-based
  sampling;
* :mod:`~repro.obs.telemetry.aggregate` — merge-able registry snapshots
  with well-defined per-type merge semantics, the mechanism multi-process
  runs use to report as one system.

Supporting cast: :mod:`~repro.obs.telemetry.httpd` (stdlib ``http.server``
exposition sidecar for non-serve runs; import it from there, so a run that
starts no sidecar never loads ``http.server``), :mod:`~repro.obs.telemetry.live`
(a tracer subclass feeding rolling windows + access log from query spans),
and :mod:`~repro.obs.telemetry.top` (the ``repro-top`` dashboard CLI).
"""

from repro.obs.telemetry.accesslog import ACCESS_LOG_SCHEMA, AccessLogger, sampled_in
from repro.obs.telemetry.aggregate import merge_snapshots
from repro.obs.telemetry.exposition import parse_prometheus, render_prometheus
from repro.obs.telemetry.live import LiveTelemetry
from repro.obs.telemetry.rolling import RollingTelemetry, RollingWindow

__all__ = [
    "ACCESS_LOG_SCHEMA",
    "AccessLogger",
    "LiveTelemetry",
    "RollingTelemetry",
    "RollingWindow",
    "merge_snapshots",
    "parse_prometheus",
    "render_prometheus",
    "sampled_in",
]
