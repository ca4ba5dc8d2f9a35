"""One-call traced simulation runs (the ``repro-trace record`` backend).

Ties the pieces together: build an engine with a live :class:`~repro.obs.
trace.Tracer` attached, hash its event stream (so every recording doubles
as a digest-equality check against untraced runs), bind its metrics into a
:class:`~repro.obs.registry.MetricsRegistry`, optionally attach a
:class:`~repro.obs.topology.TopologySnapshotter`, and time the setup / run /
teardown phases.

:func:`record_run_dir` is the durable variant: it lays one run out as a
*record directory* — ``trace.jsonl``, ``topology.jsonl``, ``metrics.json``,
``summary.json`` — which is the input format of ``repro-report``
(:mod:`repro.obs.report`). The trace and topology streams are flushed even
when the engine crashes mid-run, so a partial record still parses.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Any

from repro.obs.profile import PhaseTimers
from repro.obs.registry import MetricsRegistry, bind_simulation_metrics
from repro.obs.telemetry.accesslog import AccessLogger
from repro.obs.telemetry.exposition import render_prometheus
from repro.obs.telemetry.httpd import TelemetrySidecar
from repro.obs.telemetry.live import LiveTelemetry
from repro.obs.telemetry.rolling import RollingTelemetry
from repro.obs.topology import TopologySnapshotter
from repro.obs.trace import Tracer

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.gnutella.config import GnutellaConfig
    from repro.gnutella.simulation import SimulationResult

__all__ = ["RecordedRun", "record_run", "record_run_dir"]


@dataclass(frozen=True)
class RecordedRun:
    """Everything one traced run produced."""

    result: "SimulationResult"
    tracer: Tracer
    registry: MetricsRegistry
    timers: PhaseTimers
    event_digest: str | None
    #: Present when the run was recorded with ``topology_interval`` set.
    topology: TopologySnapshotter | None = None
    #: Bound exposition-sidecar port when ``telemetry_port`` was requested.
    telemetry_port: int | None = None
    #: Access-log lines written when access logging was enabled.
    access_log_lines: int | None = None

    def summary(self) -> dict[str, Any]:
        """Headline numbers for reporting: trace, phases, run outcome."""
        metrics = self.result.metrics
        out: dict[str, Any] = {
            "trace": self.tracer.summary(),
            "phases": self.timers.as_dict(),
            "event_digest": self.event_digest,
            "run": {
                "scheme": self.result.scheme,
                "total_queries": metrics.total_queries,
                "total_hits": metrics.total_hits,
                "hit_rate": metrics.hit_rate(),
            },
            "convergence": self.result.convergence,
        }
        if self.topology is not None:
            out["topology_snapshots"] = len(self.topology.snapshots)
        if self.telemetry_port is not None:
            out["telemetry_port"] = self.telemetry_port
        if self.access_log_lines is not None:
            out["access_log_lines"] = self.access_log_lines
        return out


def _build_recorder(
    config: "GnutellaConfig",
    engine: str,
    tracer: Tracer | None,
    topology_interval: float | None,
    registry: MetricsRegistry | None = None,
) -> tuple[Any, Tracer, MetricsRegistry, PhaseTimers, TopologySnapshotter | None]:
    """Shared setup: engine + tracer + registry + timers (+ snapshotter)."""
    from repro.gnutella.simulation import build_engine

    trace = tracer if tracer is not None else Tracer()
    registry = registry if registry is not None else MetricsRegistry()
    timers = PhaseTimers()
    with timers.phase("engine.setup"):
        eng = build_engine(config, engine, trace=trace)
    bind_simulation_metrics(registry, eng.metrics)
    snapshotter = None
    if topology_interval is not None:
        snapshotter = TopologySnapshotter(eng, topology_interval, registry)
    return eng, trace, registry, timers, snapshotter


def _live_tracer(
    registry: MetricsRegistry,
    access_log: str | Path | None,
    access_log_sample: float,
) -> tuple[LiveTelemetry, AccessLogger | None]:
    """A telemetry-feeding tracer (rolling windows over simulated seconds)."""
    logger = (
        AccessLogger(access_log, sample=access_log_sample)
        if access_log is not None
        else None
    )
    tracer = LiveTelemetry(
        registry, rolling=RollingTelemetry(), access_log=logger
    )
    return tracer, logger


def record_run(
    config: "GnutellaConfig",
    engine: str = "fast",
    *,
    tracer: Tracer | None = None,
    hash_events: bool = True,
    topology_interval: float | None = None,
    telemetry_port: int | None = None,
    access_log: str | Path | None = None,
    access_log_sample: float = 1.0,
) -> RecordedRun:
    """Run one simulation with tracing, phase timing, and metrics bound.

    Returns a :class:`RecordedRun`; ``event_digest`` is the event-stream
    SHA-256 (``None`` when ``hash_events`` is false). Because tracing and
    the optional topology snapshotter only observe, the digest equals the
    one a plain run of the same config produces — the equality
    ``tests/gnutella/test_trace_digest.py`` and the CI obs-smoke job assert.

    ``topology_interval`` (simulated seconds) attaches a
    :class:`~repro.obs.topology.TopologySnapshotter`; its snapshots land on
    the returned record's ``topology`` and its series in the registry.

    ``telemetry_port`` serves live Prometheus exposition from an HTTP
    sidecar for the duration of the run (0 = ephemeral; the bound port is
    on the returned record); ``access_log`` writes sampled structured
    access-log lines derived from query spans. Either option upgrades the
    default tracer to :class:`~repro.obs.telemetry.live.LiveTelemetry` —
    still pure observation, so the digest guarantee holds unchanged.
    """
    from repro.gnutella.simulation import summarize

    registry = MetricsRegistry()
    logger: AccessLogger | None = None
    if tracer is None and (telemetry_port is not None or access_log is not None):
        tracer, logger = _live_tracer(registry, access_log, access_log_sample)
    eng, trace, registry, timers, snapshotter = _build_recorder(
        config, engine, tracer, topology_interval, registry
    )
    digest = None
    if hash_events:
        from repro.lint.sanitize import attach_hasher

        hasher = attach_hasher(eng.sim)
    sidecar: TelemetrySidecar | None = None
    bound_port: int | None = None
    if telemetry_port is not None:
        sidecar = TelemetrySidecar(
            lambda: render_prometheus(registry.snapshot()), port=telemetry_port
        )
        bound_port = sidecar.start()
    try:
        with timers.phase("engine.run"):
            eng.run()
    finally:
        if sidecar is not None:
            sidecar.stop()
        if logger is not None:
            logger.flush()
    if hash_events:
        digest = hasher.hexdigest()
    with timers.phase("engine.teardown"):
        result = summarize(eng)
    if logger is not None:
        logger.close()
    return RecordedRun(
        result=result,
        tracer=trace,
        registry=registry,
        timers=timers,
        event_digest=digest,
        topology=snapshotter,
        telemetry_port=bound_port,
        access_log_lines=logger.written if logger is not None else None,
    )


def record_run_dir(
    config: "GnutellaConfig",
    out_dir: str | Path,
    engine: str = "fast",
    *,
    hash_events: bool = True,
    topology_interval: float | None = None,
    telemetry_port: int | None = None,
    access_log: str | Path | None = None,
    access_log_sample: float = 1.0,
) -> dict[str, Any]:
    """Run one recorded simulation and lay it out as a record directory.

    Writes into ``out_dir``:

    * ``trace.jsonl`` — the full event trace (flushed even on a mid-run
      crash, so a partial record still parses line by line);
    * ``topology.jsonl`` — one overlay snapshot per line (when
      ``topology_interval`` is set);
    * ``metrics.json`` — the metrics-registry snapshot;
    * ``summary.json`` — config, headline outcome, convergence report,
      phase timings, and the hourly series the report charts are drawn
      from;
    * ``access.jsonl`` — sampled structured access-log lines (when
      ``access_log`` is set; relative paths land inside ``out_dir``).

    ``telemetry_port`` additionally serves live exposition from an HTTP
    sidecar while the run executes (0 = ephemeral).

    Returns the ``summary.json`` document (with a ``files`` block naming
    what was written). This directory is what ``repro-report`` renders.
    """
    from repro.analysis.export import result_to_jsonable
    from repro.gnutella.simulation import summarize

    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    registry = MetricsRegistry()
    tracer: Tracer | None = None
    logger: AccessLogger | None = None
    access_path: Path | None = None
    if telemetry_port is not None or access_log is not None:
        if access_log is not None:
            access_path = Path(access_log)
            if not access_path.is_absolute():
                access_path = out / access_path
        tracer, logger = _live_tracer(registry, access_path, access_log_sample)
    eng, trace, registry, timers, snapshotter = _build_recorder(
        config, engine, tracer, topology_interval, registry
    )
    digest = None
    if hash_events:
        from repro.lint.sanitize import attach_hasher

        hasher = attach_hasher(eng.sim)
    sidecar: TelemetrySidecar | None = None
    bound_port: int | None = None
    if telemetry_port is not None:
        sidecar = TelemetrySidecar(
            lambda: render_prometheus(registry.snapshot()), port=telemetry_port
        )
        bound_port = sidecar.start()
    try:
        with timers.phase("engine.run"), trace.flushed(out / "trace.jsonl"):
            eng.run()
    finally:
        # Crash-safe like the trace: whatever snapshots exist are written.
        if snapshotter is not None:
            snapshotter.write_jsonl(out / "topology.jsonl")
        if sidecar is not None:
            sidecar.stop()
        if logger is not None:
            logger.close()
    if hash_events:
        digest = hasher.hexdigest()
    with timers.phase("engine.teardown"):
        result = summarize(eng)
    metrics = result.metrics
    hours, recall = metrics.recall_series(0)
    _, hits = metrics.hits_series(0)
    _, queries = metrics.queries.series(skip=0)
    _, messages = metrics.messages_series(0)
    _, reconfigs = metrics.reconfigurations_series(0)
    files = ["summary.json", "metrics.json", "trace.jsonl"]
    if snapshotter is not None:
        files.append("topology.jsonl")
    if access_path is not None:
        try:
            files.append(str(access_path.relative_to(out)))
        except ValueError:
            files.append(str(access_path))
    summary: dict[str, Any] = {
        "engine": engine,
        "config": result_to_jsonable(config),
        "event_digest": digest,
        "trace": trace.summary(),
        "phases": timers.as_dict(),
        "run": {
            "scheme": result.scheme,
            "total_queries": metrics.total_queries,
            "total_hits": metrics.total_hits,
            "hit_rate": metrics.hit_rate(),
            "taste_clustering": result.taste_clustering,
            "mean_degree": result.mean_degree,
            "reconfigurations": metrics.reconfigurations,
        },
        "convergence": result.convergence,
        "telemetry": {
            "port": bound_port,
            "access_log": str(access_path) if access_path is not None else None,
            "access_log_lines": logger.written if logger is not None else None,
        },
        "series": {
            "hours": [int(h) for h in hours],
            "hits": [int(v) for v in hits],
            "queries": [int(v) for v in queries],
            "messages": [int(v) for v in messages],
            "reconfigs": [int(v) for v in reconfigs],
            "recall": [float(v) for v in recall],
        },
        "files": sorted(files),
    }
    (out / "metrics.json").write_text(
        json.dumps(registry.snapshot(), indent=2, sort_keys=True), encoding="utf-8"
    )
    (out / "summary.json").write_text(
        json.dumps(summary, indent=2, sort_keys=True), encoding="utf-8"
    )
    return summary
