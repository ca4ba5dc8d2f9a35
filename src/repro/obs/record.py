"""One-call traced simulation runs (the ``repro-trace record`` backend).

Ties the pieces together: build an engine with a live :class:`~repro.obs.
trace.Tracer` attached, hash its event stream (so every recording doubles
as a digest-equality check against untraced runs), bind its metrics into a
:class:`~repro.obs.registry.MetricsRegistry`, optionally attach a
:class:`~repro.obs.topology.TopologySnapshotter`, and time the setup / run /
teardown phases.

With ``record_dir`` set, :func:`record_run` also lays the run out as a
*record directory* — ``trace.jsonl``, ``topology.jsonl``, ``metrics.json``,
``summary.json`` — which is the input format of ``repro-report``
(:mod:`repro.obs.report`). The trace and topology streams are flushed even
when the engine crashes mid-run, so a partial record still parses.
"""

from __future__ import annotations

import json
from contextlib import nullcontext
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Any

from repro.obs.profile import PhaseTimers
from repro.obs.registry import MetricsRegistry, bind_simulation_metrics
from repro.obs.telemetry.accesslog import AccessLogger
from repro.obs.telemetry.exposition import render_prometheus
from repro.obs.telemetry.live import LiveTelemetry
from repro.obs.telemetry.rolling import RollingTelemetry
from repro.obs.topology import TopologySnapshotter
from repro.obs.trace import Tracer

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.gnutella.config import GnutellaConfig
    from repro.gnutella.simulation import SimulationResult
    from repro.lint.sanitize import EventStreamHasher
    from repro.obs.telemetry.httpd import TelemetrySidecar

__all__ = ["RecordedRun", "record_run"]


@dataclass(frozen=True)
class RecordedRun:
    """Everything one traced run produced."""

    result: "SimulationResult"
    engine: str
    tracer: Tracer
    registry: MetricsRegistry
    timers: PhaseTimers
    event_digest: str | None
    #: Present when the run was recorded with ``topology_interval`` set.
    topology: TopologySnapshotter | None = None
    #: Bound exposition-sidecar port when ``telemetry_port`` was requested.
    telemetry_port: int | None = None
    #: Where the access log went, when access logging was enabled.
    access_log: Path | None = None
    #: Access-log lines written when access logging was enabled.
    access_log_lines: int | None = None
    #: The record directory the run was laid out in, if any.
    record_dir: Path | None = None

    def _files(self) -> list[str]:
        """What the run wrote, relative to ``record_dir`` where inside it."""
        files: list[str] = []
        if self.record_dir is not None:
            files += ["summary.json", "metrics.json", "trace.jsonl"]
            if self.topology is not None:
                files.append("topology.jsonl")
        log = self.access_log
        if log is not None:
            if self.record_dir is not None and log.is_relative_to(self.record_dir):
                log = log.relative_to(self.record_dir)
            files.append(str(log))
        return sorted(files)

    def summary(self) -> dict[str, Any]:
        """The run's headline document — what ``summary.json`` holds.

        Config, outcome, convergence report, trace counts, phase timings,
        telemetry, and the hourly series the report charts are drawn from.
        """
        from repro.analysis.export import result_to_jsonable

        result = self.result
        metrics = result.metrics
        hours, recall = metrics.recall_series(0)
        _, hits = metrics.hits_series(0)
        _, queries = metrics.queries.series(skip=0)
        _, messages = metrics.messages_series(0)
        _, reconfigs = metrics.reconfigurations_series(0)
        return {
            "engine": self.engine,
            "config": result_to_jsonable(result.config),
            "event_digest": self.event_digest,
            "trace": self.tracer.summary(),
            "phases": self.timers.as_dict(),
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
                "port": self.telemetry_port,
                "access_log": None if self.access_log is None else str(self.access_log),
                "access_log_lines": self.access_log_lines,
            },
            "series": {
                "hours": [int(h) for h in hours],
                "hits": [int(v) for v in hits],
                "queries": [int(v) for v in queries],
                "messages": [int(v) for v in messages],
                "reconfigs": [int(v) for v in reconfigs],
                "recall": [float(v) for v in recall],
            },
            "files": self._files(),
        }


def record_run(
    config: "GnutellaConfig",
    engine: str = "fast",
    *,
    record_dir: str | Path | None = None,
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
    tracer to :class:`~repro.obs.telemetry.live.LiveTelemetry` — still pure
    observation, so the digest guarantee holds unchanged.

    ``record_dir`` lays the run out as a record directory:

    * ``trace.jsonl`` — the full event trace (flushed even on a mid-run
      crash, so a partial record still parses line by line);
    * ``topology.jsonl`` — one overlay snapshot per line (when
      ``topology_interval`` is set; also written on a crash);
    * ``metrics.json`` — the metrics-registry snapshot;
    * ``summary.json`` — :meth:`RecordedRun.summary`;
    * the access log, when set (relative paths land inside the directory).

    This directory is what ``repro-report`` renders.
    """
    from repro.gnutella.simulation import build_engine, summarize

    out = Path(record_dir) if record_dir is not None else None
    access_path = Path(access_log) if access_log is not None else None
    if out is not None:
        out.mkdir(parents=True, exist_ok=True)
        if access_path is not None and not access_path.is_absolute():
            access_path = out / access_path
    registry = MetricsRegistry()
    logger: AccessLogger | None = None
    tracer: Tracer
    if telemetry_port is not None or access_path is not None:
        if access_path is not None:
            logger = AccessLogger(access_path, sample=access_log_sample)
        tracer = LiveTelemetry(registry, rolling=RollingTelemetry(), access_log=logger)
    else:
        tracer = Tracer()
    timers = PhaseTimers()
    snapshotter: TopologySnapshotter | None = None
    hasher: EventStreamHasher | None = None
    sidecar: TelemetrySidecar | None = None
    bound_port: int | None = None
    try:
        with timers.phase("engine.setup"):
            eng = build_engine(config, engine, trace=tracer)
        bind_simulation_metrics(registry, eng.metrics)
        if topology_interval is not None:
            snapshotter = TopologySnapshotter(eng, topology_interval, registry)
        if hash_events:
            from repro.lint.sanitize import attach_hasher

            hasher = attach_hasher(eng.sim)
        if telemetry_port is not None:
            from repro.obs.telemetry.httpd import TelemetrySidecar

            sidecar = TelemetrySidecar(
                lambda: render_prometheus(registry.snapshot()), port=telemetry_port
            )
            bound_port = sidecar.start()
        flushed = tracer.flushed(out / "trace.jsonl") if out is not None else nullcontext()
        with timers.phase("engine.run"), flushed:
            eng.run()
    finally:
        # Crash-safe like the trace: whatever snapshots exist are written.
        if snapshotter is not None and out is not None:
            snapshotter.write_jsonl(out / "topology.jsonl")
        if sidecar is not None:
            sidecar.stop()
        if logger is not None:
            logger.close()
    with timers.phase("engine.teardown"):
        result = summarize(eng)
    recorded = RecordedRun(
        result=result,
        engine=engine,
        tracer=tracer,
        registry=registry,
        timers=timers,
        event_digest=hasher.hexdigest() if hasher is not None else None,
        topology=snapshotter,
        telemetry_port=bound_port,
        access_log=access_path,
        access_log_lines=logger.written if logger is not None else None,
        record_dir=out,
    )
    if out is not None:
        (out / "metrics.json").write_text(
            json.dumps(registry.snapshot(), indent=2, sort_keys=True), encoding="utf-8"
        )
        (out / "summary.json").write_text(
            json.dumps(recorded.summary(), indent=2, sort_keys=True), encoding="utf-8"
        )
    return recorded
