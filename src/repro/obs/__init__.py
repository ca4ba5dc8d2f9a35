"""Observability: query-level tracing, metrics registry, phase timers.

The paper's claims are about *dynamics* — "as the time evolves, new
beneficial neighbors are being discovered" (Section 4.3) — but end-state
aggregates cannot show *why* a query found its hits or how a
reconfiguration wave propagated. This package is the observation layer:

* :mod:`repro.obs.trace` — a tracer producing structured spans and instant
  events over the query lifecycle (issue → per-hop propagation → hit →
  reply-path) and protocol events (reconfigure, invite/evict,
  login/logoff), buffered in memory;
* :mod:`repro.obs.chrome` — export as Chrome trace-event JSON (loadable in
  ``chrome://tracing`` / Perfetto), with simulated seconds mapped to trace
  microseconds, plus a validator for the format;
* :mod:`repro.obs.registry` — a metrics registry unifying the scattered
  :mod:`repro.sim.monitor` instruments behind named counters / gauges /
  histograms with labeled dimensions and a ``snapshot()`` export;
* :mod:`repro.obs.profile` — wall-clock phase timers taken around the
  engine (setup / run / teardown, orchestrator tasks) surfaced in run
  manifests;
* :mod:`repro.obs.topology` — periodic overlay snapshots (degree
  distributions, in-degree concentration, neighbor churn, consistency
  ratio, TTL reachability, benefit distribution), digest-neutral via
  observer-marked callbacks;
* :mod:`repro.obs.convergence` — time-to-convergence detection over the
  per-hour reconfiguration series, surfaced in results and manifests;
* :mod:`repro.obs.report` — ``repro-report``: one self-contained HTML run
  report (inline SVG, no external assets) from a record directory or
  manifest;
* :mod:`repro.obs.record` — one-call traced simulation runs;
* :mod:`repro.obs.cli` — the ``repro-trace`` command.

The cardinal rule, test-enforced: **tracing observes, it never draws RNG,
schedules kernel events, or reorders anything** — a traced run's
event-stream SHA-256 digest is bit-identical to an untraced run's.
"""

from repro.obs.chrome import to_chrome, validate_chrome, write_chrome
from repro.obs.convergence import (
    ConvergenceReport,
    convergence_from_metrics,
    detect_convergence,
)
from repro.obs.profile import PhaseTimers
from repro.obs.record import record_run
from repro.obs.registry import MetricsRegistry
from repro.obs.report import render_report, write_report
from repro.obs.topology import (
    OverlayView,
    TopologySnapshot,
    TopologySnapshotter,
    walk_overlay,
)
from repro.obs.trace import (
    NULL_TRACER,
    NullTracer,
    TraceEvent,
    Tracer,
)

__all__ = [
    "ConvergenceReport",
    "MetricsRegistry",
    "NULL_TRACER",
    "NullTracer",
    "OverlayView",
    "PhaseTimers",
    "TopologySnapshot",
    "TopologySnapshotter",
    "TraceEvent",
    "Tracer",
    "convergence_from_metrics",
    "detect_convergence",
    "record_run",
    "render_report",
    "to_chrome",
    "validate_chrome",
    "walk_overlay",
    "write_chrome",
    "write_report",
]
