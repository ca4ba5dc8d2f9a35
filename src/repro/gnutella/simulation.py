"""Top-level simulation driver for the case study."""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ConfigurationError
from repro.gnutella.config import GnutellaConfig
from repro.gnutella.detailed import DetailedGnutellaEngine
from repro.gnutella.fast import FastGnutellaEngine
from repro.gnutella.metrics import SimulationMetrics

__all__ = [
    "SimulationResult",
    "build_engine",
    "run_simulation",
    "simulate_profiled",
    "simulate_task",
    "summarize",
]


@dataclass(frozen=True, slots=True)
class SimulationResult:
    """A completed run: its configuration, metrics and topology summary.

    Attributes
    ----------
    config:
        The configuration that produced this run.
    metrics:
        All hour-bucketed counters and delay statistics.
    taste_clustering:
        Final fraction of links whose endpoints share a favorite category —
        the "groups nodes with similar content together" evidence.
    mean_degree:
        Final average neighbor count among online peers.
    convergence:
        Time-to-convergence diagnostics (:class:`repro.obs.convergence.
        ConvergenceReport` ``as_dict()``), derived from the per-hour
        reconfiguration series. Deterministic — part of result digests.
    """

    config: GnutellaConfig
    metrics: SimulationMetrics
    taste_clustering: float
    mean_degree: float
    convergence: dict | None = None

    @property
    def scheme(self) -> str:
        """Human-readable scheme name."""
        return "Dynamic_Gnutella" if self.config.dynamic else "Gnutella"


def build_engine(
    config: GnutellaConfig, engine: str = "fast", *, trace=None
) -> FastGnutellaEngine:
    """Construct (but do not run) the engine named by ``engine``.

    Split out of :func:`run_simulation` so callers can instrument the engine
    before running — e.g. :func:`repro.lint.sanitize.attach_hasher` wraps the
    kernel's event queue, and :func:`~repro.lint.sanitize.install_consistency_checks`
    schedules periodic invariant probes.

    ``"fast-reference"`` is the fast engine with the specialized flood fast
    path disabled (every query runs the reference
    :func:`~repro.core.search.generic_search`). It exists for the
    digest-equality gate: a ``fast`` and a ``fast-reference`` run of the same
    config must produce bit-identical event-stream digests.

    ``trace`` optionally attaches a live :class:`repro.obs.trace.Tracer` (via
    :meth:`~repro.gnutella.fast.FastGnutellaEngine.attach_tracer`) before the
    engine runs. Tracing only observes — it draws no RNG and schedules
    nothing — so it cannot move the event-stream digest.
    """
    if engine == "fast":
        eng = FastGnutellaEngine(config)
    elif engine == "fast-reference":
        eng = FastGnutellaEngine(config, use_fastpath=False)
    elif engine == "detailed":
        eng = DetailedGnutellaEngine(config)
    else:
        raise ConfigurationError(
            f"unknown engine {engine!r}; use 'fast', 'fast-reference' or 'detailed'"
        )
    if trace is not None:
        eng.attach_tracer(trace)
    return eng


def summarize(eng: FastGnutellaEngine) -> SimulationResult:
    """Summarize a completed engine run into a :class:`SimulationResult`."""
    from repro.obs.convergence import convergence_from_metrics

    online = [p for p in eng.peers if p.online]
    mean_degree = (
        sum(p.degree for p in online) / len(online) if online else 0.0
    )
    return SimulationResult(
        config=eng.config,
        metrics=eng.metrics,
        taste_clustering=eng.taste_clustering(),
        mean_degree=mean_degree,
        convergence=convergence_from_metrics(eng.metrics).as_dict(),
    )


def run_simulation(
    config: GnutellaConfig,
    engine: str = "fast",
    *,
    sanitize: bool | None = None,
    trace=None,
) -> SimulationResult:
    """Build the world from ``config``, run it, and summarize.

    Parameters
    ----------
    config:
        Simulation parameters (see :class:`GnutellaConfig`).
    engine:
        ``"fast"`` (atomic queries; the figure-scale default) or
        ``"detailed"`` (message-level; validation scale).
    sanitize:
        Install the periodic Section 3.1 consistency assertions of
        :mod:`repro.lint.sanitize` into the run (debug mode; a violation
        raises :class:`~repro.errors.SanitizerError`).  ``None`` (default)
        defers to the ``REPRO_SANITIZE`` environment variable.
    trace:
        Attach a live :class:`repro.obs.trace.Tracer` for the run. ``None``
        (default) defers to the ``REPRO_TRACE`` environment variable: when
        that names a path, a tracer is created and its JSONL event stream is
        written there after the run — exception-safely, via
        :meth:`~repro.obs.trace.Tracer.flushed`, so a mid-run crash still
        leaves a valid parseable trace of everything up to the failure.
    """
    trace_path = None
    if trace is None:
        from repro.obs.trace import Tracer, trace_env_path

        trace_path = trace_env_path()
        if trace_path is not None:
            trace = Tracer()
    eng = build_engine(config, engine, trace=trace)
    if sanitize is None:
        from repro.lint.sanitize import sanitizer_env_enabled

        sanitize = sanitizer_env_enabled()
    if sanitize:
        from repro.lint.sanitize import install_consistency_checks

        install_consistency_checks(eng)
    if trace_path is not None:
        with trace.flushed(trace_path):
            eng.run()
    else:
        eng.run()
    return summarize(eng)


def simulate_task(
    config: GnutellaConfig, engine: str = "fast", *, hash_events: bool = False
) -> tuple[SimulationResult, str | None]:
    """Worker-safe simulation entry point for process pools.

    A module-level function (so executors can pickle it by reference) taking
    only picklable arguments and touching no shared state — the contract
    :mod:`repro.orchestrate.pool` needs to fan simulations out over a
    :class:`~concurrent.futures.ProcessPoolExecutor`.  Every stochastic
    component seeds from ``config.seed`` via :class:`repro.rng.RngStreams`,
    so the result is bit-identical wherever (and alongside whatever) the
    task runs.

    Returns ``(result, event_digest)``; ``event_digest`` is the
    :mod:`repro.lint.sanitize` event-stream SHA-256 when ``hash_events`` is
    true, else ``None``.
    """
    if hash_events:
        from repro.lint.sanitize import run_hashed, sanitizer_env_enabled

        return run_hashed(config, engine, sanitize=sanitizer_env_enabled())
    return run_simulation(config, engine), None


def simulate_profiled(
    config: GnutellaConfig, engine: str = "fast", *, hash_events: bool = False
) -> tuple[SimulationResult, str | None, dict]:
    """:func:`simulate_task` plus wall-clock phase timings.

    Same worker-safe contract (module-level, picklable arguments, no shared
    state); additionally times engine setup, run, and teardown with a
    :class:`repro.obs.profile.PhaseTimers` taken around the engine, returning
    its ``as_dict()`` as the third element. Nothing is attached to the
    engine, so the digest matches :func:`simulate_task`'s for the same
    config.
    """
    from repro.obs.profile import PhaseTimers

    timers = PhaseTimers()
    with timers.phase("engine.setup"):
        eng = build_engine(config, engine)
    hasher = None
    if hash_events:
        from repro.lint.sanitize import attach_hasher

        hasher = attach_hasher(eng.sim)
    with timers.phase("engine.run"):
        eng.run()
    digest = hasher.hexdigest() if hasher is not None else None
    with timers.phase("engine.teardown"):
        result = summarize(eng)
    return result, digest, timers.as_dict()
