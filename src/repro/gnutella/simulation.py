"""Top-level simulation driver for the case study."""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ConfigurationError
from repro.gnutella.config import GnutellaConfig
from repro.gnutella.detailed import DetailedGnutellaEngine
from repro.gnutella.fast import FastGnutellaEngine
from repro.gnutella.metrics import SimulationMetrics

__all__ = [
    "Simulated",
    "SimulationResult",
    "build_engine",
    "run_simulation",
    "simulate",
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

    Split out of :func:`simulate` so callers can instrument the engine
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

    arrays = eng.arrays
    online = [u for u in range(arrays.n) if arrays.online[u]]
    mean_degree = (
        sum(arrays.out.deg[u] for u in online) / len(online) if online else 0.0
    )
    return SimulationResult(
        config=eng.config,
        metrics=eng.metrics,
        taste_clustering=eng.taste_clustering(),
        mean_degree=mean_degree,
        convergence=convergence_from_metrics(eng.metrics).as_dict(),
    )


@dataclass(frozen=True, slots=True)
class Simulated:
    """One :func:`simulate` run: its summary, digest and phase timings.

    Attributes
    ----------
    result:
        The summarized run.
    event_digest:
        The :mod:`repro.lint.sanitize` event-stream SHA-256 when the run was
        hashed, else ``None``.
    phases:
        Wall-clock ``engine.setup`` / ``engine.run`` / ``engine.teardown``
        timings (:class:`repro.obs.profile.PhaseTimers` ``as_dict()``),
        taken around the engine, never inside it.
    """

    result: SimulationResult
    event_digest: str | None
    phases: dict


def simulate(
    config: GnutellaConfig,
    engine: str = "fast",
    *,
    hash_events: bool = False,
    sanitize: bool | None = None,
) -> Simulated:
    """Build the world from ``config``, run it, and summarize — timed.

    The one run body behind :func:`run_simulation`,
    :func:`repro.lint.sanitize.run_hashed` and every orchestrated figure
    task. A module-level function of picklable arguments touching no shared
    state, so process pools can fan it out; every stochastic component
    seeds from ``config.seed``, so the result is bit-identical wherever the
    run executes.

    Parameters
    ----------
    config:
        Simulation parameters (see :class:`GnutellaConfig`).
    engine:
        ``"fast"`` (atomic queries; the figure-scale default),
        ``"fast-reference"`` or ``"detailed"`` (message-level; validation
        scale) — see :func:`build_engine`.
    hash_events:
        Fold every executed event into a SHA-256 digest
        (:func:`repro.lint.sanitize.attach_hasher`).
    sanitize:
        Install the periodic Section 3.1 consistency assertions of
        :mod:`repro.lint.sanitize` into the run (debug mode; a violation
        raises :class:`~repro.errors.SanitizerError`). ``None`` (default)
        defers to the ``REPRO_SANITIZE`` environment variable.

    Hashing and sanitizing only observe, so neither moves the digest.
    """
    from repro.lint.sanitize import (
        attach_hasher,
        install_consistency_checks,
        sanitizer_env_enabled,
    )
    from repro.obs.profile import PhaseTimers

    timers = PhaseTimers()
    with timers.phase("engine.setup"):
        eng = build_engine(config, engine)
    hasher = attach_hasher(eng.sim) if hash_events else None
    if sanitize is None:
        sanitize = sanitizer_env_enabled()
    if sanitize:
        install_consistency_checks(eng)
    with timers.phase("engine.run"):
        eng.run()
    with timers.phase("engine.teardown"):
        result = summarize(eng)
    digest = hasher.hexdigest() if hasher is not None else None
    return Simulated(result, digest, timers.as_dict())


def run_simulation(
    config: GnutellaConfig, engine: str = "fast", *, sanitize: bool | None = None
) -> SimulationResult:
    """:func:`simulate` without the digest and timings: just the result."""
    return simulate(config, engine, sanitize=sanitize).result
