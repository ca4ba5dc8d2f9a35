"""Macro benchmarks: figure-scale smoke runs and the digest gate.

The figure runs exercise the whole stack — churn, reconfiguration, floods,
metrics — through the same plan/execute/assemble path the real figures use,
so their wall time tracks what regenerating the paper's evaluation costs.

The digest gate is the correctness half of the trajectory: the specialized
flood fast path must be a pure optimization, so a ``fast`` and a
``fast-reference`` run of one config must produce bit-identical event-stream
SHA-256 digests. A mismatch fails the CLI (and CI).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Callable

from repro.experiments import figure1
from repro.experiments.common import preset_config
from repro.gnutella.simulation import simulate
from repro.lint.sanitize import run_hashed
from repro.obs.profile import PhaseTimers

__all__ = ["DigestGateReport", "FigureReport", "digest_gate", "figure_smoke"]


@dataclass
class FigureReport:
    """Timing and headline outputs of one figure-scale run."""

    preset: str
    seed: int
    max_hops: int
    seconds: float
    static_hits: int
    dynamic_hits: int
    static_messages: int
    dynamic_messages: int
    #: Aggregated ``repro.obs`` wall-clock phase timings across both runs
    #: (engine setup / run / teardown) — where the benchmark's ``seconds``
    #: actually went.
    phases: dict[str, Any] = field(default_factory=dict)
    #: Time-to-convergence in hours per scheme (``repro.obs.convergence``
    #: over the reconfiguration series); ``None`` when the run never
    #: settled. Deterministic, unlike ``seconds``/``phases``.
    static_convergence_h: float | None = None
    dynamic_convergence_h: float | None = None

    def as_dict(self) -> dict[str, Any]:
        return {
            "preset": self.preset,
            "seed": self.seed,
            "max_hops": self.max_hops,
            "seconds": self.seconds,
            "static_hits": self.static_hits,
            "dynamic_hits": self.dynamic_hits,
            "static_messages": self.static_messages,
            "dynamic_messages": self.dynamic_messages,
            "phases": self.phases,
            "static_convergence_h": self.static_convergence_h,
            "dynamic_convergence_h": self.dynamic_convergence_h,
        }


@dataclass
class DigestGateReport:
    """Digest equality between the fast path and the reference engine."""

    preset: str
    seed: int
    fast_digest: str
    reference_digest: str

    @property
    def match(self) -> bool:
        return self.fast_digest == self.reference_digest

    def as_dict(self) -> dict[str, Any]:
        return {
            "preset": self.preset,
            "seed": self.seed,
            "fast_digest": self.fast_digest,
            "reference_digest": self.reference_digest,
            "match": self.match,
        }


def figure_smoke(preset: str = "smoke", seed: int = 0) -> FigureReport:
    """Run Figure 1 (both schemes, TTL 2) at ``preset`` scale, timed.

    Runs through :func:`~repro.gnutella.simulation.simulate` so the
    snapshot also records where the wall time went (phase breakdown).
    """
    timers = PhaseTimers()

    def timed(config, engine="fast"):
        run = simulate(config, engine)
        timers.merge(run.phases)
        return run.result

    t0 = time.perf_counter()
    result = figure1.run(preset=preset, seed=seed, simulate=timed)
    seconds = time.perf_counter() - t0

    def convergence_hours(sim_result: Any) -> float | None:
        report = getattr(sim_result, "convergence", None)
        return report.get("time") if report else None

    return FigureReport(
        preset=preset,
        seed=seed,
        max_hops=result.max_hops,
        seconds=seconds,
        static_hits=result.static.metrics.total_hits,
        dynamic_hits=result.dynamic.metrics.total_hits,
        static_messages=int(result.static_messages.sum()),
        dynamic_messages=int(result.dynamic_messages.sum()),
        phases=timers.as_dict(),
        static_convergence_h=convergence_hours(result.static),
        dynamic_convergence_h=convergence_hours(result.dynamic),
    )


def digest_gate(
    preset: str = "smoke", seed: int = 0, log: Callable[[str], None] | None = None
) -> DigestGateReport:
    """Hash a ``fast`` and a ``fast-reference`` run of the same config.

    Uses the dynamic scheme at the preset's default TTL, so the digest
    covers reconfigurations, evictions and downloads — every event type the
    fast path's outcomes can influence.
    """
    say = log if log is not None else (lambda _msg: None)
    config = preset_config(preset, seed=seed).as_dynamic()
    say("digest gate: hashing fast run ...")
    _, fast_digest = run_hashed(config, "fast", sanitize=False)
    say("digest gate: hashing fast-reference run ...")
    _, reference_digest = run_hashed(config, "fast-reference", sanitize=False)
    return DigestGateReport(
        preset=preset,
        seed=seed,
        fast_digest=fast_digest,
        reference_digest=reference_digest,
    )
