"""Shared experiment scaffolding: presets and paired runs.

Scaling rationale (documented in DESIGN.md): the catalog scales with the
population so per-song replication stays at the paper's ~2 copies, and the
population must keep the TTL-4 flood (≤ 160 nodes) well below the online
count or the static baseline saturates availability and every comparison
compresses. ``scaled`` (600 users / 300 online) preserves all figure shapes
in ~minutes; ``paper`` is the full Section 4.2 parameterization; ``smoke``
exists for tests.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, Sequence

from repro.errors import ConfigurationError
from repro.gnutella.config import GnutellaConfig
from repro.gnutella.simulation import SimulationResult, run_simulation
from repro.types import DAY, HOUR

__all__ = [
    "PRESETS",
    "SimRequest",
    "SimulateFn",
    "execute_requests",
    "paired_run",
    "preset_config",
]

#: Anything that turns ``(config, engine)`` into a result — the seam the
#: orchestrator (:mod:`repro.orchestrate`) plugs cached/pooled execution into.
SimulateFn = Callable[[GnutellaConfig, str], SimulationResult]


@dataclass(frozen=True, slots=True)
class SimRequest:
    """One simulation a figure needs, under a figure-local key.

    Every figure runner is split into a *plan* phase that returns these and
    an *assemble* phase that turns ``{key: result}`` back into the figure's
    result object. The split is what lets :mod:`repro.orchestrate` execute a
    whole grid's requests out of order, in parallel, deduplicated across
    figures, and memoized — while the serial ``run()`` path just executes
    them in plan order.
    """

    key: str
    config: GnutellaConfig
    engine: str = "fast"


def execute_requests(
    requests: Sequence[SimRequest], simulate: SimulateFn | None = None
) -> dict[str, SimulationResult]:
    """Run ``requests`` serially, in order; the figures' default executor."""
    run = simulate if simulate is not None else run_simulation
    results: dict[str, SimulationResult] = {}
    for request in requests:
        if request.key in results:
            raise ConfigurationError(f"duplicate request key {request.key!r}")
        results[request.key] = run(request.config, request.engine)
    return results

#: Named base configurations. ``max_hops`` etc. are overridden per figure.
PRESETS: dict[str, GnutellaConfig] = {
    "paper": GnutellaConfig(
        n_users=2000,
        n_items=200_000,
        mean_library=200.0,
        std_library=50.0,
        horizon=4 * DAY,
        warmup_hours=12,
        queries_per_hour=8.0,
    ),
    "scaled": GnutellaConfig(
        n_users=600,
        n_items=60_000,
        mean_library=200.0,
        std_library=50.0,
        horizon=2 * DAY,
        warmup_hours=12,
        queries_per_hour=8.0,
    ),
    "smoke": GnutellaConfig(
        n_users=150,
        n_items=15_000,
        mean_library=60.0,
        std_library=15.0,
        horizon=8 * HOUR,
        warmup_hours=2,
        queries_per_hour=8.0,
    ),
}


def preset_config(preset: str, seed: int = 0, **overrides) -> GnutellaConfig:
    """The named preset with a seed and per-figure overrides applied."""
    try:
        base = PRESETS[preset]
    except KeyError:
        raise ConfigurationError(
            f"unknown preset {preset!r}; choose from {sorted(PRESETS)}"
        ) from None
    return replace(base, seed=seed, **overrides)


def paired_run(
    config: GnutellaConfig, engine: str = "fast"
) -> tuple[SimulationResult, SimulationResult]:
    """Run the static baseline and the dynamic scheme on the same world.

    Same seed, same churn schedules, same query arrival times — the paper's
    comparisons are paired (Section 4.3 plots both curves from one setup).
    """
    static = run_simulation(config.as_static(), engine=engine)
    dynamic = run_simulation(config.as_dynamic(), engine=engine)
    return static, dynamic
