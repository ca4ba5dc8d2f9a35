"""Large-population scale tiers: the engine at 10k-100k peers.

The repo benchmark (``benchmarks/e2e``) measures the paper-scale regime and
one 20,000-peer world. This module measures the ROADMAP's scaling goal
directly: short-horizon runs of the full dynamic engine at 10k / 50k /
100k users, reporting per-tier wall-clock split (setup vs run), kernel
events per second, and peak RSS — the numbers that tell you whether the
struct-of-arrays core and the lazy delay regime actually hold up, not just
whether they pass tests. Print the README's scale table with::

    python -m repro.bench.scale 10000 50000

one JSON row per tier. ``tests/test_scale_pin.py`` pins the 10k tier's
event-stream digest on both engines.

Tier configs scale the catalog with the population (items = 20 x users)
so per-song replication stays constant (~2.5 copies), keeping query-hit
behaviour comparable across tiers; the horizon is 2 simulated hours — long
enough to cover login storms, reconfiguration churn, and steady-state
querying, short enough that a 100k tier finishes in minutes.

Peak RSS comes from ``resource.getrusage`` and is a *process-lifetime
maximum*: run tiers in ascending size (``run_scale_tiers`` sorts them) so
each tier's reading is dominated by its own footprint, and run one tier
per process when memory precision matters.
"""

from __future__ import annotations

import json
import resource
import sys
import time
from dataclasses import asdict, dataclass
from typing import Sequence

from repro.errors import ConfigurationError
from repro.gnutella.config import GnutellaConfig
from repro.types import HOUR

__all__ = [
    "DEFAULT_SCALE_TIERS",
    "ScaleTierReport",
    "main",
    "run_scale_tier",
    "run_scale_tiers",
    "scale_config",
]

#: Default tier populations (users). 100k is deliberately absent: it runs in
#: minutes — pass it explicitly.
DEFAULT_SCALE_TIERS = (10_000, 50_000)


def _peak_rss_mb() -> float:
    """Process-lifetime peak resident set size in MiB (Linux: ru_maxrss KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def scale_config(n_users: int, seed: int = 0) -> GnutellaConfig:
    """The canonical scale-tier configuration for ``n_users`` peers.

    Dynamic scheme (the expensive one: reconfigurations, invitations, stats
    upkeep all engaged), 2-hour horizon, no warmup, catalog scaled with the
    population to hold per-item replication constant.
    """
    if n_users < 2:
        raise ConfigurationError(f"a scale tier needs at least 2 users, got {n_users}")
    return GnutellaConfig(
        n_users=n_users,
        n_items=20 * n_users,
        mean_library=50.0,
        std_library=12.0,
        horizon=2 * HOUR,
        warmup_hours=0,
        queries_per_hour=8.0,
        dynamic=True,
        seed=seed,
    )


@dataclass(frozen=True, slots=True)
class ScaleTierReport:
    """One tier's measurements: wall-clock columns plus the deterministic
    outcomes (same seed => same events, queries and hits)."""

    n_users: int
    n_items: int
    horizon_hours: float
    setup_seconds: float
    run_seconds: float
    wall_seconds: float
    events_executed: int
    events_per_sec: float
    queries: int
    hits: int
    peak_rss_mb: float


def run_scale_tier(n_users: int, *, seed: int = 0) -> ScaleTierReport:
    """Build and run one tier on the ``fast`` engine, timed.

    Nothing is attached to the engine, so the timed loop is the one every
    simulation runs.
    """
    from repro.gnutella.simulation import build_engine

    config = scale_config(n_users, seed)
    t0 = time.perf_counter()
    eng = build_engine(config, "fast")
    t1 = time.perf_counter()
    metrics = eng.run()
    t2 = time.perf_counter()
    setup_seconds = t1 - t0
    run_seconds = t2 - t1
    events = eng.sim.events_executed
    return ScaleTierReport(
        n_users=config.n_users,
        n_items=config.n_items,
        horizon_hours=config.horizon / HOUR,
        setup_seconds=setup_seconds,
        run_seconds=run_seconds,
        wall_seconds=setup_seconds + run_seconds,
        events_executed=events,
        events_per_sec=events / run_seconds if run_seconds > 0 else 0.0,
        queries=metrics.total_queries,
        hits=metrics.total_hits,
        peak_rss_mb=_peak_rss_mb(),
    )


def run_scale_tiers(
    tiers: Sequence[int] = DEFAULT_SCALE_TIERS, *, seed: int = 0
) -> dict[str, ScaleTierReport]:
    """Run every tier, smallest first; returns ``{"10000": report, ...}``.

    Ascending order is load-bearing for the peak-RSS column: ``ru_maxrss``
    is a process-lifetime maximum, so a big tier run first would inflate
    every smaller tier's reading.
    """
    if not tiers:
        raise ConfigurationError("at least one scale tier is required")
    return {
        str(n_users): run_scale_tier(n_users, seed=seed)
        for n_users in sorted(set(int(t) for t in tiers))
    }


def main(argv: Sequence[str] | None = None) -> int:
    """``python -m repro.bench.scale [N_USERS ...]``: one JSON row per tier."""
    tiers = [int(arg) for arg in (sys.argv[1:] if argv is None else argv)]
    for report in run_scale_tiers(tiers or DEFAULT_SCALE_TIERS).values():
        print(json.dumps(asdict(report)), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
