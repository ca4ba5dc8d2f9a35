"""Large-population scale tiers: the engine at 10k-100k peers.

The kernel and figure benches (:mod:`repro.bench.kernels`,
:mod:`repro.bench.macro`) measure the paper-scale regime. This module
measures the ROADMAP's scaling goal directly: short-horizon micro-runs of
the full dynamic engine at 10k / 50k / 100k users, reporting per-tier
wall-clock split (setup vs run), kernel events per second, and peak RSS —
the numbers that tell you whether the struct-of-arrays core and the lazy
delay regime actually hold up, not just whether they pass tests.

Tier configs scale the catalog with the population (items = 20 x users)
so per-song replication stays constant (~2.5 copies), keeping query-hit
behaviour comparable across tiers; the horizon is 2 simulated hours — long
enough to cover login storms, reconfiguration churn, and steady-state
querying, short enough that a 100k tier finishes in minutes.

Each tier can also run the digest gate at its own scale: a hashed ``fast``
run against a hashed ``fast-reference`` run. Above the lazy-delay threshold
both regimes draw per-pair delays with order-independent keyed streams
(:mod:`repro.net.latency`), which is exactly what keeps this gate valid
where the O(n^2) matrix cannot exist. The reference engine is a constant
factor slower, so the gate defaults to the 10k tier and below
(``digest_max_users``); larger tiers report timing only.

Peak RSS comes from ``resource.getrusage`` and is a *process-lifetime
maximum*: run tiers in ascending size (``run_scale_tiers`` sorts them) so
each tier's reading is dominated by its own footprint, and read small-tier
numbers from a snapshot produced by a small-tier-only invocation when
memory precision matters.
"""

from __future__ import annotations

import resource
import time
from dataclasses import dataclass
from typing import Any, Callable, Sequence

from repro.errors import ConfigurationError
from repro.gnutella.config import GnutellaConfig
from repro.types import HOUR

__all__ = [
    "DEFAULT_SCALE_TIERS",
    "ScaleTierReport",
    "run_scale_tier",
    "run_scale_tiers",
    "scale_config",
]

#: Default tier populations (users). 100k is deliberately absent: it runs in
#: minutes but CI budgets are tight — pass it explicitly for snapshot runs.
DEFAULT_SCALE_TIERS = (10_000, 50_000)

#: Tiers at or below this size also run the fast-vs-reference digest gate.
DEFAULT_DIGEST_MAX_USERS = 10_000


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
    """One tier's measurements, in ``repro-bench compare`` vocabulary.

    ``*_seconds`` are judged lower-is-better, ``events_per_sec``
    higher-is-better, ``peak_rss_mb`` lower-is-better; the remaining fields
    are workload parameters / deterministic outcomes (same seed => same
    values), which the comparator requires to match between snapshots.
    """

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
    #: 1 = gate ran and matched, 0 = gate ran and failed; omitted from the
    #: dict when the gate was skipped at this tier.
    digest_match: bool | None = None
    fast_digest: str | None = None

    def as_dict(self) -> dict[str, Any]:
        """JSON-ready rendering for the snapshot's ``scale`` block."""
        out: dict[str, Any] = {
            "n_users": self.n_users,
            "n_items": self.n_items,
            "horizon_hours": self.horizon_hours,
            "setup_seconds": self.setup_seconds,
            "run_seconds": self.run_seconds,
            "wall_seconds": self.wall_seconds,
            "events_executed": self.events_executed,
            "events_per_sec": self.events_per_sec,
            "queries": self.queries,
            "hits": self.hits,
            "peak_rss_mb": self.peak_rss_mb,
        }
        if self.digest_match is not None:
            out["digest_match"] = self.digest_match
            out["fast_digest"] = self.fast_digest
        return out


def run_scale_tier(
    n_users: int,
    *,
    seed: int = 0,
    engine: str = "fast",
    digest_check: bool = False,
    log: Callable[[str], None] | None = None,
) -> ScaleTierReport:
    """Run one tier: a timed run, plus the per-scale digest gate if asked.

    The timed run is unhashed (hashing costs a ``stable_repr`` per event and
    would pollute the throughput numbers); the digest gate re-runs the same
    config hashed on ``fast`` and ``fast-reference``. Nothing is attached
    to the engine, so the timed loop is the one every simulation runs.
    """
    from repro.gnutella.simulation import build_engine

    config = scale_config(n_users, seed)
    t0 = time.perf_counter()
    eng = build_engine(config, engine)
    t1 = time.perf_counter()
    metrics = eng.run()
    t2 = time.perf_counter()
    setup_seconds = t1 - t0
    run_seconds = t2 - t1
    events = eng.sim.events_executed
    events_per_sec = events / run_seconds if run_seconds > 0 else 0.0
    peak_rss = _peak_rss_mb()
    if log is not None:
        log(
            f"scale {n_users}: setup {setup_seconds:.1f}s, run {run_seconds:.1f}s, "
            f"{events} events ({events_per_sec:.0f}/s), "
            f"peak RSS {peak_rss:.0f} MiB"
        )

    digest_match: bool | None = None
    fast_digest: str | None = None
    if digest_check:
        from repro.lint.sanitize import run_hashed

        _, fast_digest = run_hashed(config, "fast", sanitize=False)
        _, reference_digest = run_hashed(config, "fast-reference", sanitize=False)
        digest_match = fast_digest == reference_digest
        if log is not None:
            verdict = "match" if digest_match else "MISMATCH"
            log(f"scale {n_users}: digest gate {verdict} ({fast_digest[:16]}...)")

    return ScaleTierReport(
        n_users=config.n_users,
        n_items=config.n_items,
        horizon_hours=config.horizon / HOUR,
        setup_seconds=setup_seconds,
        run_seconds=run_seconds,
        wall_seconds=setup_seconds + run_seconds,
        events_executed=events,
        events_per_sec=events_per_sec,
        queries=metrics.total_queries,
        hits=metrics.total_hits,
        peak_rss_mb=peak_rss,
        digest_match=digest_match,
        fast_digest=fast_digest,
    )


def run_scale_tiers(
    tiers: Sequence[int] = DEFAULT_SCALE_TIERS,
    *,
    seed: int = 0,
    engine: str = "fast",
    digest_max_users: int = DEFAULT_DIGEST_MAX_USERS,
    log: Callable[[str], None] | None = None,
) -> dict[str, ScaleTierReport]:
    """Run every tier, smallest first; returns ``{"10000": report, ...}``.

    Ascending order is load-bearing for the peak-RSS column: ``ru_maxrss``
    is a process-lifetime maximum, so a big tier run first would inflate
    every smaller tier's reading.
    """
    if not tiers:
        raise ConfigurationError("at least one scale tier is required")
    reports: dict[str, ScaleTierReport] = {}
    for n_users in sorted(set(int(t) for t in tiers)):
        reports[str(n_users)] = run_scale_tier(
            n_users,
            seed=seed,
            engine=engine,
            digest_check=n_users <= digest_max_users,
            log=log,
        )
    return reports
