"""Engine-level digest gates for the hot-path rewrites of the engine core.

Two rewrites must leave the SHA-256-hashed event stream bit for bit as it
was:

* incremental ``plan_reconfiguration`` vs the retained full-scan oracle
  (swapped into the live protocol by monkeypatching), and
* lazy keyed per-pair delay draws vs the eager delay matrix (forced by
  lowering ``LAZY_DELAY_NODE_THRESHOLD`` below the population size). The
  keyed draws produce *different floats* than the matrix draw — digest
  equality holds because delay values never enter scheduled event
  arguments, which is precisely the documented digest-gated transition
  that lets 50k+ runs skip the O(n^2) matrix.

The configs here are shared with the absolute pins of
``test_pinned_runs.py``.
"""

import repro.gnutella.asymmetric
import repro.gnutella.protocol
import repro.net.latency
from repro.core.update import plan_reconfiguration_full_scan
from repro.gnutella import FastGnutellaEngine, GnutellaConfig
from repro.lint.sanitize import run_hashed
from repro.types import HOUR


def small_config(**overrides):
    defaults = dict(
        n_users=60,
        n_items=3000,
        n_categories=10,
        mean_library=30.0,
        std_library=5.0,
        horizon=4 * HOUR,
        warmup_hours=0,
        queries_per_hour=6.0,
        max_hops=2,
        seed=7,
    )
    defaults.update(overrides)
    return GnutellaConfig(**defaults)


def paper_scale_config(**overrides):
    """The paper's 2,000-peer population, shortened to a test-sized horizon.

    Full Section 4.2 parameters except the horizon (30 simulated minutes
    instead of 4 days): the digest covers thousands of events across login,
    fill, query, and reconfiguration paths, which is what a digest pin
    needs — running to the real horizon adds hours of wall clock, not
    coverage.
    """
    defaults = dict(
        n_users=2000,
        n_items=200_000,
        mean_library=200.0,
        std_library=50.0,
        horizon=0.5 * HOUR,
        warmup_hours=0,
        queries_per_hour=8.0,
        max_hops=2,
        seed=7,
    )
    defaults.update(overrides)
    return GnutellaConfig(**defaults)


def test_digest_identical_incremental_vs_full_scan_plan(monkeypatch):
    """The incremental reconfiguration planner is digest-equal to the oracle.

    Swaps :func:`~repro.core.update.plan_reconfiguration_full_scan` into the
    live protocol (both the symmetric and asymmetric modules import the
    planner by name) and replays a dynamic run: every invite/evict decision,
    and therefore the whole event stream, must come out identical.
    """
    config = small_config(dynamic=True, downloads_grow_libraries=True)
    _, incremental_digest = run_hashed(config, "fast", sanitize=False)
    monkeypatch.setattr(
        repro.gnutella.protocol, "plan_reconfiguration", plan_reconfiguration_full_scan
    )
    monkeypatch.setattr(
        repro.gnutella.asymmetric, "plan_reconfiguration", plan_reconfiguration_full_scan
    )
    _, full_scan_digest = run_hashed(config, "fast", sanitize=False)
    assert incremental_digest == full_scan_digest


def test_digest_identical_lazy_vs_eager_delays(monkeypatch):
    """Lazy keyed delay draws do not move the event-stream digest.

    The lazy regime's per-pair floats differ from the eager matrix draw, but
    no scheduled event argument carries a delay, so the digest is invariant —
    the documented transition that makes digest gating valid at scales where
    the O(n^2) matrix cannot be built.
    """
    config = small_config(dynamic=True)
    _, eager_digest = run_hashed(config, "fast", sanitize=False)
    monkeypatch.setattr(repro.net.latency, "LAZY_DELAY_NODE_THRESHOLD", 8)
    _, lazy_digest = run_hashed(config, "fast", sanitize=False)
    assert lazy_digest == eager_digest


def test_soa_engine_exposes_arrays():
    soa = FastGnutellaEngine(small_config())
    assert soa.arrays is not None
    assert soa.peers.arrays is soa.arrays
