"""Engine-level equivalence of the struct-of-arrays core, bit for bit.

The SoA refactor (``repro.core.soa``) is a pure *layout* change: the same
lifecycle methods run over slab-backed views instead of per-peer objects, so
a ``soa=True`` engine must emit exactly the same SHA-256-hashed event stream
as the object-per-peer engine (``fast-aos``) — at the small digest-matrix
scale and at the paper's 2,000-peer scale, across the figure variants.

The same property gates the two other hot-path rewrites this refactor
carries:

* incremental ``plan_reconfiguration`` vs the retained full-scan oracle
  (swapped into the live protocol by monkeypatching), and
* lazy keyed per-pair delay draws vs the eager delay matrix (forced by
  lowering ``LAZY_DELAY_NODE_THRESHOLD`` below the population size). The
  keyed draws produce *different floats* than the matrix draw — digest
  equality holds because delay values never enter scheduled event
  arguments, which is precisely the documented digest-gated transition
  that lets 50k+ runs skip the O(n^2) matrix.
"""

import pytest

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
    fill, query, and reconfiguration paths, which is what the layout gate
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


VARIANTS = [
    pytest.param({"dynamic": False}, id="static-ttl2"),
    pytest.param({"dynamic": True}, id="dynamic-ttl2"),
    pytest.param({"dynamic": False, "max_hops": 4, "seed": 21}, id="static-ttl4"),
    pytest.param(
        {"dynamic": True, "downloads_grow_libraries": True, "seed": 3},
        id="dynamic-growing-libraries",
    ),
]


@pytest.mark.parametrize("overrides", VARIANTS)
def test_digest_identical_soa_vs_aos(overrides):
    config = small_config(**overrides)
    soa_result, soa_digest = run_hashed(config, "fast", sanitize=False)
    aos_result, aos_digest = run_hashed(config, "fast-aos", sanitize=False)
    assert soa_digest == aos_digest
    assert soa_result.metrics.total_queries == aos_result.metrics.total_queries
    assert soa_result.metrics.total_hits == aos_result.metrics.total_hits
    # ``GnutellaConfig.dynamic`` defaults to True: a case is static only if
    # it says so, and then it never reconfigures.
    assert (soa_result.metrics.reconfigurations > 0) == overrides["dynamic"]
    assert soa_result.metrics.reconfigurations == aos_result.metrics.reconfigurations


@pytest.mark.parametrize(
    "overrides",
    [
        pytest.param({"dynamic": False}, id="figure1-static-ttl2"),
        pytest.param({"dynamic": True}, id="figure2-dynamic-ttl2"),
        pytest.param(
            {"dynamic": True, "downloads_grow_libraries": True, "max_hops": 4},
            id="figure3-dynamic-ttl4-growing",
        ),
    ],
)
def test_paper_scale_digest_identical_soa_vs_aos(overrides):
    """2,000 peers (the paper's population): SoA == object layout, bit for bit."""
    config = paper_scale_config(**overrides)
    soa_result, soa_digest = run_hashed(config, "fast", sanitize=False)
    _, aos_digest = run_hashed(config, "fast-aos", sanitize=False)
    assert soa_digest == aos_digest
    assert (soa_result.metrics.reconfigurations > 0) == overrides["dynamic"]


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
    # And under lazy delays the two engine layouts still agree with each other.
    _, lazy_aos_digest = run_hashed(config, "fast-aos", sanitize=False)
    assert lazy_aos_digest == eager_digest


def test_soa_engine_exposes_arrays():
    soa = FastGnutellaEngine(small_config())
    assert soa.arrays is not None
    assert soa.peers.arrays is soa.arrays
    aos = FastGnutellaEngine(small_config(), soa=False)
    assert aos.arrays is None
    assert not hasattr(aos.peers, "arrays")
