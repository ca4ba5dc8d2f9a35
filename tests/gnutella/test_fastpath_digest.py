"""Engine-level equivalence: fast path vs reference, bit for bit.

The unit tests in ``tests/core/test_fastpath.py`` prove the BFS kernels
agree on frozen inputs. These tests prove the *wiring* agrees too: a full
``FastGnutellaEngine`` run with the fast path engaged must emit exactly the
same event stream (hashed with SHA-256) as the same engine with
``use_fastpath=False``, across static/dynamic schemes, TTLs, and growing
libraries — every knob that feeds back search outcomes into the world.
"""

import pytest

from repro.experiments.common import preset_config
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


@pytest.mark.parametrize(
    "config",
    [
        pytest.param(small_config(dynamic=False), id="static-ttl2"),
        pytest.param(small_config(dynamic=True), id="dynamic-ttl2"),
        pytest.param(small_config(dynamic=False, max_hops=4, seed=21), id="static-ttl4"),
        pytest.param(
            small_config(dynamic=True, downloads_grow_libraries=True, seed=3),
            id="dynamic-growing-libraries",
        ),
        # The world the figure-shape tests and the smoke CI runs use.
        pytest.param(preset_config("smoke", seed=0).as_dynamic(), id="smoke-dynamic"),
    ],
)
def test_digest_identical_fast_vs_reference(config):
    fast_result, fast_digest = run_hashed(config, "fast", sanitize=False)
    ref_result, ref_digest = run_hashed(config, "fast-reference", sanitize=False)
    assert fast_digest == ref_digest
    assert fast_result.metrics.total_queries == ref_result.metrics.total_queries
    assert fast_result.metrics.total_hits == ref_result.metrics.total_hits
    # A static run never reconfigures.
    assert (fast_result.metrics.reconfigurations > 0) == config.dynamic
    assert fast_result.metrics.reconfigurations == ref_result.metrics.reconfigurations


def test_fastpath_engaged_only_on_flood():
    flood = FastGnutellaEngine(small_config())
    assert flood.fastpath_engaged
    reference = FastGnutellaEngine(small_config(), use_fastpath=False)
    assert not reference.fastpath_engaged
    # Non-flood strategies fall back to the generic machinery.
    walker = FastGnutellaEngine(small_config(search_strategy="random:2"))
    assert not walker.fastpath_engaged


def test_fastpath_survives_run_with_churn():
    """Dynamic run with the fast path: sane metrics, no stale-snapshot crash."""
    engine = FastGnutellaEngine(small_config(dynamic=True))
    assert engine.fastpath_engaged
    metrics = engine.run()
    assert metrics.total_queries > 0
