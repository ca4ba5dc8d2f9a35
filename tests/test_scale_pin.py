"""The 10,000-peer world, pinned: the one tier above the eager delay matrix.

Tier-1 pins worlds up to the paper's 2,000 peers; above 4,096 peers the
delays come from the lazy keyed draws and the catalog grows with the
population, and only this test holds that regime to absolute values. It is
``slow`` (both engines, hashed, about a minute) and runs in CI's
``scale-pin`` job: ``pytest -m slow tests/test_scale_pin.py``.

The values were refreshed in the re-baseline window of ``docs/development.md``
rule 3 (successive library draws); before it they read ``fast_digest``
6afe7800bc43..., 103,687 events, 79,716 queries, 6,443 hits.
"""

import pytest

from repro.bench.scale import scale_config
from repro.gnutella.simulation import build_engine
from repro.lint.sanitize import attach_hasher

FAST_DIGEST = "0ce874cc3057f0bf329400ce57ae5a577b199634a6108d36f292890dbec1640a"
EVENTS = 103_742
QUERIES = 79_716
HITS = 6_427


def hashed_run(engine_name):
    engine = build_engine(scale_config(10_000), engine_name)
    hasher = attach_hasher(engine.sim)
    metrics = engine.run()
    return hasher.hexdigest(), engine.sim.events_executed, metrics


@pytest.mark.slow
def test_10k_tier_is_pinned_on_both_engines():
    digest, events, metrics = hashed_run("fast")
    assert (events, metrics.total_queries, metrics.total_hits) == (EVENTS, QUERIES, HITS)
    assert digest == FAST_DIGEST
    assert hashed_run("fast-reference")[0] == digest
