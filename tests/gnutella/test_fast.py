"""Tests for the fast engine: lifecycle, invariants, determinism."""

import pytest

from repro.errors import ConfigurationError
from repro.gnutella import FastGnutellaEngine, GnutellaConfig
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


def assert_invariants(engine):
    """Structural invariants that must hold at any instant."""
    for peer in engine.peers:
        out = peer.neighbors.outgoing.as_tuple()
        # Symmetric consistency: every link is mutual.
        for other in out:
            assert peer.node in engine.peers[other].neighbors.outgoing.as_tuple()
        # Offline peers hold no links; online peers never exceed capacity.
        if not peer.online:
            assert out == ()
        assert len(out) <= engine.config.neighbor_slots
        # No self-loops or duplicates.
        assert peer.node not in out
        assert len(set(out)) == len(out)


class TestLifecycle:
    def test_run_returns_metrics(self):
        engine = FastGnutellaEngine(small_config())
        metrics = engine.run()
        assert metrics.total_queries > 0
        assert metrics.logins > 0

    def test_single_use(self):
        engine = FastGnutellaEngine(small_config())
        engine.run()
        with pytest.raises(ConfigurationError):
            engine.run()

    def test_invariants_after_run(self):
        for dynamic in (False, True):
            engine = FastGnutellaEngine(small_config(dynamic=dynamic))
            engine.run()
            assert_invariants(engine)

    def test_online_population_near_half(self):
        engine = FastGnutellaEngine(small_config(n_users=300))
        engine.run()
        assert 0.3 * 300 < engine.online_count() < 0.7 * 300

    def test_static_never_reconfigures(self):
        engine = FastGnutellaEngine(small_config(dynamic=False))
        metrics = engine.run()
        assert metrics.reconfigurations == 0
        assert metrics.invitations == 0

    def test_dynamic_reconfigures(self):
        engine = FastGnutellaEngine(small_config(dynamic=True))
        metrics = engine.run()
        assert metrics.reconfigurations > 0

    def test_queries_stop_at_horizon(self):
        engine = FastGnutellaEngine(small_config())
        metrics = engine.run()
        assert engine.sim.now == engine.config.horizon
        nonzero_hours = metrics.queries.counts
        assert len(nonzero_hours) == 4


class TestInvariantsMidRun:
    def test_invariants_hold_throughout(self):
        """Pause the kernel every simulated 30 min and check the topology."""
        engine = FastGnutellaEngine(small_config(dynamic=True))
        engine.start()
        for checkpoint in range(1, 9):
            engine.sim.run(until=checkpoint * 1800.0)
            assert_invariants(engine)


class TestDeterminism:
    def test_same_seed_identical_metrics(self):
        a = FastGnutellaEngine(small_config()).run()
        b = FastGnutellaEngine(small_config()).run()
        assert a.total_queries == b.total_queries
        assert a.total_hits == b.total_hits
        assert (a.hits.counts == b.hits.counts).all()
        assert (a.messages.counts == b.messages.counts).all()
        assert a.first_result_delay.mean == b.first_result_delay.mean

    def test_different_seed_differs(self):
        a = FastGnutellaEngine(small_config(seed=1)).run()
        b = FastGnutellaEngine(small_config(seed=2)).run()
        assert a.total_queries != b.total_queries or a.total_hits != b.total_hits

    def test_paired_workload_across_schemes(self):
        """Static and dynamic must face the identical query/churn sequence."""
        cfg = small_config()
        a = FastGnutellaEngine(cfg.as_static()).run()
        b = FastGnutellaEngine(cfg.as_dynamic()).run()
        assert a.logins == b.logins
        assert a.logoffs == b.logoffs
        assert (a.queries.counts == b.queries.counts).all()


def library_entries(engine):
    """(node, item) pairs in the engine's live holder index."""
    holds = engine.holders.holds
    return sum(
        holds(node, item)
        for node in range(engine.config.n_users)
        for item in range(engine.config.n_items)
    )


class TestDownloads:
    def test_libraries_grow_with_downloads(self):
        engine = FastGnutellaEngine(small_config(downloads_grow_libraries=True))
        before = library_entries(engine)
        metrics = engine.run()
        after = library_entries(engine)
        assert after - before == metrics.total_hits

    def test_libraries_static_without_downloads(self):
        engine = FastGnutellaEngine(small_config(downloads_grow_libraries=False))
        before = library_entries(engine)
        engine.run()
        assert library_entries(engine) == before


class TestStatsPolicies:
    def test_persist_stats_survive_sessions(self):
        engine = FastGnutellaEngine(small_config(persist_stats=True))
        engine.run()
        # Someone with completed sessions should still hold statistics.
        assert any(len(p.stats) > 0 for p in engine.peers if p.sessions >= 2)

    def test_no_persist_clears_on_logoff(self):
        # decay=1.0 so the only clearing comes from log-off.
        engine = FastGnutellaEngine(
            small_config(persist_stats=False, stats_decay_on_update=1.0)
        )
        engine.run()
        for peer in engine.peers:
            if not peer.online:
                assert len(peer.stats) == 0


class TestConfigValidation:
    def test_too_few_categories_rejected(self):
        with pytest.raises(ConfigurationError):
            FastGnutellaEngine(small_config(n_categories=3, n_secondary=5, n_items=3000))


class TestTasteClustering:
    def test_dynamic_clusters_more_than_static(self):
        cfg = small_config(n_users=200, n_items=10000, horizon=12 * HOUR)
        static = FastGnutellaEngine(cfg.as_static())
        static.run()
        dynamic = FastGnutellaEngine(cfg.as_dynamic())
        dynamic.run()
        assert dynamic.taste_clustering() > static.taste_clustering()
