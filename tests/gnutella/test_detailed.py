"""Tests for the detailed (message-level) engine."""

import pytest

from repro.gnutella import DetailedGnutellaEngine, GnutellaConfig
from repro.net.message import MessageKind
from repro.types import HOUR


def small_config(**overrides):
    defaults = dict(
        n_users=50,
        n_items=2000,
        n_categories=10,
        mean_library=25.0,
        std_library=5.0,
        horizon=3 * HOUR,
        warmup_hours=0,
        queries_per_hour=6.0,
        max_hops=2,
        seed=11,
    )
    defaults.update(overrides)
    return GnutellaConfig(**defaults)


class TestBasics:
    def test_run_produces_queries_and_replies(self):
        engine = DetailedGnutellaEngine(small_config())
        metrics = engine.run()
        assert metrics.total_queries > 0
        assert engine.transport.sent_by_kind[MessageKind.QUERY] > 0
        if metrics.total_hits:
            assert engine.transport.sent_by_kind[MessageKind.QUERY_REPLY] > 0

    def test_message_buckets_match_transport(self):
        engine = DetailedGnutellaEngine(small_config())
        metrics = engine.run()
        assert metrics.messages_total() == engine.transport.sent_by_kind[MessageKind.QUERY]

    def test_delays_positive_and_below_timeout(self):
        engine = DetailedGnutellaEngine(small_config())
        metrics = engine.run()
        if metrics.first_result_delay.count:
            assert metrics.first_result_delay.min > 0
            assert metrics.first_result_delay.max <= engine.config.query_timeout

    def test_deterministic(self):
        a = DetailedGnutellaEngine(small_config()).run()
        b = DetailedGnutellaEngine(small_config()).run()
        assert a.total_queries == b.total_queries
        assert a.total_hits == b.total_hits
        assert (a.messages.counts == b.messages.counts).all()

    def test_dynamic_reconfigures(self):
        metrics = DetailedGnutellaEngine(small_config(dynamic=True)).run()
        assert metrics.reconfigurations > 0

    def test_offline_peers_unregistered(self):
        engine = DetailedGnutellaEngine(small_config())
        engine.run()
        for peer in engine.peers:
            assert engine.transport.is_registered(peer.node) == peer.online


class TestReplyRouting:
    def test_reply_reaches_initiator_over_two_hops(self):
        """Hand-built 3-node chain: 0-1-2, item only at 2."""
        cfg = small_config(n_users=3, queries_per_hour=0.001, horizon=600.0,
                          warmup_hours=0, downloads_grow_libraries=False)
        engine = DetailedGnutellaEngine(cfg)
        # Take manual control: no churn scheduling, just wire the world.
        engine._ran = True
        for node in range(3):
            engine.peers[node].online = True
            engine.transport.register(node, engine._on_message)
            engine.bootstrap.join(node)
        engine.protocol.link(0, 1)
        engine.protocol.link(1, 2)
        libs = engine.libraries.libraries
        item = next(iter(libs[2] - libs[1] - libs[0]))
        # Issue the query directly.
        engine.query_model.sample_item = lambda *a, **k: item
        engine._fire_query(0, engine.peers[0].query_epoch)
        engine.sim.run(until=500.0)
        assert engine.metrics.total_hits == 1
        d01 = engine.latency.one_way_delay(0, 1)
        d12 = engine.latency.one_way_delay(1, 2)
        expected = 2 * (d01 + d12)
        assert engine.metrics.first_result_delay.mean == pytest.approx(expected, rel=1e-9)

    def test_duplicate_queries_not_reprocessed(self):
        """Diamond 0-{1,2}-3: node 3 receives two copies, replies once."""
        cfg = small_config(n_users=4, queries_per_hour=0.001, horizon=600.0,
                          downloads_grow_libraries=False)
        engine = DetailedGnutellaEngine(cfg)
        engine._ran = True
        for node in range(4):
            engine.peers[node].online = True
            engine.transport.register(node, engine._on_message)
        engine.protocol.link(0, 1)
        engine.protocol.link(0, 2)
        engine.protocol.link(1, 3)
        engine.protocol.link(2, 3)
        libs = engine.libraries.libraries
        item = next(iter(libs[3] - libs[1] - libs[2] - libs[0]))
        engine.query_model.sample_item = lambda *a, **k: item
        engine._fire_query(0, engine.peers[0].query_epoch)
        engine.sim.run(until=500.0)
        assert engine.metrics.total_hits == 1
        assert engine.metrics.total_results == 1  # one reply despite two copies
        # 4 query messages: 0->1, 0->2, 1->3, 2->3.
        assert engine.metrics.messages_total() == 4

    def test_churn_race_drops_reply(self):
        """The responder's relay logs off while the reply is in flight."""
        cfg = small_config(n_users=3, queries_per_hour=0.001, horizon=600.0,
                          downloads_grow_libraries=False, dynamic=False)
        engine = DetailedGnutellaEngine(cfg)
        engine._ran = True
        for node in range(3):
            engine.peers[node].online = True
            engine.transport.register(node, engine._on_message)
            engine.bootstrap.join(node)
        engine.protocol.link(0, 1)
        engine.protocol.link(1, 2)
        libs = engine.libraries.libraries
        item = next(iter(libs[2] - libs[1] - libs[0]))
        engine.query_model.sample_item = lambda *a, **k: item
        engine._fire_query(0, engine.peers[0].query_epoch)
        # Kill the relay before the forward leg even reaches it? No — after
        # forwarding, before the reply passes back: one-way 0->1 plus 1->2
        # then reply 2->1. Log 1 off right after it forwards.
        d01 = engine.latency.one_way_delay(0, 1)
        engine.sim.schedule(d01 + 1e-6, engine._logoff, 1)
        engine.sim.run(until=500.0)
        assert engine.metrics.total_hits == 0
