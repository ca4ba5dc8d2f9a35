"""Tests for the asymmetric-relations counterfactual (Section 4.1's claim)."""

import math

import numpy as np
import pytest

from repro.core.soa import PeerArrays
from repro.gnutella import GnutellaConfig
from repro.gnutella.asymmetric import (
    AsymmetricFastEngine,
    AsymmetricProtocol,
    service_gini,
)
from repro.gnutella.bootstrap import BootstrapServer
from repro.gnutella.metrics import SimulationMetrics
from repro.types import HOUR


def small_config(**overrides):
    defaults = dict(
        n_users=80,
        n_items=4000,
        n_categories=10,
        mean_library=40.0,
        std_library=8.0,
        horizon=5 * HOUR,
        warmup_hours=1,
        queries_per_hour=6.0,
        max_hops=2,
        seed=9,
    )
    defaults.update(overrides)
    return GnutellaConfig(**defaults)


class TestServiceGini:
    def test_equal_loads_zero(self):
        assert service_gini(np.array([5, 5, 5, 5])) == pytest.approx(0.0)

    def test_single_server_near_one(self):
        g = service_gini(np.array([100] + [0] * 99))
        assert g > 0.95

    def test_empty_and_degenerate(self):
        assert service_gini(np.array([0, 0, 0])) == 0.0
        assert service_gini(np.array([7])) == 0.0

    def test_monotone_in_skew(self):
        mild = service_gini(np.array([10, 8, 6, 4]))
        harsh = service_gini(np.array([25, 1, 1, 1]))
        assert harsh > mild


def make_world(n=10, slots=3):
    peers = PeerArrays(n, slots, math.inf).peers()
    for p in peers:
        p.online = True
    bootstrap = BootstrapServer()
    for p in peers:
        bootstrap.join(p.node)
    metrics = SimulationMetrics(horizon=3600.0)
    return peers, bootstrap, metrics, AsymmetricProtocol(peers, bootstrap, metrics, slots)


class TestAsymmetricProtocol:
    def test_directed_link(self):
        peers, _, _, protocol = make_world()
        protocol.link(0, 1)
        assert 1 in peers[0].neighbors.outgoing
        assert 0 in peers[1].neighbors.incoming
        assert 0 not in peers[1].neighbors.outgoing  # NOT mutual

    def test_unbounded_incoming(self):
        peers, _, _, protocol = make_world()
        for consumer in range(1, 10):
            protocol.link(consumer, 0)
        assert len(peers[0].neighbors.incoming) == 9

    def test_reconfigure_unilateral(self):
        peers, _, metrics, protocol = make_world()
        peers[0].stats.add_benefit(7, 10.0)
        protocol.reconfigure(0)
        assert 7 in peers[0].neighbors.outgoing
        assert 0 not in peers[7].neighbors.outgoing  # target unaffected
        assert metrics.invitations == 0  # no handshake ever

    def test_fill_random_ignores_target_capacity(self):
        peers, _, _, protocol = make_world(n=5, slots=3)
        # Everyone points at node 0 first; it can still gain consumers.
        for consumer in (1, 2, 3, 4):
            protocol.link(consumer, 0)
        formed = protocol.fill_random(0, np.random.default_rng(0))
        assert formed == 3  # all its own slots fill despite being "popular"

    def test_sever_all_returns_consumers(self):
        peers, _, _, protocol = make_world()
        protocol.link(0, 5)   # 0 consumes from 5
        protocol.link(3, 0)   # 3 consumes from 0
        consumers = protocol.sever_all(0)
        assert consumers == [3]
        assert len(peers[0].neighbors.outgoing) == 0
        assert len(peers[0].neighbors.incoming) == 0
        assert 0 not in peers[3].neighbors.outgoing
        assert 0 not in peers[5].neighbors.incoming


class TestAsymmetricEngine:
    def test_runs_clean_with_invariants(self):
        engine = AsymmetricFastEngine(small_config())
        metrics = engine.run()
        assert metrics.total_queries > 0
        for peer in engine.peers:
            out = peer.neighbors.outgoing.as_tuple()
            assert len(out) <= engine.config.neighbor_slots
            if not peer.online:
                assert out == ()
                assert len(peer.neighbors.incoming) == 0
            # Directed consistency: out-edge implies incoming entry there.
            for other in out:
                assert peer.node in engine.peers[other].neighbors.incoming

    def test_deterministic(self):
        a = AsymmetricFastEngine(small_config()).run()
        b = AsymmetricFastEngine(small_config()).run()
        assert a.total_hits == b.total_hits
        assert (a.messages.counts == b.messages.counts).all()

    def test_papers_imbalance_claim(self):
        """Section 4.1: asymmetric relations let popular nodes be consumed
        without reciprocity. Quantified: the asymmetric scheme's service
        load is far more skewed than the symmetric scheme's, and its most
        popular supplier carries far more consumers than any symmetric node
        could (slots cap incoming at 4 there)."""
        from repro.gnutella import FastGnutellaEngine

        cfg = small_config(n_users=150, n_items=7500, horizon=10 * HOUR)
        asym = AsymmetricFastEngine(cfg.as_dynamic())
        asym.run()
        # Symmetric reference: track served results the same way.
        sym = FastGnutellaEngine(cfg.as_dynamic())
        served = np.zeros(150, dtype=np.int64)
        original = sym._record_benefit

        def tracking(peer, outcome):
            for result in outcome.results:
                served[result.responder] += 1
            original(peer, outcome)

        sym._record_benefit = tracking
        sym.run()

        assert asym.service_gini() > service_gini(served) + 0.1
        assert asym.incoming_degree_max() > cfg.neighbor_slots * 2
