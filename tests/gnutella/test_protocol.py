"""Tests for the instantaneous protocol layer (link ops + Algo 5)."""

import numpy as np
import pytest

from repro.core.soa import PeerArrays
from repro.errors import FrameworkError
from repro.gnutella.bootstrap import BootstrapServer
from repro.gnutella.metrics import SimulationMetrics
from repro.gnutella.protocol import GnutellaProtocol


def make_world(n=10, slots=4, always_accept=True):
    peers = PeerArrays(n, slots).peers()
    bootstrap = BootstrapServer()
    for p in peers:
        p.online = True
        bootstrap.join(p.node)
    metrics = SimulationMetrics(horizon=3600.0)
    protocol = GnutellaProtocol(peers, bootstrap, metrics, slots, always_accept)
    return peers, bootstrap, metrics, protocol


def assert_mutual(peers):
    for p in peers:
        for other in p.neighbors.outgoing:
            assert p.node in peers[other].neighbors.outgoing, (p.node, other)
        assert set(p.neighbors.outgoing.as_tuple()) == set(p.neighbors.incoming.as_tuple())


class TestLinkPrimitives:
    def test_link_mutual(self):
        peers, _, _, protocol = make_world()
        protocol.link(0, 1)
        assert 1 in peers[0].neighbors.outgoing
        assert 0 in peers[1].neighbors.outgoing
        assert_mutual(peers)

    def test_unlink_mutual(self):
        peers, _, _, protocol = make_world()
        protocol.link(0, 1)
        protocol.unlink(1, 0)
        assert peers[0].degree == 0
        assert peers[1].degree == 0

    def test_self_link_rejected(self):
        _, _, _, protocol = make_world()
        with pytest.raises(FrameworkError):
            protocol.link(2, 2)

    def test_evict_resets_evicted_stats_about_evictor(self):
        peers, _, metrics, protocol = make_world()
        protocol.link(0, 1)
        peers[1].stats.add_benefit(0, 9.0)
        peers[1].stats.add_benefit(5, 2.0)
        protocol.evict(0, 1)
        assert peers[1].stats.benefit_of(0) == 0.0
        assert peers[1].stats.benefit_of(5) == 2.0
        assert metrics.evictions == 1

    def test_eviction_hook_fires(self):
        peers, _, _, protocol = make_world()
        protocol.link(0, 1)
        fired = []
        protocol.on_eviction = fired.append
        protocol.evict(0, 1)
        assert fired == [1]


class TestFillRandom:
    def test_fills_all_slots(self):
        peers, _, _, protocol = make_world(n=20)
        formed = protocol.fill_random(0, np.random.default_rng(0))
        assert formed == 4
        assert peers[0].degree == 4
        assert_mutual(peers)

    def test_respects_partner_capacity(self):
        peers, bootstrap, _, protocol = make_world(n=3, slots=1)
        protocol.link(1, 2)  # both now full
        formed = protocol.fill_random(0, np.random.default_rng(0))
        assert formed == 0
        assert peers[0].degree == 0

    def test_no_self_or_duplicate_links(self):
        peers, _, _, protocol = make_world(n=6)
        protocol.fill_random(0, np.random.default_rng(1))
        out = peers[0].neighbors.outgoing.as_tuple()
        assert 0 not in out
        assert len(set(out)) == len(out)

    def test_offline_candidates_skipped(self):
        peers, bootstrap, _, protocol = make_world(n=6)
        # Nodes 2..5 offline (but stale in bootstrap to exercise the check).
        for n in range(2, 6):
            peers[n].online = False
        formed = protocol.fill_random(0, np.random.default_rng(2))
        assert set(peers[0].neighbors.outgoing.as_tuple()) <= {1}


class TestSeverAll:
    def test_drops_all_links_and_returns_ex_neighbors(self):
        peers, _, _, protocol = make_world()
        protocol.link(0, 1)
        protocol.link(0, 2)
        ex = protocol.sever_all(0)
        assert sorted(ex) == [1, 2]
        assert peers[0].degree == 0
        assert peers[1].degree == 0
        assert_mutual(peers)


class TestReconfigure:
    def test_adopts_most_beneficial_known_node(self):
        peers, _, _, protocol = make_world()
        peers[0].stats.add_benefit(7, 10.0)
        adopted = protocol.reconfigure(0)
        assert adopted == 1
        assert 7 in peers[0].neighbors.outgoing
        assert_mutual(peers)

    def test_single_swap_cap(self):
        peers, _, _, protocol = make_world()
        for candidate in (5, 6, 7, 8):
            peers[0].stats.add_benefit(candidate, float(candidate))
        protocol.reconfigure(0, max_swaps=1)
        assert peers[0].degree == 1  # only the best one adopted
        assert 8 in peers[0].neighbors.outgoing

    def test_full_list_swap_when_uncapped(self):
        peers, _, _, protocol = make_world()
        for candidate in (5, 6, 7, 8):
            peers[0].stats.add_benefit(candidate, float(candidate))
        protocol.reconfigure(0, max_swaps=None)
        assert peers[0].degree == 4
        assert set(peers[0].neighbors.outgoing.as_tuple()) == {5, 6, 7, 8}

    def test_full_node_evicts_worst_to_make_room(self):
        peers, _, _, protocol = make_world()
        for other in (1, 2, 3, 4):
            protocol.link(0, other)
            peers[0].stats.add_benefit(other, float(other))
        peers[0].stats.add_benefit(9, 100.0)
        protocol.reconfigure(0, max_swaps=1)
        assert 9 in peers[0].neighbors.outgoing
        assert 1 not in peers[0].neighbors.outgoing  # worst incumbent evicted
        assert peers[0].degree == 4
        assert_mutual(peers)

    def test_swap_margin_protects_incumbents(self):
        peers, _, _, protocol = make_world()
        for other in (1, 2, 3, 4):
            protocol.link(0, other)
            peers[0].stats.add_benefit(other, 10.0)
        peers[0].stats.add_benefit(9, 11.0)  # barely better
        protocol.reconfigure(0, max_swaps=1, swap_margin=0.5)
        assert 9 not in peers[0].neighbors.outgoing

    def test_offline_candidates_not_invited(self):
        peers, _, _, protocol = make_world()
        peers[7].online = False
        peers[0].stats.add_benefit(7, 10.0)
        peers[0].stats.add_benefit(6, 5.0)
        protocol.reconfigure(0)
        assert 7 not in peers[0].neighbors.outgoing
        assert 6 in peers[0].neighbors.outgoing

    def test_full_invitee_always_accepts_and_evicts(self):
        peers, _, metrics, protocol = make_world()
        # Fill node 7 completely.
        for other in (1, 2, 3, 4):
            protocol.link(7, other)
        peers[0].stats.add_benefit(7, 10.0)
        protocol.reconfigure(0)
        assert 7 in peers[0].neighbors.outgoing
        assert peers[7].degree == 4  # one evicted, inviter added
        assert_mutual(peers)
        assert metrics.evictions == 1

    def test_benefit_gated_invitee_can_refuse(self):
        peers, _, _, protocol = make_world(always_accept=False)
        for other in (1, 2, 3, 4):
            protocol.link(7, other)
            peers[7].stats.add_benefit(other, 5.0)
        peers[0].stats.add_benefit(7, 10.0)
        adopted = protocol.reconfigure(0)
        assert adopted == 0
        assert 7 not in peers[0].neighbors.outgoing

    def test_counters_reset(self):
        peers, _, metrics, protocol = make_world()
        peers[0].requests_since_update = 5
        peers[7].requests_since_update = 5
        peers[0].stats.add_benefit(7, 10.0)
        protocol.reconfigure(0)
        assert peers[0].requests_since_update == 0
        assert peers[7].requests_since_update == 0  # invitee damped
        assert metrics.reconfigurations == 1

    def test_stats_decay_applied(self):
        peers, _, _, protocol = make_world()
        peers[0].stats.add_benefit(7, 10.0)
        protocol.reconfigure(0, stats_decay=0.5)
        assert peers[0].stats.benefit_of(7) == 5.0

    def test_stats_clear_at_zero_decay(self):
        peers, _, _, protocol = make_world()
        peers[0].stats.add_benefit(7, 10.0)
        protocol.reconfigure(0, stats_decay=0.0)
        assert len(peers[0].stats) == 0

    def test_noop_when_already_optimal(self):
        peers, _, metrics, protocol = make_world()
        protocol.link(0, 1)
        peers[0].stats.add_benefit(1, 10.0)
        adopted = protocol.reconfigure(0)
        assert adopted == 0
        assert metrics.evictions == 0
