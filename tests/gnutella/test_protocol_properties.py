"""Property tests: the protocol must preserve topology invariants under any
interleaving of churn, random fills, and reconfigurations — and
``reconfigure`` / ``fill_random`` must do exactly what the bodies they
replaced did (kept below as ``reference_*``), generator state included."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.soa import PeerArrays
from repro.core.update import plan_reconfiguration, process_invitation, reconfiguration_actions
from repro.gnutella.bootstrap import BootstrapServer
from repro.gnutella.metrics import SimulationMetrics
from repro.gnutella.protocol import GnutellaProtocol
from tests.gnutella.test_bootstrap import reference_sample

N_PEERS = 12
SLOTS = 3


def check_invariants(peers):
    for peer in peers:
        out = peer.neighbors.outgoing.as_tuple()
        assert len(out) <= SLOTS
        assert peer.node not in out
        assert len(set(out)) == len(out)
        assert set(out) == set(peer.neighbors.incoming.as_tuple())
        for other in out:
            assert peer.node in peers[other].neighbors.outgoing.as_tuple()
        if not peer.online:
            assert out == ()


@given(
    st.integers(0, 2**31 - 1),
    st.lists(
        st.tuples(st.integers(0, 3), st.integers(0, N_PEERS - 1)),
        min_size=5,
        max_size=80,
    ),
)
@settings(max_examples=30, deadline=None)
def test_random_operation_interleavings(seed, ops):
    """Operations: 0=toggle churn, 1=fill_random, 2=reconfigure, 3=credit a
    random peer with benefit (feeding future reconfigurations)."""
    rng = np.random.default_rng(seed)
    peers = PeerArrays(N_PEERS, SLOTS).peers()
    bootstrap = BootstrapServer()
    metrics = SimulationMetrics(horizon=3600.0)
    protocol = GnutellaProtocol(peers, bootstrap, metrics, SLOTS)

    for op, node in ops:
        peer = peers[node]
        if op == 0:
            if peer.online:
                peer.online = False
                bootstrap.leave(node)
                protocol.sever_all(node)
            else:
                peer.online = True
                bootstrap.join(node)
        elif op == 1 and peer.online:
            protocol.fill_random(node, rng)
        elif op == 2 and peer.online:
            protocol.reconfigure(node, max_swaps=1, stats_decay=0.5)
        elif op == 3 and peer.online:
            other = int(rng.integers(N_PEERS))
            if other != node:
                peer.stats.add_benefit(other, float(rng.random()) + 0.01)
        check_invariants(peers)


# ---------------------------------------------------------------------------
# reconfigure / fill_random against the bodies they replaced
# ---------------------------------------------------------------------------
def reference_reconfigure(protocol, node, max_swaps=1, swap_margin=0.0, stats_decay=1.0):
    """``GnutellaProtocol.reconfigure`` the long way round: every call plans,
    builds its action records, sorts its evictions and walks its invitations,
    also when the peer has no statistics or the plan confirms what it has."""
    peer = protocol.peers[node]
    current = peer.neighbors.outgoing.as_tuple()
    desired = plan_reconfiguration(
        current, peer.stats, protocol.slots, exclude=(node,), eligible=protocol._is_online
    )
    invites, evicts = reconfiguration_actions(node, current, desired)
    if max_swaps is None:
        for action in evicts:
            protocol.evict(node, action.evicted)
        pending_evicts = []
    else:
        invites = invites[:max_swaps]
        pending_evicts = sorted(
            evicts, key=lambda a: (peer.stats.benefit_of(a.evicted), a.evicted)
        )
    adopted = 0
    evict_iter = iter(pending_evicts)
    for action in invites:
        invitee = protocol.peers[action.invitee]
        if not invitee.online or action.invitee in peer.neighbors.outgoing:
            continue
        if peer.neighbors.outgoing.is_full:
            victim = next(evict_iter, None)
            if victim is None:
                break
            challenger_benefit = peer.stats.benefit_of(action.invitee)
            incumbent_benefit = peer.stats.benefit_of(victim.evicted)
            if challenger_benefit <= (1.0 + swap_margin) * incumbent_benefit:
                break
            protocol.evict(node, victim.evicted)
        protocol.metrics.invitations += 1
        decision = process_invitation(
            invitee.neighbors, node, invitee.stats, always_accept=protocol.always_accept
        )
        if not decision.accepted:
            continue
        if decision.evicted is not None:
            protocol.evict(action.invitee, decision.evicted)
        protocol.link(node, action.invitee)
        invitee.requests_since_update = 0
        adopted += 1
    peer.requests_since_update = 0
    protocol._note_reconfiguration(node, adopted, len(invites))
    if stats_decay == 0.0:
        peer.stats.clear()
    elif stats_decay < 1.0:
        peer.stats.decay(stats_decay)
    return adopted


def reference_fill_random(protocol, node, rng):
    """``GnutellaProtocol.fill_random`` as the pinned digests were drawn with:
    an exclusion list per round for ``sample`` to copy into a set, and
    ``has_free_slot`` re-read per candidate."""
    peer = protocol.peers[node]
    formed = 0
    attempts = 0
    while peer.has_free_slot and attempts < 4:
        attempts += 1
        exclude = [node, *peer.neighbors.outgoing]
        want = int(peer.neighbors.outgoing.free_slots)
        candidates = reference_sample(protocol.bootstrap, rng, 2 * want, exclude=exclude)
        if not candidates:
            break
        linked_this_round = 0
        for candidate in candidates:
            if not peer.has_free_slot:
                break
            if protocol._is_linkable(candidate):
                protocol.link(node, candidate)
                formed += 1
                linked_this_round += 1
        if linked_this_round == 0 and len(candidates) >= len(protocol.bootstrap) - 1:
            break
    return formed


class World:
    """One population, its protocol, a clock the test turns, an eviction log."""

    def __init__(self, reference, always_accept=True):
        peers = PeerArrays(N_PEERS, SLOTS).peers()
        self.peers = peers
        self.bootstrap = BootstrapServer()
        self.metrics = SimulationMetrics(horizon=4 * 3600.0)
        self.protocol = GnutellaProtocol(
            peers, self.bootstrap, self.metrics, SLOTS, always_accept
        )
        self.clock = 0.0
        self.protocol.now = lambda: self.clock
        self.evicted = []
        self.protocol.on_eviction = self.evicted.append
        if reference:
            self.reconfigure = lambda *args: reference_reconfigure(self.protocol, *args)
            self.fill_random = lambda *args: reference_fill_random(self.protocol, *args)
        else:
            self.reconfigure = self.protocol.reconfigure
            self.fill_random = self.protocol.fill_random

    def toggle(self, node):
        peer = self.peers[node]
        if peer.online:
            peer.online = False
            self.bootstrap.leave(node)
            self.protocol.sever_all(node)
        else:
            peer.online = True
            self.bootstrap.join(node)

    def apply(self, op, node, other, rng, reconfigure_args):
        """Operations: 0=toggle churn, 1=fill_random, 2=reconfigure, 3=credit a
        peer with benefit, 4=an hour passes. Returns what the call returned."""
        if op == 0:
            self.toggle(node)
        elif op == 4:
            self.clock += 3600.0
        elif not self.peers[node].online:
            return None
        elif op == 1:
            return self.fill_random(node, rng)
        elif op == 2:
            return self.reconfigure(node, *reconfigure_args)
        elif other != node:
            self.peers[node].stats.add_benefit(other, float((node + other) % 4))
        return None

    def state(self):
        """Everything but the rankings: reading one repairs the table's cached
        order, which is the state the planner starts from."""
        metrics = self.metrics
        return (
            [
                (
                    peer.online,
                    peer.requests_since_update,
                    peer.neighbors.outgoing.as_tuple(),
                    peer.neighbors.incoming.as_tuple(),
                    [
                        (n, peer.stats.benefit_of(n), peer.stats.encounters_of(n))
                        for n in peer.stats.known_nodes()
                    ],
                )
                for peer in self.peers
            ],
            (metrics.reconfigurations, metrics.invitations, metrics.evictions),
            metrics.reconfigs.counts.tolist(),
            self.evicted,
            self.bootstrap.online_nodes(),
        )


@given(
    seed=st.integers(0, 2**31 - 1),
    ops=st.lists(
        st.tuples(st.integers(0, 4), st.integers(0, N_PEERS - 1), st.integers(0, N_PEERS - 1)),
        min_size=5,
        max_size=120,
    ),
    max_swaps=st.sampled_from([1, 2, None]),
    swap_margin=st.sampled_from([0.0, 0.5]),
    stats_decay=st.sampled_from([0.0, 0.5, 1.0]),
    always_accept=st.booleans(),
)
@settings(max_examples=150, deadline=None)
def test_property_same_world_as_the_replaced_bodies(
    seed, ops, max_swaps, swap_margin, stats_decay, always_accept
):
    """Same returns, links, counters, hourly series, ledgers, eviction
    notices and generator state after every operation; same rankings at the end."""
    new, old = World(False, always_accept), World(True, always_accept)
    rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    reconfigure_args = (max_swaps, swap_margin, stats_decay)
    for op, node, other in ops:
        got = new.apply(op, node, other, rng, reconfigure_args)
        assert got == old.apply(op, node, other, ref_rng, reconfigure_args)
        assert new.state() == old.state()
        assert rng.bit_generator.state == ref_rng.bit_generator.state
    assert [p.stats.ranked() for p in new.peers] == [p.stats.ranked() for p in old.peers]
    check_invariants(new.peers)


@pytest.mark.parametrize("stats_decay", [0.0, 0.5, 1.0])
@pytest.mark.parametrize("max_swaps", [1, None])
@pytest.mark.parametrize("layout", ["soa"])  # a fixed id segment: stable test ids
class TestNothingToExchange:
    """The two early ways out of ``reconfigure`` book what the full walk books."""

    def worlds(self):
        worlds = World(False), World(True)
        for world in worlds:
            for node in range(N_PEERS):
                world.toggle(node)
            world.protocol.link(0, 1)
            world.protocol.link(0, 2)
            world.peers[0].requests_since_update = 3
            world.clock = 3600.0 + 7.0
        return worlds

    def test_statless_peer(self, layout, max_swaps, stats_decay):
        new, old = self.worlds()
        for world in (new, old):
            assert world.reconfigure(0, max_swaps, 0.0, stats_decay) == 0
        assert new.state() == old.state()
        assert new.peers[0].neighbors.outgoing.as_tuple() == (1, 2)
        assert new.peers[0].requests_since_update == 0
        assert new.metrics.reconfigurations == 1
        assert new.metrics.reconfigs.counts.tolist() == [0, 1, 0, 0]

    def test_confirmed_neighbourhood(self, layout, max_swaps, stats_decay):
        new, old = self.worlds()
        for world in (new, old):
            world.peers[0].stats.add_benefit(1, 4.0)
            world.peers[0].stats.add_benefit(2, 2.0)
            world.peers[0].stats.add_benefit(5, 1.0)  # known, outranked: 3 slots
            world.toggle(5)  # ... and offline anyway
            assert world.reconfigure(0, max_swaps, 0.0, stats_decay) == 0
        assert new.state() == old.state()
        assert new.peers[0].neighbors.outgoing.as_tuple() == (1, 2)
        assert new.metrics.invitations == new.metrics.evictions == 0
        assert new.metrics.reconfigs.counts.tolist() == [0, 1, 0, 0]
        kept = [(n, b * stats_decay, 1) for n, b in ((1, 4.0), (2, 2.0), (5, 1.0)) if stats_decay]
        assert new.state()[0][0][4] == kept
        assert new.peers[0].stats.ranked() == old.peers[0].stats.ranked() == [n for n, _, _ in kept]
