"""Algo 5's control-plane logic, applied instantaneously.

Both engines agree on *what* a reconfiguration does; this module implements
the doing for engines that treat control traffic as instantaneous relative to
churn (the fast engine; the detailed engine ships the same decisions as real
messages). The decision logic itself lives in :mod:`repro.core.update` — this
is glue between those pure functions and the live peer population, whose
:class:`~repro.core.soa.PeerArrays` columns it reads and writes directly.

Link maintenance policy: Gnutella peers keep their neighbor count topped up
(a peer that lost a neighbor looks for a replacement via the bootstrap /
Ping-Pong machinery). Both schemes therefore *fill remaining free slots with
random online candidates*; the dynamic scheme differs by first claiming slots
for the statistically best peers via invitations. With an empty statistics
table a dynamic reconfiguration degenerates to exactly the static behaviour,
which is why Figure 3(b)'s T=1 point sits near the static line.

Every link mutation here (:meth:`GnutellaProtocol.link`,
:meth:`~GnutellaProtocol.unlink`, :meth:`~GnutellaProtocol.sever_all`) lands
in the population's :class:`~repro.core.soa.NeighborTable` slabs in place —
so the protocol is also what keeps the flood fast path's view of the overlay
current on link add, sever, and logoff.
"""

from __future__ import annotations

from repro.core.soa import PeerArrays, SoANeighborState, SoAPeerList
from repro.core.update import (
    EvictAction,
    InviteAction,
    plan_reconfiguration,
    process_invitation,
    reconfiguration_actions,
)
from repro.errors import FrameworkError
from repro.gnutella.bootstrap import BootstrapServer
from repro.gnutella.metrics import SimulationMetrics
from repro.obs.trace import NULL_TRACER, PID_PROTOCOL
from repro.rng import Draws
from repro.types import NodeId

__all__ = ["GnutellaProtocol"]


class GnutellaProtocol:
    """Instantaneous link management over a peer population.

    Parameters
    ----------
    peers:
        The population's columns (:class:`~repro.core.soa.PeerArrays`), or
        a view list over them (:meth:`~repro.core.soa.PeerArrays.peers`),
        whose ``arrays`` the protocol then uses.
    bootstrap:
        The host-cache server (random candidate source).
    metrics:
        Counter sink for reconfigurations/invitations/evictions.
    slots:
        Symmetric neighbor capacity.
    always_accept:
        Algo 5 (iv) invitation policy.
    """

    #: Incoming capacity the relation needs, for
    #: :class:`~repro.core.soa.PeerArrays`: symmetric links mirror the
    #: outgoing rows, so ``None`` (the ``slots`` stride).
    in_capacity: float | None = None

    def __init__(
        self,
        peers: PeerArrays | SoAPeerList,
        bootstrap: BootstrapServer,
        metrics: SimulationMetrics,
        slots: int,
        always_accept: bool = True,
    ) -> None:
        #: The population's columns, read and written in place.
        self.arrays = arrays = peers if isinstance(peers, PeerArrays) else peers.arrays
        self.bootstrap = bootstrap
        self.metrics = metrics
        self.slots = slots
        self.always_accept = always_accept
        #: Optional hook fired after every eviction with the evicted node.
        #: The fast engine uses it to schedule prompt random refill (the
        #: ``evicted_refill_immediate`` policy); it must not rewire links
        #: synchronously — a reconfiguration may be mid-flight.
        self.on_eviction = None
        #: Observability (repro.obs): the engine's tracer, installed by
        #: ``FastGnutellaEngine.attach_tracer``. Emission is guarded by
        #: ``tracer.enabled`` and observes only; it never draws RNG or
        #: schedules events.
        self.tracer = NULL_TRACER
        #: Clock callable. The protocol has no kernel reference of its own —
        #: control actions are instantaneous — so the engines lend it
        #: ``sim.now`` at construction; standalone protocol instances (unit
        #: tests) run at a frozen t=0. Used for trace timestamps and the
        #: per-hour reconfiguration series.
        self.now = lambda: 0.0
        # Hot-path predicates, bound once, reading the online bitmap and
        # degree column directly: the `eligible` check inside
        # plan_reconfiguration and the candidate filter in fill_random are
        # the protocol's innermost loops, and a bytearray index beats a
        # view-object property chase.
        online = arrays.online
        deg = arrays.out.deg
        cap = arrays.out.slots

        def _is_online(n: NodeId) -> bool:
            return online[n] != 0

        def _is_linkable(n: NodeId) -> bool:
            return online[n] != 0 and deg[n] < cap

        self._is_online = _is_online
        self._is_linkable = _is_linkable

    @property
    def peers(self) -> SoAPeerList:
        """Per-peer views over :attr:`arrays`, for tools and tests."""
        return self.arrays.peers()

    # ------------------------------------------------------------------
    # Link primitives
    # ------------------------------------------------------------------
    def link(self, a: NodeId, b: NodeId) -> None:
        """Create the mutual neighborhood ``a <-> b``."""
        if a == b:
            raise FrameworkError(f"peer {a} cannot neighbor itself")
        out, incoming = self.arrays.out, self.arrays.incoming
        out.add(a, b)
        incoming.add(a, b)
        out.add(b, a)
        incoming.add(b, a)

    def unlink(self, a: NodeId, b: NodeId) -> None:
        """Dissolve the mutual neighborhood ``a <-> b``."""
        out, incoming = self.arrays.out, self.arrays.incoming
        out.remove(a, b)
        incoming.remove(a, b)
        out.remove(b, a)
        incoming.remove(b, a)

    def evict(self, evictor: NodeId, evicted: NodeId) -> None:
        """Unlink plus Process_Eviction at the evicted side.

        The evicted peer resets its statistics about the evictor "so that it
        will not attempt to reconnect in the near future"; it does *not*
        replace the lost neighbor immediately (Algo 5).
        """
        self.unlink(evictor, evicted)
        self.arrays.reset_stats(evicted, evictor)
        self.metrics.evictions += 1
        if self.tracer.enabled:
            self.tracer.instant(
                "evict",
                "protocol",
                self.now(),
                pid=PID_PROTOCOL,
                tid=int(evictor),
                args={"evicted": int(evicted)},
            )
        if self.on_eviction is not None:
            self.on_eviction(evicted)

    # ------------------------------------------------------------------
    # Algo 5 Reconfigure + Process_Invitation
    # ------------------------------------------------------------------
    def reconfigure(
        self,
        node: NodeId,
        max_swaps: int | None = 1,
        swap_margin: float = 0.0,
        stats_decay: float = 1.0,
    ) -> int:
        """Run one reconfiguration at ``node``; returns adopted-link count.

        Computes the ``slots`` most beneficial online peers and moves the
        neighborhood toward that list. ``max_swaps`` caps how many
        invite/evict pairs happen now: the paper exchanges **one** neighbor
        per reconfiguration (Section 4.3), which keeps neighborhoods diverse
        while they converge; ``None`` applies the literal Algo 5 list swap in
        one shot (evict everything undesired, invite every newcomer).

        Invited peers always accept (or benefit-gate, per construction),
        evicting their own least beneficial neighbor when full and resetting
        their periodic counter to damp cascades. Evictions at this node only
        happen to make room (single-swap mode) or per the full plan
        (``max_swaps=None``).
        """
        arrays = self.arrays
        stats = arrays.stats[node]
        adopted = invited = 0
        # Most calls have nothing to exchange: a peer without statistics
        # desires exactly the list it has, and most plans confirm the
        # neighborhood. Those go straight to the bookkeeping.
        if stats is not None and len(stats):
            current = arrays.out.row_tuple(node)
            desired = plan_reconfiguration(
                current,
                stats,
                self.slots,
                exclude=(node,),
                eligible=self._is_online,
            )
            invites, evicts = reconfiguration_actions(node, current, desired)
            if invites or (evicts and max_swaps is None):
                adopted, invited = self._exchange(node, invites, evicts, max_swaps, swap_margin)
        arrays.requests_since_update[node] = 0
        self._note_reconfiguration(node, adopted, invited)
        if stats is None:
            return adopted
        if stats_decay == 0.0:
            stats.clear()
        elif stats_decay < 1.0:
            # Age the evidence: the next update is dominated by the results
            # observed in its own window (see GnutellaConfig docs).
            stats.decay(stats_decay)
        return adopted

    def _exchange(
        self,
        node: NodeId,
        invites: list[InviteAction],
        evicts: list[EvictAction],
        max_swaps: int | None,
        swap_margin: float,
    ) -> tuple[int, int]:
        """Carry out a plan's invitations and evictions at ``node``.

        Returns ``(adopted, invited)``: links formed, invitations the
        ``max_swaps`` cap let through.
        """
        arrays = self.arrays
        stats = arrays.stats_or_empty(node)
        online, out = arrays.online, arrays.out
        if max_swaps is None:
            # Literal Algo 5: all undesired neighbors are evicted up front.
            for action in evicts:
                self.evict(node, action.evicted)
            pending_evicts: list = []
        else:
            invites = invites[:max_swaps]
            # Evict lazily, least beneficial first, only to make room.
            pending_evicts = sorted(
                evicts, key=lambda a: (stats.benefit_of(a.evicted), a.evicted)
            )
        adopted = 0
        evict_iter = iter(pending_evicts)
        for action in invites:
            invitee = action.invitee
            if not online[invitee] or out.contains(node, invitee):
                continue
            if out.deg[node] >= out.slots:
                victim = next(evict_iter, None)
                if victim is None:
                    break
                # Hysteresis: displacing a connected neighbor requires the
                # challenger to clearly dominate it; without this, churn
                # rotates the benefit ranking and reconfigurations thrash.
                challenger_benefit = stats.benefit_of(invitee)
                incumbent_benefit = stats.benefit_of(victim.evicted)
                if challenger_benefit <= (1.0 + swap_margin) * incumbent_benefit:
                    break  # invites are benefit-ordered; later ones are worse
                self.evict(node, victim.evicted)
            self.metrics.invitations += 1
            if self.tracer.enabled:
                self.tracer.instant(
                    "invite",
                    "protocol",
                    self.now(),
                    pid=PID_PROTOCOL,
                    tid=int(node),
                    args={"invitee": int(invitee)},
                )
            decision = process_invitation(
                SoANeighborState(arrays, invitee),
                node,
                arrays.stats_or_empty(invitee),
                always_accept=self.always_accept,
            )
            if not decision.accepted:
                continue
            if decision.evicted is not None:
                self.evict(invitee, decision.evicted)
            self.link(node, invitee)
            arrays.requests_since_update[invitee] = 0
            adopted += 1
        return adopted, len(invites)

    def _note_reconfiguration(self, node: NodeId, adopted: int, invites: int) -> None:
        """Book one completed reconfiguration: counters, series, trace."""
        self.metrics.record_reconfiguration(self.now())
        if self.tracer.enabled:
            self.tracer.instant(
                "reconfigure",
                "protocol",
                self.now(),
                pid=PID_PROTOCOL,
                tid=int(node),
                args={"adopted": adopted, "invites": invites},
            )

    # ------------------------------------------------------------------
    # Random acquisition (login / slot top-up; both schemes)
    # ------------------------------------------------------------------
    def fill_random(self, node: NodeId, rng: Draws) -> int:
        """Fill ``node``'s free slots with random online peers that also
        have a free slot; returns the number of links formed.

        This is the static scheme's whole neighbor policy and the shared
        degree-maintenance fallback of the dynamic scheme.
        """
        out = self.arrays.out
        linkable = self._is_linkable
        formed = 0
        # Each round samples fresh candidates; stop when full or the online
        # population offers nothing linkable.
        for _ in range(4):
            want = out.slots - out.deg[node]
            if want <= 0:
                break
            candidates = self.bootstrap.sample(rng, 2 * want, {node, *out.row(node)})
            if not candidates:
                break
            linked_this_round = 0
            for candidate in candidates:
                if linkable(candidate):
                    self.link(node, candidate)
                    linked_this_round += 1
                    if linked_this_round == want:
                        break
            formed += linked_this_round
            if linked_this_round == 0 and len(candidates) >= len(self.bootstrap) - 1:
                break  # whole population sampled; nobody has room
        return formed

    # ------------------------------------------------------------------
    # Churn handling
    # ------------------------------------------------------------------
    def sever_all(self, node: NodeId) -> list[NodeId]:
        """Drop all of ``node``'s links (log-off); returns ex-neighbors."""
        ex = self.arrays.out.row(node)
        for other in ex:
            self.unlink(node, other)
        return ex
