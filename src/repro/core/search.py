"""The generic search mechanism (Algo 1).

``generic_search`` executes one query as a hop-layered BFS over an abstract
:class:`NetworkView`, with:

* duplicate suppression — a node processes each query once; duplicate
  deliveries still count as messages (they consume bandwidth);
* responder short-circuit — a node holding the result replies and does not
  propagate (the case study's behaviour; ``forward_from_holders=True``
  restores the extensive-search variant some systems use);
* pluggable termination (:mod:`~repro.core.termination`) and forwarding
  selection (:mod:`~repro.core.selection`);
* analytic delays — a result's delay is the accumulated link delay along its
  discovery path, doubled, because replies route back along the reverse path
  (the Gnutella convention).

This one function is the reference semantics tested against the
message-level engine, so it avoids allocation in the inner loop where
reasonable. For the default flood configuration the fast Gnutella engine
routes queries to the specialized twin in :mod:`repro.core.fastpath`, which
must stay *bit-identical* to this function — ``generic_search`` is the
oracle the fast path is property-tested against.
"""

from __future__ import annotations

from collections import deque
from typing import Protocol, Sequence, runtime_checkable

import numpy as np

from repro.core.selection import SelectAll, SelectionPolicy
from repro.core.statistics import StatsTable
from repro.core.termination import Termination
from repro.types import ItemId, NodeId, QueryOutcome, QueryResult

__all__ = ["NetworkView", "generic_search", "iterative_deepening_search"]

_EMPTY_STATS = StatsTable()

#: Shared fallback generator for callers that pass no ``rng``. Those callers
#: use non-drawing selection (the default flood never samples), so this
#: sentinel only satisfies the ``SelectionPolicy.select`` signature — hoisted
#: to module level so the hot path does not allocate a fresh ``Generator``
#: per query. Pass an explicit ``rng`` for any policy that actually draws.
_SENTINEL_RNG = np.random.default_rng(0)


@runtime_checkable
class NetworkView(Protocol):
    """What the search engine needs to know about the world."""

    def holds(self, node: NodeId, item: ItemId) -> bool:
        """Whether ``node`` can serve ``item`` locally."""
        ...

    def neighbors(self, node: NodeId) -> Sequence[NodeId]:
        """``node``'s outgoing neighbors that are currently reachable."""
        ...

    def link_delay(self, a: NodeId, b: NodeId) -> float:
        """One-way delay of the ``a``-``b`` link, in seconds."""
        ...


def generic_search(
    view: NetworkView,
    initiator: NodeId,
    item: ItemId,
    termination: Termination,
    selection: SelectionPolicy | None = None,
    stats: StatsTable | None = None,
    rng: np.random.Generator | None = None,
    issued_at: float = 0.0,
    forward_from_holders: bool = False,
) -> QueryOutcome:
    """Run one query and return what the initiator observes.

    Parameters
    ----------
    view:
        The network (holdings, live neighbor lists, link delays).
    initiator:
        Node issuing the query. Assumed not to hold ``item`` itself (callers
        filter local hits; Algo 1 only reaches the network "if the request
        can not be satisfied locally").
    item:
        The item searched for.
    termination:
        Propagation stop condition (hop limit, result cap, ...).
    selection:
        Which neighbors receive the query at each node; default floods.
    stats / rng:
        Passed through to history-based / randomized selection policies.
    issued_at:
        Timestamp recorded in the outcome (the engine works in relative
        delays internally).
    forward_from_holders:
        If true, nodes holding the item forward the query anyway (extensive
        search, Section 3.2's music-sharing remark); default matches the
        case study where holders reply and stop.
    """
    if selection is None:
        selection = SelectAll()
    if stats is None:
        stats = _EMPTY_STATS
    if rng is None:
        rng = _SENTINEL_RNG

    results: list[QueryResult] = []
    messages = 0
    # Nodes that have processed the query (first-delivery wins); the
    # initiator never processes its own query.
    seen: set[NodeId] = {initiator}
    # FIFO of (node, sender, hops, trace_idx); hop-layered because every
    # entry at hop h is enqueued before any entry at h+1. Link delays are
    # NOT accumulated here — most frontier entries never become results, so
    # each result's path delay is reconstructed lazily from the parent trace
    # (a large win on the simulation hot path).
    frontier: deque[tuple[NodeId, NodeId, int, int]] = deque()
    # trace[i] = (node, parent_trace_idx); parent -1 means the initiator.
    trace: list[tuple[NodeId, int]] = []

    def path_delay(idx: int) -> float:
        total = 0.0
        node, parent = trace[idx]
        while parent >= 0:
            prev, grandparent = trace[parent]
            total += view.link_delay(prev, node)
            node, parent = prev, grandparent
        return total + view.link_delay(initiator, node)

    first_targets = selection.select(view.neighbors(initiator), stats, rng)
    for target in first_targets:
        messages += 1
        trace.append((target, -1))
        frontier.append((target, initiator, 1, len(trace) - 1))

    while frontier:
        node, sender, hops, idx = frontier.popleft()
        if node in seen:
            continue  # duplicate delivery: counted on send, discarded here
        seen.add(node)

        if view.holds(node, item):
            results.append(
                QueryResult(
                    responder=node, item=item, hops=hops, delay=2.0 * path_delay(idx)
                )
            )
            if not forward_from_holders:
                continue

        if not termination.should_forward(hops, len(results)):
            continue
        neighbor_ids = view.neighbors(node)
        if not neighbor_ids:
            continue
        for target in selection.select(neighbor_ids, stats, rng):
            if target == sender:
                continue  # never bounce straight back
            messages += 1
            if target not in seen:
                trace.append((target, idx))
                frontier.append((target, node, hops + 1, len(trace) - 1))

    return QueryOutcome(
        initiator=initiator,
        item=item,
        issued_at=issued_at,
        results=tuple(results),
        messages=messages,
        nodes_contacted=len(seen) - 1,
    )


def iterative_deepening_search(
    view: NetworkView,
    initiator: NodeId,
    item: ItemId,
    depths: Sequence[int],
    selection: SelectionPolicy | None = None,
    stats: StatsTable | None = None,
    rng: np.random.Generator | None = None,
    issued_at: float = 0.0,
) -> QueryOutcome:
    """Yang & Garcia-Molina iterative deepening on top of ``generic_search``.

    Runs successive BFS cycles with increasing TTLs until one produces
    results or the schedule is exhausted; message counts accumulate across
    cycles (each cycle really re-floods in that technique — the saving comes
    from usually stopping early).
    """
    from repro.core.termination import IterativeDeepening

    schedule = IterativeDeepening(tuple(depths))
    total_messages = 0
    contacted = 0
    outcome: QueryOutcome | None = None
    for ttl in schedule.cycles():
        outcome = generic_search(
            view,
            initiator,
            item,
            ttl,
            selection=selection,
            stats=stats,
            rng=rng,
            issued_at=issued_at,
        )
        total_messages += outcome.messages
        contacted = max(contacted, outcome.nodes_contacted)
        if outcome.hit:
            break
    assert outcome is not None  # schedule is never empty
    return QueryOutcome(
        initiator=initiator,
        item=item,
        issued_at=issued_at,
        results=outcome.results,
        messages=total_messages,
        nodes_contacted=contacted,
    )
