"""The network *consistency* predicate of Section 3.1.

The network is **consistent** iff there is no pair of nodes ``(n_i, n_j)``
with ``n_j in Out(n_i)`` but ``n_i not in In(n_j)`` — i.e. nobody forwards
requests to a node that does not expect them.

:func:`find_inconsistencies` checks a whole-network snapshot (mappings from
node id to neighbor lists) in pure Python; the other helpers apply it to the
per-node :class:`~repro.core.neighbors.NeighborState` objects. Used
pervasively by tests and the sanitizer (and available to user code as an
invariant check after custom rewiring).
"""

from __future__ import annotations

from typing import Iterable, Mapping

from repro.core.neighbors import NeighborState
from repro.types import NodeId

__all__ = [
    "check_consistent",
    "find_inconsistencies",
    "state_inconsistencies",
    "symmetric_violations",
]


def find_inconsistencies(
    outgoing: Mapping[NodeId, Iterable[NodeId]],
    incoming: Mapping[NodeId, Iterable[NodeId]],
) -> list[tuple[NodeId, NodeId]]:
    """All ``(i, j)`` pairs with ``j in Out(i)`` but ``i not in In(j)``.

    Nodes absent from ``incoming`` are treated as having empty incoming
    lists, so dangling outgoing edges to them are reported.
    """
    bad: list[tuple[NodeId, NodeId]] = []
    incoming_sets = {node: set(lst) for node, lst in incoming.items()}
    for i, outs in outgoing.items():
        for j in outs:
            if i not in incoming_sets.get(j, set()):
                bad.append((i, j))
    return bad


def state_inconsistencies(
    states: Mapping[NodeId, NeighborState],
) -> list[tuple[NodeId, NodeId]]:
    """All ``(i, j)`` with ``j in Out(i)`` but ``i not in In(j)``."""
    outgoing = {n: s.outgoing.as_tuple() for n, s in states.items()}
    incoming = {n: s.incoming.as_tuple() for n, s in states.items()}
    return find_inconsistencies(outgoing, incoming)


def check_consistent(states: Mapping[NodeId, NeighborState]) -> bool:
    """Whether the Section 3.1 consistency predicate holds."""
    return not state_inconsistencies(states)


def symmetric_violations(
    states: Mapping[NodeId, NeighborState],
) -> list[NodeId]:
    """Nodes whose outgoing and incoming lists differ (symmetric relations
    require ``Out == In`` as *sets* at every node)."""
    return [
        n
        for n, s in states.items()
        if set(s.outgoing.as_tuple()) != set(s.incoming.as_tuple())
    ]
