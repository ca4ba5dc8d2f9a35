"""Per-node neighbor lists.

Section 3.1: each repository maintains two lists — outgoing neighbors (to
which it forwards its own requests) and incoming neighbors (from which it
receives requests). Capacities are bounded "due to limitations on the
available bandwidth and processing capacity"; the *pure asymmetric* case
models an unbounded incoming list.

:class:`NeighborList` preserves insertion order (deterministic iteration) and
offers O(1) membership. :class:`NeighborState` pairs the two lists for one
node.
"""

from __future__ import annotations

import math
from typing import Iterator

from repro.errors import NeighborListError
from repro.types import NodeId

__all__ = ["NeighborList", "NeighborState"]


class NeighborList:
    """An ordered, capacity-bounded set of node ids.

    Parameters
    ----------
    capacity:
        Maximum number of members; ``math.inf`` for unbounded (the pure
        asymmetric incoming list).
    """

    __slots__ = ("capacity", "_order", "_members")

    def __init__(self, capacity: float = math.inf) -> None:
        if capacity != math.inf:
            if capacity < 0 or int(capacity) != capacity:
                raise NeighborListError(
                    f"capacity must be a non-negative integer or inf, got {capacity!r}"
                )
        self.capacity = capacity
        self._order: list[NodeId] = []
        self._members: set[NodeId] = set()

    def __contains__(self, node: NodeId) -> bool:
        return node in self._members

    def __len__(self) -> int:
        return len(self._order)

    def __iter__(self) -> Iterator[NodeId]:
        return iter(self._order)

    @property
    def is_full(self) -> bool:
        """Whether no more members can be added without eviction."""
        return len(self._order) >= self.capacity

    @property
    def free_slots(self) -> float:
        """Remaining capacity (``inf`` for unbounded lists)."""
        return self.capacity - len(self._order)

    def add(self, node: NodeId) -> None:
        """Append ``node``; rejects duplicates and overflow."""
        if node in self._members:
            raise NeighborListError(f"node {node} is already a neighbor")
        if self.is_full:
            raise NeighborListError(
                f"neighbor list full (capacity {self.capacity}); evict first"
            )
        self._order.append(node)
        self._members.add(node)

    def remove(self, node: NodeId) -> None:
        """Remove ``node``; rejects absent members."""
        if node not in self._members:
            raise NeighborListError(f"node {node} is not a neighbor")
        self._members.discard(node)
        self._order.remove(node)

    def discard(self, node: NodeId) -> bool:
        """Remove ``node`` if present; returns whether it was a member."""
        if node not in self._members:
            return False
        self.remove(node)
        return True

    def clear(self) -> None:
        """Remove every member."""
        self._order.clear()
        self._members.clear()

    def as_tuple(self) -> tuple[NodeId, ...]:
        """Snapshot of the members in insertion order."""
        return tuple(self._order)

    def view(self) -> list[NodeId]:
        """The live member list, zero-copy. Treat as read-only.

        Exists for per-hop reads (the reference search, the exploration
        walker), where copying every neighbor list would dominate; mutate
        only through :meth:`add` / :meth:`remove`.

        Identity guarantee: the returned list object is stable for the
        lifetime of this ``NeighborList`` — :meth:`add`, :meth:`remove`,
        :meth:`discard` and :meth:`clear` all mutate it in place and never
        rebind it.
        """
        return self._order

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        cap = "inf" if self.capacity == math.inf else int(self.capacity)
        return f"NeighborList({list(self._order)}, capacity={cap})"


class NeighborState:
    """The outgoing/incoming neighbor lists of one node.

    Parameters
    ----------
    node:
        The owning node's id.
    out_capacity / in_capacity:
        Capacities of the respective lists (Section 3.1's ``O_i`` / ``I_i``).
    """

    __slots__ = ("node", "outgoing", "incoming")

    def __init__(
        self,
        node: NodeId,
        out_capacity: float = math.inf,
        in_capacity: float = math.inf,
    ) -> None:
        self.node = node
        self.outgoing = NeighborList(out_capacity)
        self.incoming = NeighborList(in_capacity)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"NeighborState(node={self.node}, out={self.outgoing.as_tuple()}, "
            f"in={self.incoming.as_tuple()})"
        )
