"""Local indices over nearby peers' content.

Yang & Garcia-Molina's third technique (Section 2): "each node maintains an
index over the data of all peers within r hops of itself, allowing each
search to terminate after (depth - r) hops". The paper notes the technique is
orthogonal to dynamic reconfiguration and can be employed in the framework;
we provide it as an optional accelerator (``examples/strategy_comparison.py``
measures what it buys).

The index maps item -> set of holders within radius. It must be refreshed as
the neighborhood rewires; ``rebuild`` walks the current topology.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Iterable, Sequence

from repro.errors import FrameworkError
from repro.types import ItemId, NodeId

__all__ = ["LocalIndex"]


class LocalIndex:
    """An r-hop content index for one node.

    Parameters
    ----------
    owner:
        The indexing node.
    radius:
        Index horizon in hops (r >= 1). Radius-r indexing lets a TTL-``h``
        search stop after ``h - r`` hops.
    """

    def __init__(self, owner: NodeId, radius: int = 1) -> None:
        if radius < 1:
            raise FrameworkError(f"radius must be >= 1, got {radius}")
        self.owner = owner
        self.radius = radius
        self._holders: dict[ItemId, set[NodeId]] = {}
        self._indexed_nodes: set[NodeId] = set()

    @property
    def indexed_nodes(self) -> frozenset[NodeId]:
        """Peers currently covered by the index."""
        return frozenset(self._indexed_nodes)

    def rebuild(
        self,
        neighbors_of: Callable[[NodeId], Sequence[NodeId]],
        items_of: Callable[[NodeId], Iterable[ItemId]],
    ) -> None:
        """Re-index every peer within ``radius`` hops of the owner.

        ``neighbors_of`` supplies the *current* outgoing lists, so calling
        this after a reconfiguration keeps the index honest.
        """
        self._holders.clear()
        self._indexed_nodes.clear()
        frontier: deque[tuple[NodeId, int]] = deque()
        visited = {self.owner}
        for n in neighbors_of(self.owner):
            if n not in visited:
                visited.add(n)
                frontier.append((n, 1))
        while frontier:
            node, dist = frontier.popleft()
            self._indexed_nodes.add(node)
            for item in items_of(node):
                self._holders.setdefault(item, set()).add(node)
            if dist < self.radius:
                for nxt in neighbors_of(node):
                    if nxt not in visited:
                        visited.add(nxt)
                        frontier.append((nxt, dist + 1))

    def holders_of(self, item: ItemId) -> frozenset[NodeId]:
        """Indexed peers holding ``item`` (empty if none known)."""
        return frozenset(self._holders.get(item, ()))

    def knows_holder(self, item: ItemId) -> bool:
        """Whether the index can already answer ``item`` without searching."""
        return bool(self._holders.get(item))

    def forget(self, node: NodeId) -> None:
        """Drop one peer from the index (e.g. it logged off)."""
        if node not in self._indexed_nodes:
            return
        self._indexed_nodes.discard(node)
        empty: list[ItemId] = []
        for item, holders in self._holders.items():
            holders.discard(node)
            if not holders:
                empty.append(item)
        for item in empty:
            del self._holders[item]

    def __len__(self) -> int:
        return len(self._holders)
