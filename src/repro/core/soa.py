"""Struct-of-arrays peer state: the engine core at 100k peers.

An object per peer (holding a :class:`~repro.core.neighbors.NeighborState`
holding two :class:`~repro.core.neighbors.NeighborList`\\ s, each a list
*plus* a set) costs roughly a kilobyte per peer across eight heap objects,
and every hot read is an attribute chase. That is irrelevant at the paper's
2,000 users and prohibitive at the ROADMAP's 100k-1M: the flood kernel would
spend its time hopping between objects instead of walking memory.

This module keeps the per-peer *semantics* in flat, index-addressed slabs:

``NeighborTable``
    One contiguous ``list[int]`` of ``n * slots`` ids plus a degree column.
    Row ``u`` lives at ``ids[u*slots : u*slots + deg[u]]``. Insertion order,
    duplicate/overflow rejection, and left-shifting removal mirror
    :class:`~repro.core.neighbors.NeighborList` exactly (the hypothesis
    oracle test drives both with the same operation stream and asserts
    identical decoded state).

``PeerArrays``
    The whole population's mutable scalars as columns — an online *bitmap*
    (``bytearray``), sessions / query-epoch / request counters as flat int
    lists — plus the neighbor rows and one
    :class:`~repro.core.statistics.StatsTable` slot per node. A slot stays
    ``None`` until the node is first credited: Section 3.4 keeps statistics
    only for peers *encountered* through search and exploration, so every
    ledger is empty when the world is built, and most stay so for a while.
    (The ledger itself is a per-node sparse mapping: it is keyed by
    encountered peer, which is unbounded and sparse, so a hash map per node
    is the compact layout; the dense per-peer counters are what flatten.)
    The engines and the protocol read and write these columns directly;
    nothing per peer is built with the world.

``SoAPeer`` / ``SoANeighborState`` / ``SlotNeighborList``
    Thin views giving every slab cell a per-peer interface
    (``peer.online``, ``peer.neighbors.outgoing.add(...)``, ...), for the
    observability walkers, the sanitizer and the test suite. The views hold
    no state of their own — every read/write lands in the arrays — and
    :meth:`PeerArrays.peers` builds the list of them on first call only.
    The protocol builds one ``SoANeighborState`` per invitation, for
    :func:`~repro.core.update.process_invitation`.

:meth:`SlotNeighborList.view` returns a fresh copy per call (a slab row has
no per-node list object to share). The flood fast path never calls it — it
walks the slab directly — and the reference search treats the result as
read-only.
"""

from __future__ import annotations

import math
from typing import Iterator

from repro.core.neighbors import NeighborList
from repro.core.statistics import StatsTable
from repro.errors import NeighborListError
from repro.types import NodeId

__all__ = [
    "NeighborTable",
    "PeerArrays",
    "SlotNeighborList",
    "SoANeighborState",
    "SoAPeer",
    "SoAPeerList",
]


class NeighborTable:
    """Fixed-stride neighbor slab: ``n`` rows of at most ``slots`` ids.

    Semantically a dense array of :class:`~repro.core.neighbors.NeighborList`
    instances with integer capacity ``slots``: rows preserve insertion
    order, reject duplicates and overflow, and removal left-shifts the tail
    (exactly ``list.remove``). Rows are tiny (the case study uses 4 slots),
    so the duplicate scan is a handful of integer compares — cheaper than
    the per-node hash set it replaces, and 8 heap objects per peer cheaper.
    """

    __slots__ = ("n", "slots", "ids", "deg")

    def __init__(self, n: int, slots: int) -> None:
        if n < 0:
            raise NeighborListError(f"population size must be non-negative, got {n}")
        if slots < 0 or int(slots) != slots:
            raise NeighborListError(
                f"capacity must be a non-negative integer, got {slots!r}"
            )
        self.n = n
        self.slots = int(slots)
        #: Flat id slab; row ``u`` occupies ``ids[u*slots : u*slots+deg[u]]``.
        self.ids: list[int] = [0] * (n * self.slots)
        #: Degree column: live row lengths.
        self.deg: list[int] = [0] * n

    def add(self, node: NodeId, other: NodeId) -> None:
        """Append ``other`` to ``node``'s row; rejects duplicates/overflow."""
        d = self.deg[node]
        if d >= self.slots:
            raise NeighborListError(
                f"neighbor list full (capacity {self.slots}); evict first"
            )
        base = node * self.slots
        ids = self.ids
        for i in range(base, base + d):
            if ids[i] == other:
                raise NeighborListError(f"node {other} is already a neighbor")
        ids[base + d] = other
        self.deg[node] = d + 1

    def remove(self, node: NodeId, other: NodeId) -> None:
        """Remove ``other`` from ``node``'s row; rejects absent members."""
        base = node * self.slots
        d = self.deg[node]
        ids = self.ids
        for i in range(base, base + d):
            if ids[i] == other:
                # Shift the tail left one slot, preserving insertion order.
                ids[i : base + d - 1] = ids[i + 1 : base + d]
                self.deg[node] = d - 1
                return
        raise NeighborListError(f"node {other} is not a neighbor")

    def discard(self, node: NodeId, other: NodeId) -> bool:
        """Remove ``other`` if present; returns whether it was a member."""
        if not self.contains(node, other):
            return False
        self.remove(node, other)
        return True

    def clear_row(self, node: NodeId) -> None:
        """Empty ``node``'s row."""
        self.deg[node] = 0

    def contains(self, node: NodeId, other: NodeId) -> bool:
        """Whether ``other`` is in ``node``'s row."""
        base = node * self.slots
        ids = self.ids
        for i in range(base, base + self.deg[node]):
            if ids[i] == other:
                return True
        return False

    def degree(self, node: NodeId) -> int:
        """Live length of ``node``'s row."""
        return self.deg[node]

    def row(self, node: NodeId) -> list[NodeId]:
        """Fresh copy of ``node``'s row in insertion order."""
        base = node * self.slots
        return self.ids[base : base + self.deg[node]]  # type: ignore[return-value]

    def row_tuple(self, node: NodeId) -> tuple[NodeId, ...]:
        """Snapshot of ``node``'s row in insertion order."""
        base = node * self.slots
        return tuple(self.ids[base : base + self.deg[node]])  # type: ignore[return-value]

    def __len__(self) -> int:
        return self.n


class SlotNeighborList:
    """One slab row with the :class:`~repro.core.neighbors.NeighborList` API.

    Stateless view: every operation lands in the owning
    :class:`NeighborTable`. Unlike ``NeighborList.view()``, :meth:`view`
    returns a *copy* per call (documented read-only either way).
    """

    __slots__ = ("_table", "_node")

    def __init__(self, table: NeighborTable, node: NodeId) -> None:
        self._table = table
        self._node = node

    @property
    def capacity(self) -> int:
        """Maximum number of members (the table's fixed stride)."""
        return self._table.slots

    def __contains__(self, node: NodeId) -> bool:
        return self._table.contains(self._node, node)

    def __len__(self) -> int:
        return self._table.deg[self._node]

    def __iter__(self) -> Iterator[NodeId]:
        return iter(self._table.row(self._node))

    @property
    def is_full(self) -> bool:
        """Whether no more members can be added without eviction."""
        return self._table.deg[self._node] >= self._table.slots

    @property
    def free_slots(self) -> int:
        """Remaining capacity."""
        return self._table.slots - self._table.deg[self._node]

    def add(self, node: NodeId) -> None:
        """Append ``node``; rejects duplicates and overflow."""
        self._table.add(self._node, node)

    def remove(self, node: NodeId) -> None:
        """Remove ``node``; rejects absent members."""
        self._table.remove(self._node, node)

    def discard(self, node: NodeId) -> bool:
        """Remove ``node`` if present; returns whether it was a member."""
        return self._table.discard(self._node, node)

    def clear(self) -> None:
        """Remove every member."""
        self._table.clear_row(self._node)

    def as_tuple(self) -> tuple[NodeId, ...]:
        """Snapshot of the members in insertion order."""
        return self._table.row_tuple(self._node)

    def view(self) -> list[NodeId]:
        """Fresh copy of the members in insertion order (read-only).

        A slab row has no per-node list object whose identity could be
        stable, so unlike :meth:`~repro.core.neighbors.NeighborList.view`
        this allocates per call. The flood fast path never calls it (it
        walks the slab); only the reference search and the exploration
        walker do, where a four-element copy is noise.
        """
        return self._table.row(self._node)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"SlotNeighborList({self._table.row(self._node)}, capacity={self.capacity})"


class SoANeighborState:
    """The outgoing/incoming rows of one node, ``NeighborState``-shaped."""

    __slots__ = ("node", "outgoing", "incoming")

    def __init__(self, arrays: PeerArrays, node: NodeId) -> None:
        self.node = node
        self.outgoing = SlotNeighborList(arrays.out, node)
        incoming = arrays.incoming
        self.incoming: SlotNeighborList | NeighborList = (
            SlotNeighborList(incoming, node)
            if isinstance(incoming, NeighborTable)
            else incoming[node]
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"SoANeighborState(node={self.node}, out={self.outgoing.as_tuple()}, "
            f"in={self.incoming.as_tuple()})"
        )


class SoAPeer:
    """One peer's state, read and written through the population arrays."""

    __slots__ = ("_arrays", "node", "neighbors")

    def __init__(self, arrays: PeerArrays, node: NodeId) -> None:
        self._arrays = arrays
        self.node = node
        self.neighbors = SoANeighborState(arrays, node)

    @property
    def online(self) -> bool:
        """Whether the peer is currently in a session."""
        return bool(self._arrays.online[self.node])

    @online.setter
    def online(self, value: bool) -> None:
        self._arrays.online[self.node] = 1 if value else 0

    @property
    def stats(self) -> StatsTable:
        """The peer's private benefit ledger, created (and stored) if it has
        none yet, so that writes through a view land. Pure readers use
        :meth:`PeerArrays.stats_or_empty`."""
        return self._arrays.stats_for_credit(self.node)

    @property
    def requests_since_update(self) -> int:
        """Own requests since the last reconfiguration (Algo 5 counter)."""
        return self._arrays.requests_since_update[self.node]

    @requests_since_update.setter
    def requests_since_update(self, value: int) -> None:
        self._arrays.requests_since_update[self.node] = value

    @property
    def sessions(self) -> int:
        """Completed session count (diagnostics)."""
        return self._arrays.sessions[self.node]

    @sessions.setter
    def sessions(self, value: int) -> None:
        self._arrays.sessions[self.node] = value

    @property
    def query_epoch(self) -> int:
        """Incremented on every log-off; stale query timers check it."""
        return self._arrays.query_epoch[self.node]

    @query_epoch.setter
    def query_epoch(self, value: int) -> None:
        self._arrays.query_epoch[self.node] = value

    @property
    def degree(self) -> int:
        """Current number of neighbors."""
        return self._arrays.out.deg[self.node]

    @property
    def has_free_slot(self) -> bool:
        """Whether at least one neighbor slot is open."""
        return self._arrays.out.deg[self.node] < self._arrays.out.slots

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"SoAPeer(node={self.node}, online={self.online}, "
            f"neighbors={self.neighbors.outgoing.as_tuple()})"
        )


class SoAPeerList(list):
    """A dense peer list that also exposes its backing :class:`PeerArrays`.

    A real ``list`` (indexing and iteration at native speed for every
    consumer), with one extra attribute leading back to the columns:
    ``peers.arrays``.
    """

    __slots__ = ("arrays",)

    def __init__(self, arrays: PeerArrays, peers: list[SoAPeer]) -> None:
        super().__init__(peers)
        self.arrays = arrays


class PeerArrays:
    """All mutable per-peer state of one population, as columns.

    Layout (``n`` peers, ``slots`` outgoing capacity, ``in_capacity``
    incoming capacity)::

        online                bytearray[n]      the online bitmap
        sessions              list[int][n]
        query_epoch           list[int][n]
        requests_since_update list[int][n]
        out                   NeighborTable(n, slots)
        incoming              NeighborTable(n, in_capacity)   (finite)
                              list[NeighborList][n]           (math.inf)
        stats                 list[StatsTable | None][n]   (None until credited)

    The incoming rows take the capacity the relation needs. Symmetric
    relations (the default, ``in_capacity=None``) mirror the outgoing rows
    and share their ``slots`` stride. The *pure asymmetric* relation of
    Section 3.1 (``in_capacity=math.inf``) lets a supplier carry any number
    of consumers, which no fixed stride holds, so each of its rows is one
    unbounded :class:`~repro.core.neighbors.NeighborList`.

    A node's ledger is created by its first credit
    (:meth:`stats_for_credit`) and never by a read: a missing table reads
    as empty (:meth:`stats_or_empty`), and :meth:`reset_stats` and
    :meth:`clear_stats` have nothing to do without one.
    """

    __slots__ = (
        "n",
        "slots",
        "online",
        "sessions",
        "query_epoch",
        "requests_since_update",
        "out",
        "incoming",
        "stats",
        "_views",
    )

    def __init__(self, n: int, slots: int, in_capacity: float | None = None) -> None:
        self.n = n
        self.slots = slots
        self.online = bytearray(n)
        self.sessions = [0] * n
        self.query_epoch = [0] * n
        self.requests_since_update = [0] * n
        self.out = NeighborTable(n, slots)
        self.incoming: NeighborTable | list[NeighborList] = (
            [NeighborList(math.inf) for _ in range(n)]
            if in_capacity == math.inf
            else NeighborTable(n, slots if in_capacity is None else int(in_capacity))
        )
        self.stats: list[StatsTable | None] = [None] * n
        self._views: SoAPeerList | None = None

    def stats_for_credit(self, node: NodeId) -> StatsTable:
        """``node``'s ledger, created on its first credit."""
        stats = self.stats[node]
        if stats is None:
            stats = self.stats[node] = StatsTable()
        return stats

    def stats_or_empty(self, node: NodeId) -> StatsTable:
        """``node``'s ledger to read: a fresh, unstored empty table if it has
        none (never a shared one: even ``reset`` writes a table)."""
        stats = self.stats[node]
        return StatsTable() if stats is None else stats

    def reset_stats(self, node: NodeId, other: NodeId) -> None:
        """Forget ``other`` in ``node``'s ledger (Process_Eviction)."""
        stats = self.stats[node]
        if stats is not None:
            stats.reset(other)

    def clear_stats(self, node: NodeId) -> None:
        """Forget everything in ``node``'s ledger (log-off)."""
        stats = self.stats[node]
        if stats is not None:
            stats.clear()

    def peers(self) -> SoAPeerList:
        """The dense per-peer view list, built on the first call only."""
        if self._views is None:
            self._views = SoAPeerList(self, [SoAPeer(self, NodeId(u)) for u in range(self.n)])
        return self._views
