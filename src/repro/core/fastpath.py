"""Specialized flood fast path: Algo 1 without abstraction tax.

:func:`~repro.core.search.generic_search` is the simulation's cost center:
every figure in the paper's Section 4 evaluation is thousands of flood
queries over a churning overlay, and each one pays per-hop method dispatch
(``NetworkView.neighbors`` / ``holds`` / ``link_delay``), per-query ``set`` /
``deque`` / tuple allocations, and a selection-policy call per node.

:class:`FloodFastPath` is the same hop-layered BFS specialized for the
default case-study configuration — :class:`~repro.core.selection.SelectAll`
flooding, ``forward_from_holders=False``, a plain hop-limit termination —
with these structural replacements:

* the **live id slab** of a :class:`~repro.core.soa.NeighborTable`: node
  ``u``'s outgoing row is ``ids[u*stride : u*stride+deg[u]]`` of one flat
  list. Every link add / sever / logoff the protocol performs mutates the
  slab in place, so the kernel's view of the overlay is current by
  construction and is never re-materialized — not per query, not per hop;
* an **epoch-stamped visited array** (generation-counter trick): the
  per-query ``seen`` set becomes a preallocated int array reused across
  queries; marking a node visited is one integer store, clearing is one
  epoch increment, and a query costs zero hashing. Nodes are marked at
  *enqueue* time, so duplicate deliveries never enter the trace and the
  processing loops carry no dedup branches at all;
* a **span-compressed parent trace**: the BFS trace is a flat node list
  whose FIFO order makes each hop level a contiguous index range (the trace
  *is* the frontier — no deque, no per-entry tuples). Parent pointers are
  not stored per entry: each forwarding node appends one *(parent index,
  cumulative end)* span, the sender of a whole span is computed once, and a
  result's discovery path is recovered by binary search over the span ends
  (results are rare; enqueues are not);
* **epoch-stamped holder marks**: :class:`HolderIndex` (the population's
  library CSR regrouped by item, plus downloads, and the engine's only live
  holdings) stamps the queried item's holders into a second per-node array
  with a mark derived from the epoch, so a node's "do I hold this?" check
  is one integer compare, and — decisively — the *final* hop level, which
  is the bulk of a flood and never forwards, is read with one C-level
  ``itemgetter`` over the level slice instead of a Python-level loop. The
  query leaves nothing behind: no holder set is built, and none is cached;
* **precomputed delay rows** (:meth:`~repro.net.latency.LatencyModel.
  delay_rows`): each result's path delay is reconstructed by plain
  ``rows[a][b]`` indexing instead of a method call per path edge.

The reference :func:`~repro.core.search.generic_search` stays the semantics
oracle. The fast path is an optimization, not a semantics change: for every
``(overlay, holdings, delays, initiator, item, max_hops)`` it returns a
:class:`~repro.types.QueryOutcome` *bit-identical* to the reference — same
results in the same order, same message and contact counts, and delays
accumulated in the same floating-point order. ``tests/core/test_fastpath.py``
asserts this property over randomized topologies, and the engine-level
digest-equality tests assert it end to end over whole simulations.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from operator import itemgetter
from typing import Sequence

import numpy as np

from repro.core.soa import NeighborTable
from repro.types import ItemId, NodeId, QueryOutcome, QueryResult

__all__ = ["FloodFastPath", "HolderIndex"]

#: Holder counts up to this are stamped by a Python loop over the owner
#: slice, larger ones by one NumPy fancy assignment. Measured per call into
#: a 20,000-byte mark array (CPython 3.11, 2-core x86 VM, best of 25): the
#: loop costs 0.33 us at 4 holders, 1.34 us at 32 and 2.37 us at 48; the
#: assignment, view included, about 2.0 us from 4 to 64 holders and 2.4 us
#: at 150, so each side is used where it is cheaper.
_LOOP_STAMP_MAX = 40


class HolderIndex:
    """The live holdings, read from the library CSR regrouped by item.

    The population's CSR (``items``, ``offsets``: user ``u`` holds
    ``items[offsets[u] : offsets[u + 1]]``) is regrouped by item once: an
    int32 owner column sorted by item, owners ascending within an item, and
    per-item start offsets (``_starts``, read through a ``memoryview``), so
    item ``i``'s original holders are ``_owners[_starts[i] :
    _starts[i + 1]]``. Downloads (:meth:`add_holder`) land in a per-item
    overflow list. Nothing else is kept: no Python object per item or per
    query, so the index does not grow with the stream of items asked about.

    It is the engine's only record of who holds what, and it answers in two
    shapes: :meth:`holds` for one node (a binary search on the item's owner
    slice, then the overflow), and :meth:`stamp` for the flood kernel, which
    marks every holder of one item in a per-node array it owns.
    """

    __slots__ = ("n_nodes", "_owner_array", "_owners", "_starts", "_n_items", "_extra")

    def __init__(self, items: np.ndarray, offsets: np.ndarray) -> None:
        self.n_nodes = len(offsets) - 1
        # A stable sort by item leaves each item's owners in ascending node
        # order, since the CSR lists users in node order.
        owners = np.repeat(np.arange(self.n_nodes, dtype=np.int32), np.diff(offsets))
        self._owner_array = owners[np.argsort(items, kind="stable")]
        self._owners = memoryview(self._owner_array)
        starts = np.zeros(int(items.max(initial=-1)) + 2, dtype=np.int64)
        np.cumsum(np.bincount(items, minlength=len(starts) - 1), out=starts[1:])
        self._starts = memoryview(starts)
        self._n_items = len(starts) - 1
        #: Holders recorded after construction, per item, in add order.
        self._extra: dict[ItemId, list[NodeId]] = {}

    def holds(self, node: NodeId, item: ItemId) -> bool:
        """Whether ``node`` holds ``item``, downloads included."""
        if 0 <= item < self._n_items:
            hi = self._starts[item + 1]
            at = bisect_left(self._owners, node, self._starts[item], hi)
            if at < hi and self._owners[at] == node:
                return True
        extra = self._extra.get(item)
        return extra is not None and node in extra

    def stamp(self, marks: bytearray, item: ItemId, mark: int) -> None:
        """Set ``marks[u] = mark`` for every holder ``u`` of ``item``.

        ``marks`` has one byte per node; afterwards ``marks[u] == mark``
        exactly for the holders, as long as no other byte already held
        ``mark``.
        """
        if 0 <= item < self._n_items:
            lo, hi = self._starts[item], self._starts[item + 1]
            if hi - lo <= _LOOP_STAMP_MAX:
                for node in self._owners[lo:hi]:
                    marks[node] = mark
            else:
                np.frombuffer(marks, np.uint8)[self._owner_array[lo:hi]] = mark
        extra = self._extra.get(item)
        if extra is not None:
            for node in extra:
                marks[node] = mark

    def add_holder(self, node: NodeId, item: ItemId) -> None:
        """Record that ``node`` now holds ``item`` (idempotent)."""
        if not self.holds(node, item):
            self._extra.setdefault(item, []).append(node)

    def __len__(self) -> int:
        return self.n_nodes


class FloodFastPath:
    """The flood-query hot path over one live overlay.

    Parameters
    ----------
    adjacency:
        The live outgoing :class:`~repro.core.soa.NeighborTable` (one row
        per node, dense by node id). Rows obey the invariants the protocol
        maintains: no duplicate members and no self-membership.
    holdings:
        The live :class:`HolderIndex`, stamped afresh at the start of
        every query: a download recorded through
        :meth:`HolderIndex.add_holder` is seen by the next query.
    delay_rows:
        ``delay_rows[a][b]`` is the one-way delay of the ``a``-``b`` link as
        a Python float — :meth:`repro.net.latency.LatencyModel.delay_rows`
        (row memoryviews of the delay matrix, or the lazy per-pair view).
    max_hops:
        The default hop-limit terminating condition (Gnutella TTL).

    One instance owns reusable per-query buffers, so it is not safe for
    concurrent queries — exactly the contract of the single-threaded
    simulation engines.
    """

    __slots__ = (
        "_slab_ids",
        "_slab_deg",
        "_slab_stride",
        "_holdings",
        "_delay_rows",
        "max_hops",
        "_visited",
        "_held",
        "_epoch",
        "_trace_node",
        "_span_parent",
        "_span_end",
        "queries_run",
        "collect_levels",
        "last_level_ends",
    )

    def __init__(
        self,
        adjacency: NeighborTable,
        holdings: HolderIndex,
        delay_rows: Sequence[Sequence[float]],
        max_hops: int,
    ) -> None:
        n = len(adjacency)
        if len(holdings) != n or len(delay_rows) != n:
            raise ValueError(
                f"adjacency ({n}), holdings ({len(holdings)}) and delay rows "
                f"({len(delay_rows)}) must cover the same node population"
            )
        if max_hops < 1:
            raise ValueError(f"max_hops must be >= 1, got {max_hops}")
        # Walk the live id slab directly (row u = ids[u*slots :
        # u*slots+deg[u]]), no per-node row objects at all.
        self._slab_ids = adjacency.ids
        self._slab_deg = adjacency.deg
        self._slab_stride = adjacency.slots
        self._delay_rows = delay_rows
        self.max_hops = max_hops
        self._holdings = holdings
        # Epoch-stamped visited marks: visited[u] == current epoch <=> u has
        # been delivered the current query. Bumping the epoch "clears" the
        # array in O(1); the buffers below are reused across queries.
        self._visited = [0] * n
        self._epoch = 0
        # Holder marks: held[u] == the current query's mark <=> u holds its
        # item. The mark is the epoch folded into 1..255, one byte per node,
        # so every read returns one of CPython's cached small ints (an int64
        # epoch past 256 allocates an int per read: 42 vs 28 ns per node,
        # 3.1 vs 2.0 us per 80-node level); the array is zeroed whenever
        # the mark comes round to 1 again.
        self._held = bytearray(n)
        # trace_node[i]: the i-th *first* delivery, in send order (duplicate
        # deliveries are filtered at enqueue and never materialize). FIFO
        # append order makes the trace double as the frontier: hop levels
        # are contiguous index ranges. Parent pointers are span-compressed:
        # span k covers trace entries [_span_end[k-1], _span_end[k]) and all
        # of them were sent by trace entry _span_parent[k] (-1 = initiator).
        self._trace_node: list[NodeId] = []
        self._span_parent: list[int] = []
        self._span_end: list[int] = []
        #: Number of queries executed (introspection / bench bookkeeping).
        self.queries_run = 0
        #: Observability hook (repro.obs), off by default. With
        #: ``collect_levels`` on, :meth:`search` records the cumulative
        #: contacted-count at each hop level into ``last_level_ends`` (one
        #: list append per *level*, not per node — the tracer's per-hop
        #: events read it). It touches no outcome, RNG, or event order.
        self.collect_levels = False
        self.last_level_ends: list[int] | None = None

    def _path_delay(self, initiator: NodeId, node: NodeId, parent: int) -> float:
        """One-way delay of ``node``'s discovery path, walked backwards in
        the reference's exact accumulation order.

        ``parent`` is the trace index of the entry that delivered to
        ``node`` (-1 if the initiator sent directly). Each step's parent is
        recovered by binary search over the span ends — only results pay
        this, and results are rare relative to enqueues.
        """
        total = 0.0
        delay_rows = self._delay_rows
        trace_node = self._trace_node
        span_end = self._span_end
        span_parent = self._span_parent
        while parent >= 0:
            prev = trace_node[parent]
            total += delay_rows[prev][node]
            node = prev
            parent = span_parent[bisect_right(span_end, parent)]
        return total + delay_rows[initiator][node]

    def search(
        self,
        initiator: NodeId,
        item: ItemId,
        issued_at: float = 0.0,
        max_hops: int | None = None,
    ) -> QueryOutcome:
        """Run one flood query; bit-identical to the reference search.

        Equivalent to ``generic_search(view, initiator, item,
        TTLTermination(max_hops))`` over a view of the same overlay,
        holdings, and delays — same results in the same order, same message
        and contact counts, delays accumulated in the same order. Node
        ``u``'s row is read as a slice of the live id slab,
        ``ids[u*stride : u*stride+deg[u]]``.
        """
        limit = self.max_hops if max_hops is None else max_hops
        self.queries_run += 1
        self._epoch += 1
        epoch = self._epoch
        visited = self._visited
        ids = self._slab_ids
        deg = self._slab_deg
        stride = self._slab_stride
        delay_rows = self._delay_rows
        held = self._held
        mark = epoch % 255 + 1
        if mark == 1:
            held[:] = bytes(len(held))
        self._holdings.stamp(held, item, mark)
        trace_node = self._trace_node
        span_parent = self._span_parent
        span_end = self._span_end
        del trace_node[:]
        del span_parent[:]
        del span_end[:]
        extend_node = trace_node.extend
        parent_append = span_parent.append
        end_append = span_end.append

        results: list[QueryResult] = []
        results_append = results.append

        # Nodes are marked visited at ENQUEUE time. During level h only
        # level-h+1 targets get marked, and nothing at level h reads those
        # marks except the enqueue filter itself — so the trace holds
        # exactly the first delivery of each contacted node, in first-send
        # order, which is precisely the set and order the reference
        # processes (its duplicate entries are dropped unprocessed at pop).
        # Duplicates therefore never enter the trace, the processing loops
        # carry no dedup branches, and ``nodes_contacted`` is simply the
        # final trace length. Message counts are unaffected: they are
        # charged on send (``len(row) - (sender in row)``), never from the
        # trace. The sender itself is always already marked (it was
        # enqueued, or is the initiator), so the visited filter subsumes the
        # reference's explicit ``target != sender`` test.
        visited[initiator] = epoch
        base = initiator * stride
        first_row = ids[base : base + deg[initiator]]
        messages = len(first_row)
        for t in first_row:
            visited[t] = epoch
        extend_node(first_row)
        parent_append(-1)
        end_append(len(first_row))
        node_append = trace_node.append
        # Cumulative contacted-count at each hop level (observability; one
        # append per level when enabled, a no-op None check otherwise).
        level_ends = [len(first_row)] if self.collect_levels else None

        if limit > 1:
            # Level 1, hoisted: the sender is the initiator for every entry,
            # a hit's path is the single initiator link, and the level needs
            # no span segmentation — for the default TTL-2 configuration
            # this loop plus the final-level read is the whole query.
            for idx, node in enumerate(first_row):
                if held[node] == mark:
                    # Holders reply and do not propagate.
                    results_append(
                        QueryResult(node, item, 1, 2.0 * delay_rows[initiator][node])
                    )
                    continue
                base = node * stride
                row = ids[base : base + deg[node]]
                # Duplicate deliveries consume bandwidth: count every copy
                # sent — all neighbors except the sender.
                messages += len(row) - (initiator in row)
                before = len(trace_node)
                for t in row:
                    if visited[t] != epoch:
                        visited[t] = epoch
                        node_append(t)
                grown = len(trace_node)
                if grown != before:
                    parent_append(idx)
                    end_append(grown)
            start, end = len(first_row), len(trace_node)
            if level_ends is not None and end > start:
                level_ends.append(end)
            hops = 2
            level_span = 1  # skip the initial level-1 span
        else:
            start, end = 0, len(first_row)
            hops = 1

        while start < end and hops < limit:
            # Middle levels, span by span: every entry of a span was sent by
            # the same node, so the sender lookup happens once per span, not
            # once per entry. Spans appended while the level runs belong to
            # the next level (n_spans is snapshotted).
            n_spans = len(span_parent)
            seg_lo = start
            for k in range(level_span, n_spans):
                seg_hi = span_end[k]
                parent = span_parent[k]
                sender = trace_node[parent]
                for idx, node in enumerate(trace_node[seg_lo:seg_hi], seg_lo):
                    if held[node] == mark:
                        results_append(
                            QueryResult(
                                node,
                                item,
                                hops,
                                2.0 * self._path_delay(initiator, node, parent),
                            )
                        )
                        continue
                    base = node * stride
                    row = ids[base : base + deg[node]]
                    messages += len(row) - (sender in row)
                    before = len(trace_node)
                    for t in row:
                        if visited[t] != epoch:
                            visited[t] = epoch
                            node_append(t)
                    grown = len(trace_node)
                    if grown != before:
                        parent_append(idx)
                        end_append(grown)
                seg_lo = seg_hi
            level_span = n_spans
            start, end = end, len(trace_node)
            if level_ends is not None and end > start:
                level_ends.append(end)
            hops += 1

        # Final level: the hop limit is reached, nobody forwards — only
        # holder replies remain. One C-level itemgetter reads the level's
        # marks and usually proves it hit-free; only a hit walks the level,
        # in first-delivery (reply) order.
        if start < end:
            level = trace_node[start:end]
            marks = itemgetter(*level)(held)
            if mark in (marks if end - start > 1 else (marks,)):
                for idx, node in enumerate(level, start):
                    if held[node] != mark:
                        continue
                    parent = span_parent[bisect_right(span_end, idx)]
                    results_append(
                        QueryResult(
                            node,
                            item,
                            hops,
                            2.0 * self._path_delay(initiator, node, parent),
                        )
                    )

        if level_ends is not None:
            self.last_level_ends = level_ends
        return QueryOutcome(
            initiator, item, issued_at, tuple(results), messages, len(trace_node)
        )
