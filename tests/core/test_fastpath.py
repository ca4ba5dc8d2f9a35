"""FloodFastPath must be bit-identical to the reference generic_search.

The fast path is allowed to be clever (epoch marks, span-compressed trace,
inverted holder index) but not to be different: for any topology, holder
placement, hop limit and initiator it must return the same QueryOutcome the
oracle returns — same results in the same order, same floats, same message
and contact counts. These tests drive both implementations over randomized
worlds, with the edge cases the BFS rewrite is most likely to get wrong:
isolated initiators, dense graphs full of duplicate deliveries, directed
rows, holders at every level, and hop limit 1.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.fastpath import AdjacencySnapshot, FloodFastPath, HolderIndex
from repro.core.neighbors import NeighborList
from repro.core.search import generic_search
from repro.core.termination import TTLTermination


class _ListView:
    """A NetworkView over the exact structures the fast path consumes."""

    def __init__(self, rows, holdings, delays):
        self.rows = rows
        self.holdings = holdings
        self.delays = delays

    def holds(self, node, item):
        return item in self.holdings[node]

    def neighbors(self, node):
        return self.rows[node]

    def link_delay(self, a, b):
        return self.delays[a][b]


def _build_world(n_nodes, edge_prob, holder_prob, n_items, seed, symmetric):
    """A random world backed by real NeighborLists (live rows)."""
    rng = np.random.default_rng(seed)
    lists = [NeighborList() for _ in range(n_nodes)]
    for a in range(n_nodes):
        for b in range(n_nodes):
            if a == b or b in lists[a]:
                continue
            if rng.random() < edge_prob:
                lists[a].add(b)
                if symmetric and a not in lists[b]:
                    lists[b].add(a)
    holdings = [
        {item for item in range(n_items) if rng.random() < holder_prob}
        for _ in range(n_nodes)
    ]
    delays = rng.uniform(0.01, 0.3, size=(n_nodes, n_nodes))
    delays = ((delays + delays.T) / 2.0).tolist()
    snapshot = AdjacencySnapshot(lists)
    return lists, snapshot, holdings, delays


world_params = st.tuples(
    st.integers(2, 18),        # n_nodes
    st.floats(0.0, 0.7),       # edge_prob (0.0 => isolated nodes, empty rows)
    st.floats(0.0, 0.6),       # holder_prob
    st.integers(1, 4),         # n_items
    st.integers(0, 10_000),    # world seed
    st.booleans(),             # symmetric links?
)


@settings(max_examples=120, deadline=None)
@given(
    params=world_params,
    max_hops=st.integers(1, 5),
    initiator_pick=st.integers(0, 10_000),
    item_pick=st.integers(0, 10_000),
)
def test_fastpath_matches_reference(params, max_hops, initiator_pick, item_pick):
    n_nodes, edge_prob, holder_prob, n_items, seed, symmetric = params
    _, snapshot, holdings, delays = _build_world(
        n_nodes, edge_prob, holder_prob, n_items, seed, symmetric
    )
    fastpath = FloodFastPath(snapshot, holdings, delays, max_hops)
    view = _ListView(snapshot.rows, holdings, delays)
    initiator = initiator_pick % n_nodes
    item = item_pick % n_items

    fast = fastpath.search(initiator, item, issued_at=3.5)
    reference = generic_search(
        view, initiator, item, TTLTermination(max_hops), issued_at=3.5
    )
    assert fast == reference


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 10_000), max_hops=st.integers(1, 4))
def test_fastpath_dense_duplicate_heavy(seed, max_hops):
    """Near-complete symmetric graphs maximize duplicate deliveries."""
    _, snapshot, holdings, delays = _build_world(
        n_nodes=8, edge_prob=0.9, holder_prob=0.3, n_items=2,
        seed=seed, symmetric=True,
    )
    fastpath = FloodFastPath(snapshot, holdings, delays, max_hops)
    view = _ListView(snapshot.rows, holdings, delays)
    for initiator in range(8):
        for item in range(2):
            assert fastpath.search(initiator, item) == generic_search(
                view, initiator, item, TTLTermination(max_hops)
            )


def test_empty_neighborhood():
    """An isolated initiator: zero messages, zero contacts, no results."""
    _, snapshot, holdings, delays = _build_world(3, 0.0, 1.0, 1, 0, True)
    fastpath = FloodFastPath(snapshot, holdings, delays, 2)
    outcome = fastpath.search(0, 0)
    assert outcome.messages == 0
    assert outcome.nodes_contacted == 0
    assert outcome.results == ()
    assert outcome == generic_search(
        _ListView(snapshot.rows, holdings, delays), 0, 0, TTLTermination(2)
    )


def test_live_rows_track_mutation():
    """The snapshot sees NeighborList mutations with no rebuild."""
    lists = [NeighborList() for _ in range(3)]
    holdings = [set(), set(), {7}]
    delays = [[0.0, 0.1, 0.2], [0.1, 0.0, 0.3], [0.2, 0.3, 0.0]]
    snapshot = AdjacencySnapshot(lists)
    fastpath = FloodFastPath(snapshot, holdings, delays, 2)
    assert fastpath.search(0, 7).messages == 0

    lists[0].add(1)
    lists[1].add(0)
    lists[1].add(2)
    lists[2].add(1)
    outcome = fastpath.search(0, 7)
    assert [r.responder for r in outcome.results] == [2]
    assert outcome.results[0].delay == pytest.approx(2.0 * (0.1 + 0.3))

    lists[1].remove(2)
    lists[2].remove(1)
    assert fastpath.search(0, 7).results == ()


def test_add_holder_updates_index():
    """add_holder mirrors a library mutation into the inverted index."""
    lists = [NeighborList(), NeighborList()]
    lists[0].add(1)
    lists[1].add(0)
    holdings = [set(), set()]
    delays = [[0.0, 0.5], [0.5, 0.0]]
    fastpath = FloodFastPath(AdjacencySnapshot(lists), holdings, delays, 2)
    assert not fastpath.search(0, 3).hit

    holdings[1].add(3)
    fastpath.add_holder(1, 3)
    outcome = fastpath.search(0, 3)
    assert outcome.hit and outcome.results[0].responder == 1
    # Idempotent, like set.add.
    fastpath.add_holder(1, 3)
    assert fastpath.search(0, 3) == outcome._replace()


def test_constructor_validation():
    lists = [NeighborList() for _ in range(2)]
    snapshot = AdjacencySnapshot(lists)
    delays = [[0.0, 0.1], [0.1, 0.0]]
    with pytest.raises(ValueError, match="same node population"):
        FloodFastPath(snapshot, [set()], delays, 2)
    with pytest.raises(ValueError, match="same node population"):
        FloodFastPath(snapshot, [set(), set()], [[0.0]], 2)
    with pytest.raises(ValueError, match="max_hops"):
        FloodFastPath(snapshot, [set(), set()], delays, 0)


def test_explicit_max_hops_overrides_default():
    """A line: 0-1-2-3. TTL controls the reachable depth exactly."""
    lists = [NeighborList() for _ in range(4)]
    for a, b in ((0, 1), (1, 2), (2, 3)):
        lists[a].add(b)
        lists[b].add(a)
    holdings = [set(), set(), set(), {1}]
    delays = [[0.05 * (a != b) for b in range(4)] for a in range(4)]
    fastpath = FloodFastPath(AdjacencySnapshot(lists), holdings, delays, 2)
    assert not fastpath.search(0, 1).hit
    assert fastpath.search(0, 1, max_hops=3).hit
    view = _ListView([nl.view() for nl in lists], holdings, delays)
    for hops in (1, 2, 3, 4):
        assert fastpath.search(0, 1, max_hops=hops) == generic_search(
            view, 0, 1, TTLTermination(hops)
        )


# ---------------------------------------------------------------------------
# HolderIndex.get against the body it replaced
# ---------------------------------------------------------------------------
def reference_holder_get(index, item):
    """``HolderIndex.get`` through the ``np.searchsorted`` wrapper and ``int()``."""
    members = index._cache.get(item)
    if members is None:
        lo = int(np.searchsorted(index._item_ids, item, side="left"))
        hi = int(np.searchsorted(index._item_ids, item, side="right"))
        members = set(index._owners[lo:hi].tolist())
        extra = index._extra.pop(item, None)
        if extra is not None:
            members.update(extra)
        index._cache[item] = members
    return members


@settings(max_examples=150, deadline=None)
@given(
    libraries=st.lists(st.frozensets(st.integers(0, 11), max_size=6), min_size=1, max_size=8),
    ops=st.lists(
        st.tuples(st.booleans(), st.integers(0, 7), st.integers(-1, 13)), max_size=40
    ),
)
def test_holder_index_get_matches_reference(libraries, ops):
    """Same sets from the same histories: holders added before an item's
    first ``get`` (the overflow list) and after it (the cached set), items
    nobody holds, items beyond both ends of the sorted id column."""
    index, reference = HolderIndex(libraries), HolderIndex(libraries)
    truth = {}
    for node, library in enumerate(libraries):
        for item in library:
            truth.setdefault(item, set()).add(node)
    for is_add, node, item in ops:
        if is_add:
            node %= len(libraries)
            index.add_holder(node, item)
            reference.add_holder(node, item)
            truth.setdefault(item, set()).add(node)
        else:
            got = index.get(item)
            assert got == reference_holder_get(reference, item) == truth.get(item, set())
            assert all(type(member) is int for member in got)
            assert index.get(item) is got  # materialized once, then live
    assert index.items_cached == reference.items_cached
