"""FloodFastPath must be bit-identical to the reference generic_search.

The fast path is allowed to be clever (epoch marks, span-compressed trace,
inverted holder index, a flat id slab) but not to be different: for any
topology, holder placement, hop limit and initiator it must return the same
QueryOutcome the oracle returns — same results in the same order, same
floats, same message and contact counts. These tests drive both
implementations over randomized worlds built exactly as the engine builds
them — a :class:`~repro.core.soa.NeighborTable` slab plus a
:class:`~repro.core.fastpath.HolderIndex` — with the edge cases the BFS
rewrite is most likely to get wrong: isolated initiators, dense graphs full
of duplicate deliveries, directed rows, holders at every level, hop limit
1, slab padding past a row's degree, rows filled to the full stride, live
link mutation, and downloads recorded before and after an item's first
query.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.fastpath import FloodFastPath, HolderIndex
from repro.core.search import generic_search
from repro.core.soa import NeighborTable
from repro.core.termination import TTLTermination


class _TableView:
    """A NetworkView over the exact structures the fast path consumes."""

    def __init__(self, table, holdings, delays):
        self.table = table
        self.holdings = holdings
        self.delays = delays

    def holds(self, node, item):
        return item in self.holdings[node]

    def neighbors(self, node):
        return self.table.row(node)

    def link_delay(self, a, b):
        return self.delays[a][b]


def _table(rows, stride):
    """A slab holding ``rows``, its padding poisoned with an id past the
    population: a kernel that read beyond ``deg[u]`` would index out of
    range instead of silently walking a stale edge."""
    n = len(rows)
    table = NeighborTable(n, stride)
    for node, row in enumerate(rows):
        for other in row:
            table.add(node, other)
        base = node * stride
        table.ids[base + len(row) : base + stride] = [n] * (stride - len(row))
    return table


def _delays(rng, n_nodes):
    delays = rng.uniform(0.01, 0.3, size=(n_nodes, n_nodes))
    return ((delays + delays.T) / 2.0).tolist()


def _build_world(n_nodes, edge_prob, holder_prob, n_items, seed, symmetric, padding=0):
    """A random world: a slab ``padding`` slots wider than its widest row."""
    rng = np.random.default_rng(seed)
    rows = [[] for _ in range(n_nodes)]
    for a in range(n_nodes):
        for b in range(n_nodes):
            if a == b or b in rows[a]:
                continue
            if rng.random() < edge_prob:
                rows[a].append(b)
                if symmetric and a not in rows[b]:
                    rows[b].append(a)
    holdings = [
        {item for item in range(n_items) if rng.random() < holder_prob}
        for _ in range(n_nodes)
    ]
    table = _table(rows, max(map(len, rows)) + padding)
    return table, holdings, _delays(rng, n_nodes)


def _agree(table, holdings, delays, max_hops, queries):
    fastpath = FloodFastPath(table, HolderIndex(holdings), delays, max_hops)
    view = _TableView(table, holdings, delays)
    for initiator, item in queries:
        assert fastpath.search(initiator, item, issued_at=3.5) == generic_search(
            view, initiator, item, TTLTermination(max_hops), issued_at=3.5
        )


world_params = st.tuples(
    st.integers(2, 18),        # n_nodes
    st.floats(0.0, 0.7),       # edge_prob (0.0 => isolated nodes, empty rows)
    st.floats(0.0, 0.6),       # holder_prob
    st.integers(1, 4),         # n_items
    st.integers(0, 10_000),    # world seed
    st.booleans(),             # symmetric links? (False => directed rows)
)


@settings(max_examples=120, deadline=None)
@given(
    params=world_params,
    padding=st.integers(0, 3),  # 0 => the widest row fills the stride
    max_hops=st.integers(1, 5),
    initiator_pick=st.integers(0, 10_000),
    item_pick=st.integers(0, 10_000),
)
def test_fastpath_matches_reference(params, padding, max_hops, initiator_pick, item_pick):
    n_nodes, n_items = params[0], params[3]
    table, holdings, delays = _build_world(*params, padding=padding)
    _agree(
        table, holdings, delays, max_hops,
        [(initiator_pick % n_nodes, item_pick % n_items)],
    )


@settings(max_examples=60, deadline=None)
@given(
    n_nodes=st.integers(2, 12),
    stride=st.integers(1, 5),
    seed=st.integers(0, 10_000),
    max_hops=st.integers(1, 5),
)
def test_fastpath_rows_at_full_stride(n_nodes, stride, seed, max_hops):
    """Every row exactly ``stride`` wide: no padding anywhere, and each
    row's slice ends where the next row's begins."""
    rng = np.random.default_rng(seed)
    width = min(stride, n_nodes - 1)
    rows = [
        [int(b) for b in rng.permutation([b for b in range(n_nodes) if b != a])[:width]]
        for a in range(n_nodes)
    ]
    holdings = [{int(rng.integers(3))} for _ in range(n_nodes)]
    table = _table(rows, width)
    assert all(table.degree(u) == table.slots for u in range(n_nodes))
    _agree(
        table, holdings, _delays(rng, n_nodes), max_hops,
        [(u, item) for u in range(n_nodes) for item in range(3)],
    )


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 10_000), max_hops=st.integers(1, 4))
def test_fastpath_dense_duplicate_heavy(seed, max_hops):
    """Near-complete symmetric graphs maximize duplicate deliveries."""
    table, holdings, delays = _build_world(
        n_nodes=8, edge_prob=0.9, holder_prob=0.3, n_items=2,
        seed=seed, symmetric=True,
    )
    _agree(
        table, holdings, delays, max_hops,
        [(initiator, item) for initiator in range(8) for item in range(2)],
    )


def test_empty_neighborhood():
    """An isolated initiator: zero messages, zero contacts, no results."""
    table, holdings, delays = _build_world(3, 0.0, 1.0, 1, 0, True)
    fastpath = FloodFastPath(table, HolderIndex(holdings), delays, 2)
    outcome = fastpath.search(0, 0)
    assert outcome.messages == 0
    assert outcome.nodes_contacted == 0
    assert outcome.results == ()
    assert outcome == generic_search(
        _TableView(table, holdings, delays), 0, 0, TTLTermination(2)
    )


def test_live_rows_track_mutation():
    """The kernel sees NeighborTable mutations with no rebuild."""
    table = NeighborTable(3, 2)
    delays = [[0.0, 0.1, 0.2], [0.1, 0.0, 0.3], [0.2, 0.3, 0.0]]
    fastpath = FloodFastPath(table, HolderIndex([set(), set(), {7}]), delays, 2)
    assert fastpath.search(0, 7).messages == 0

    table.add(0, 1)
    table.add(1, 0)
    table.add(1, 2)
    table.add(2, 1)
    outcome = fastpath.search(0, 7)
    assert [r.responder for r in outcome.results] == [2]
    assert outcome.results[0].delay == pytest.approx(2.0 * (0.1 + 0.3))

    table.remove(1, 2)
    table.remove(2, 1)
    assert fastpath.search(0, 7).results == ()


@settings(max_examples=100, deadline=None)
@given(
    n_nodes=st.integers(2, 10),
    stride=st.integers(1, 4),
    seed=st.integers(0, 10_000),
    max_hops=st.integers(1, 4),
    ops=st.lists(
        st.tuples(st.integers(0, 2), st.integers(0, 9), st.integers(0, 9)),
        max_size=80,
    ),
)
def test_live_mutations_match_reference(n_nodes, stride, seed, max_hops, ops):
    """Links added and removed between queries — removals leave stale ids
    past a row's degree — and one kernel built up front answers every query
    as the reference does over the mutated table."""
    rng = np.random.default_rng(seed)
    table = NeighborTable(n_nodes, stride)
    holdings = [{int(rng.integers(3))} for _ in range(n_nodes)]
    delays = _delays(rng, n_nodes)
    fastpath = FloodFastPath(table, HolderIndex(holdings), delays, max_hops)
    view = _TableView(table, holdings, delays)
    for op, a, b in ops:
        a, b = a % n_nodes, b % n_nodes
        if op == 0:
            if a != b and not table.contains(a, b) and table.degree(a) < stride:
                table.add(a, b)
        elif op == 1:
            table.discard(a, b)
        else:
            item = b % 3
            assert fastpath.search(a, item) == generic_search(
                view, a, item, TTLTermination(max_hops)
            )


def test_add_holder_updates_index():
    """add_holder mirrors a library mutation into the inverted index."""
    table = _table([[1], [0]], 1)
    holdings = [set(), set()]
    delays = [[0.0, 0.5], [0.5, 0.0]]
    fastpath = FloodFastPath(table, HolderIndex(holdings), delays, 2)
    assert not fastpath.search(0, 3).hit

    holdings[1].add(3)
    fastpath.add_holder(1, 3)
    outcome = fastpath.search(0, 3)
    assert outcome.hit and outcome.results[0].responder == 1
    # Idempotent, like set.add.
    fastpath.add_holder(1, 3)
    assert fastpath.search(0, 3) == outcome._replace()


@settings(max_examples=100, deadline=None)
@given(
    params=world_params,
    ops=st.lists(
        st.tuples(st.booleans(), st.integers(0, 10_000), st.integers(0, 10_000)),
        max_size=30,
    ),
)
def test_add_holder_before_and_after_first_query(params, ops):
    """Downloads reach the kernel whether they land before an item's first
    query (the index's overflow list) or after it (the materialized set),
    including items nobody held at construction."""
    table, holdings, delays = _build_world(*params)
    n_nodes, n_items = params[0], params[3]
    fastpath = FloodFastPath(table, HolderIndex(holdings), delays, 3)
    view = _TableView(table, holdings, delays)
    for is_add, node_pick, item_pick in ops:
        node, item = node_pick % n_nodes, item_pick % (n_items + 1)
        if is_add:
            holdings[node].add(item)
            fastpath.add_holder(node, item)
        else:
            assert fastpath.search(node, item) == generic_search(
                view, node, item, TTLTermination(3)
            )


def test_constructor_validation():
    table = NeighborTable(2, 1)
    delays = [[0.0, 0.1], [0.1, 0.0]]
    with pytest.raises(ValueError, match="same node population"):
        FloodFastPath(table, HolderIndex([set()]), delays, 2)
    with pytest.raises(ValueError, match="same node population"):
        FloodFastPath(table, HolderIndex([set(), set()]), [[0.0]], 2)
    with pytest.raises(ValueError, match="max_hops"):
        FloodFastPath(table, HolderIndex([set(), set()]), delays, 0)


def test_explicit_max_hops_overrides_default():
    """A line: 0-1-2-3. TTL controls the reachable depth exactly."""
    table = _table([[1], [0, 2], [1, 3], [2]], 2)
    holdings = [set(), set(), set(), {1}]
    delays = [[0.05 * (a != b) for b in range(4)] for a in range(4)]
    fastpath = FloodFastPath(table, HolderIndex(holdings), delays, 2)
    assert not fastpath.search(0, 1).hit
    assert fastpath.search(0, 1, max_hops=3).hit
    view = _TableView(table, holdings, delays)
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
