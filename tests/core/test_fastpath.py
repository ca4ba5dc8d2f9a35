"""FloodFastPath must be bit-identical to the reference generic_search.

The fast path is allowed to be clever (epoch marks, span-compressed trace,
stamped holder marks, a flat id slab) but not to be different: for any
topology, holder placement, hop limit and initiator it must return the same
QueryOutcome the oracle returns — same results in the same order, same
floats, same message and contact counts. These tests drive both
implementations over randomized worlds built exactly as the engine builds
them — a :class:`~repro.core.soa.NeighborTable` slab plus a
:class:`~repro.core.fastpath.HolderIndex` over a library CSR — with the
edge cases the BFS
rewrite is most likely to get wrong: isolated initiators, dense graphs full
of duplicate deliveries, directed rows, holders at every level, hop limit
1, slab padding past a row's degree, rows filled to the full stride, live
link mutation, and downloads recorded before and after an item's first
query.
"""

from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.fastpath import _LOOP_STAMP_MAX, FloodFastPath, HolderIndex
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


def _csr(libraries):
    """``(items, offsets)`` of a list of per-node item sets, as the library
    generator lays a population out."""
    offsets = np.zeros(len(libraries) + 1, dtype=np.int64)
    np.cumsum([len(library) for library in libraries], out=offsets[1:])
    items = np.fromiter(
        (item for library in libraries for item in library), dtype=np.int32, count=offsets[-1]
    )
    return items, offsets


def _index(libraries):
    return HolderIndex(*_csr(libraries))


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


class _RowDelays:
    """The kernel's ``delay(a, b)`` accessor over nested per-row lists."""

    def __init__(self, rows):
        self.rows = rows

    def __call__(self, a, b):
        return self.rows[a][b]

    def __len__(self):
        return len(self.rows)


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
    fastpath = FloodFastPath(table, _index(holdings), _RowDelays(delays), max_hops)
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
    fastpath = FloodFastPath(table, _index(holdings), _RowDelays(delays), 2)
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
    fastpath = FloodFastPath(table, _index([set(), set(), {7}]), _RowDelays(delays), 2)
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
    fastpath = FloodFastPath(table, _index(holdings), _RowDelays(delays), max_hops)
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


def test_holder_marks_wrap_around():
    """Holder marks are one byte per node and come round every 255 queries:
    a holder stamped in the first round must not read as a holder of the
    unheld item asked about at the same mark in later rounds."""
    table = _table([[1], [0, 2], [1]], 2)
    holdings = [set(), {7}, {7}]
    delays = [[0.05 * (a != b) for b in range(3)] for a in range(3)]
    fastpath = FloodFastPath(table, _index(holdings), _RowDelays(delays), 2)
    view = _TableView(table, holdings, delays)
    for query in range(3 * 255):
        item = 7 if query < 255 and query % 50 == 0 else 8
        assert fastpath.search(0, item) == generic_search(
            view, 0, item, TTLTermination(2)
        )


def test_add_holder_updates_index():
    """A download recorded in the index reaches the kernel's next query."""
    table = _table([[1], [0]], 1)
    holdings = [set(), set()]
    delays = [[0.0, 0.5], [0.5, 0.0]]
    index = _index(holdings)
    fastpath = FloodFastPath(table, index, _RowDelays(delays), 2)
    assert not fastpath.search(0, 3).hit

    holdings[1].add(3)
    index.add_holder(1, 3)
    outcome = fastpath.search(0, 3)
    assert outcome.hit and outcome.results[0].responder == 1
    # Idempotent, like set.add.
    index.add_holder(1, 3)
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
    query or after it, including items nobody held at construction."""
    table, holdings, delays = _build_world(*params)
    n_nodes, n_items = params[0], params[3]
    index = _index(holdings)
    fastpath = FloodFastPath(table, index, _RowDelays(delays), 3)
    view = _TableView(table, holdings, delays)
    for is_add, node_pick, item_pick in ops:
        node, item = node_pick % n_nodes, item_pick % (n_items + 1)
        if is_add:
            holdings[node].add(item)
            index.add_holder(node, item)
        else:
            assert fastpath.search(node, item) == generic_search(
                view, node, item, TTLTermination(3)
            )


def test_constructor_validation():
    table = NeighborTable(2, 1)
    delays = [[0.0, 0.1], [0.1, 0.0]]
    with pytest.raises(ValueError, match="same node population"):
        FloodFastPath(table, _index([set()]), _RowDelays(delays), 2)
    with pytest.raises(ValueError, match="same node population"):
        FloodFastPath(table, _index([set(), set()]), _RowDelays([[0.0]]), 2)
    with pytest.raises(ValueError, match="max_hops"):
        FloodFastPath(table, _index([set(), set()]), _RowDelays(delays), 0)


def test_explicit_max_hops_overrides_default():
    """A line: 0-1-2-3. TTL controls the reachable depth exactly."""
    table = _table([[1], [0, 2], [1, 3], [2]], 2)
    holdings = [set(), set(), set(), {1}]
    delays = [[0.05 * (a != b) for b in range(4)] for a in range(4)]
    fastpath = FloodFastPath(table, _index(holdings), _RowDelays(delays), 2)
    assert not fastpath.search(0, 1).hit
    assert fastpath.search(0, 1, max_hops=3).hit
    view = _TableView(table, holdings, delays)
    for hops in (1, 2, 3, 4):
        assert fastpath.search(0, 1, max_hops=hops) == generic_search(
            view, 0, 1, TTLTermination(hops)
        )


# ---------------------------------------------------------------------------
# HolderIndex against a dict-of-sets oracle
# ---------------------------------------------------------------------------
class OracleHolders:
    """The holdings as a plain dict, item -> set of holders, grown in place
    by downloads."""

    def __init__(self, libraries):
        self.by_item = {}
        for node, library in enumerate(libraries):
            for item in library:
                self.by_item.setdefault(item, set()).add(node)

    def holders(self, item):
        return self.by_item.get(item, set())

    def add_holder(self, node, item):
        self.by_item.setdefault(item, set()).add(node)


def _stamped(index, marks, item, epoch):
    """The nodes ``index.stamp`` marks for ``item`` at ``epoch``."""
    index.stamp(marks, item, epoch)
    return {node for node in range(len(marks)) if marks[node] == epoch}


@settings(max_examples=200, deadline=None)
@given(
    # Lists, not sets: a CSR row is one user's songs in draw order, each once.
    libraries=st.lists(
        st.lists(st.integers(0, 11), max_size=6, unique=True), min_size=1, max_size=8
    ),
    ops=st.lists(
        st.tuples(
            st.sampled_from(["add", "holds", "stamp"]), st.integers(0, 7), st.integers(-3, 16)
        ),
        max_size=40,
    ),
    loop_max=st.sampled_from([0, _LOOP_STAMP_MAX]),
)
def test_holder_index_matches_reference(libraries, ops, loop_max):
    """``holds`` and ``stamp`` answer as a dict of holder sets does over the
    same history: empty libraries, items nobody holds, ids below zero and past
    the largest held item, downloads recorded before and after an item is
    first asked about, and repeated downloads of a held item, which leave the
    overflow as it was. ``loop_max`` 0 stamps every held item with the NumPy
    assignment, the default with the Python loop (slices here are short)."""
    index, oracle = HolderIndex(*_csr(libraries)), OracleHolders(libraries)
    n_nodes = len(libraries)
    assert len(index) == n_nodes
    # One marks array across every stamp, as the kernel keeps it: marks of
    # earlier epochs must not read as holders.
    marks = bytearray(n_nodes)
    epoch = 0
    with patch("repro.core.fastpath._LOOP_STAMP_MAX", loop_max):
        for op, node, item in ops:
            node %= n_nodes
            if op == "add":
                already = node in oracle.holders(item)
                overflow = {key: list(nodes) for key, nodes in index._extra.items()}
                index.add_holder(node, item)
                oracle.add_holder(node, item)
                if already:
                    assert index._extra == overflow
            elif op == "holds":
                assert index.holds(node, item) == (node in oracle.holders(item))
            else:
                epoch += 1
                assert _stamped(index, marks, item, epoch) == oracle.holders(item)
        for item in range(-3, 18):
            expected = oracle.holders(item)
            epoch += 1
            assert _stamped(index, marks, item, epoch) == expected
            assert {node for node in range(n_nodes) if index.holds(node, item)} == expected


def test_stamp_long_owner_slice():
    """An item with more holders than the loop stamps goes through the NumPy
    assignment, downloads included, and ``holds`` agrees node by node."""
    n_nodes = 3 * _LOOP_STAMP_MAX
    libraries = [[4, 2] if node % 3 else [2] for node in range(n_nodes)]
    index = HolderIndex(*_csr(libraries))
    for node in (0, 3, 6, 5):
        index.add_holder(node, 4)
    expected = {node for node in range(n_nodes) if node % 3} | {0, 3, 6}
    assert len(expected) > _LOOP_STAMP_MAX
    marks = bytearray(n_nodes)
    assert _stamped(index, marks, 4, 1) == expected
    assert _stamped(index, marks, 2, 2) == set(range(n_nodes))
    assert {node for node in range(n_nodes) if index.holds(node, 4)} == expected
    assert index._extra == {4: [0, 3, 6]}
