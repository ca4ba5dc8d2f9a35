"""The struct-of-arrays slabs, cell for cell.

``NeighborTable`` must be a dense array of ``NeighborList`` semantics —
insertion order, duplicate/overflow rejection, left-shifting removal — and
``PeerArrays``' per-peer views must land every read and write in the
columns: scalars, outgoing rows, and incoming rows of either relation
(fixed-stride symmetric rows, unbounded asymmetric lists).
"""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.neighbors import NeighborList
from repro.core.soa import NeighborTable, PeerArrays, SlotNeighborList
from repro.errors import NeighborListError


class TestNeighborTable:
    def test_add_preserves_insertion_order(self):
        table = NeighborTable(4, 3)
        table.add(0, 2)
        table.add(0, 1)
        table.add(0, 3)
        assert table.row(0) == [2, 1, 3]
        assert table.row_tuple(0) == (2, 1, 3)
        assert table.degree(0) == 3

    def test_rejects_duplicates_and_overflow(self):
        table = NeighborTable(4, 2)
        table.add(0, 1)
        with pytest.raises(NeighborListError, match="already a neighbor"):
            table.add(0, 1)
        table.add(0, 2)
        with pytest.raises(NeighborListError, match="full"):
            table.add(0, 3)

    def test_remove_left_shifts(self):
        table = NeighborTable(2, 4)
        for other in (5, 6, 7, 8):
            table.add(1, other)
        table.remove(1, 6)
        assert table.row(1) == [5, 7, 8]
        with pytest.raises(NeighborListError, match="not a neighbor"):
            table.remove(1, 6)

    def test_discard_and_clear_row(self):
        table = NeighborTable(2, 4)
        table.add(0, 1)
        assert table.discard(0, 1) is True
        assert table.discard(0, 1) is False
        table.add(0, 1)
        table.clear_row(0)
        assert table.row(0) == []
        assert not table.contains(0, 1)

    def test_rows_are_independent(self):
        table = NeighborTable(3, 2)
        table.add(0, 1)
        table.add(1, 0)
        table.add(2, 0)
        assert table.row(0) == [1]
        assert table.row(1) == [0]
        assert table.row(2) == [0]
        assert len(table) == 3


class TestSlotNeighborList:
    def test_matches_neighbor_list_interface(self):
        table = NeighborTable(3, 2)
        row = SlotNeighborList(table, 0)
        assert row.capacity == 2
        assert not row.is_full and row.free_slots == 2
        row.add(2)
        assert 2 in row and len(row) == 1 and list(row) == [2]
        row.add(1)
        assert row.is_full and row.free_slots == 0
        assert row.as_tuple() == (2, 1)
        assert row.view() == [2, 1]
        row.remove(2)
        assert row.as_tuple() == (1,)
        assert row.discard(1) is True and row.discard(1) is False
        row.add(1)
        row.clear()
        assert len(row) == 0

    def test_view_is_a_copy(self):
        table = NeighborTable(2, 2)
        row = SlotNeighborList(table, 0)
        row.add(1)
        snapshot = row.view()
        row.add(0)  # mutate after the copy
        assert snapshot == [1]


class TestSoAPeerViews:
    def test_scalar_fields_land_in_arrays(self):
        arrays = PeerArrays(3, 2)
        peers = arrays.peers()
        peer = peers[1]
        assert not peer.online
        peer.online = True
        assert arrays.online[1] == 1
        peer.sessions += 1
        peer.query_epoch += 2
        peer.requests_since_update = 5
        assert arrays.sessions[1] == 1
        assert arrays.query_epoch[1] == 2
        assert arrays.requests_since_update[1] == 5
        assert peer.stats is arrays.stats[1]

    def test_neighbor_views_land_in_tables(self):
        arrays = PeerArrays(3, 2)
        peer = arrays.peers()[0]
        assert peer.has_free_slot and peer.degree == 0
        peer.neighbors.outgoing.add(2)
        peer.neighbors.incoming.add(2)
        assert arrays.out.row(0) == [2]
        assert arrays.incoming.row(0) == [2]
        assert peer.degree == 1

    def test_unbounded_incoming_rows_are_neighbor_lists(self):
        arrays = PeerArrays(4, 1, math.inf)
        peers = arrays.peers()
        assert peers[0].neighbors.incoming is arrays.incoming[0]
        for consumer in (1, 2, 3):
            peers[consumer].neighbors.outgoing.add(0)
            peers[0].neighbors.incoming.add(consumer)
        assert arrays.incoming[0].as_tuple() == (1, 2, 3)
        peers[0].neighbors.incoming.remove(2)
        assert peers[0].neighbors.incoming.as_tuple() == (1, 3)
        assert not any(peer.has_free_slot for peer in peers[1:])

    def test_peer_list_exposes_arrays(self):
        arrays = PeerArrays(2, 2)
        peers = arrays.peers()
        assert peers.arrays is arrays
        assert len(peers) == 2
        assert [p.node for p in peers] == [0, 1]


SLOTS = 3


@given(
    st.lists(
        st.tuples(st.integers(0, 3), st.integers(0, 7)),
        min_size=1,
        max_size=40,
    )
)
@settings(max_examples=60, deadline=None)
def test_neighbor_table_row_matches_neighbor_list(ops):
    """One slab row driven op-for-op against a real NeighborList."""
    table = NeighborTable(1, SLOTS)
    slab_row = SlotNeighborList(table, 0)
    reference = NeighborList(capacity=SLOTS)
    for op, other in ops:
        if op == 0:
            slab_err = ref_err = None
            try:
                slab_row.add(other)
            except NeighborListError as exc:
                slab_err = str(exc)
            try:
                reference.add(other)
            except NeighborListError as exc:
                ref_err = str(exc)
            assert (slab_err is None) == (ref_err is None)
        elif op == 1:
            assert slab_row.discard(other) == reference.discard(other)
        elif op == 2:
            assert (other in slab_row) == (other in reference)
        else:
            assert slab_row.as_tuple() == reference.as_tuple()
    assert slab_row.as_tuple() == reference.as_tuple()
    assert len(slab_row) == len(reference)
    assert slab_row.is_full == reference.is_full
