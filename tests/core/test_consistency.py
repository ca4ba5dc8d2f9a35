"""Tests for the Section 3.1 consistency predicate over network snapshots."""

from hypothesis import given
from hypothesis import strategies as st

from repro.core.consistency import find_inconsistencies


class TestConsistency:
    def test_consistent_pair(self):
        out = {0: [1], 1: []}
        inc = {0: [], 1: [0]}
        assert not find_inconsistencies(out, inc)

    def test_missing_incoming_entry_is_inconsistent(self):
        out = {0: [1], 1: []}
        inc = {0: [], 1: []}
        assert find_inconsistencies(out, inc) == [(0, 1)]

    def test_node_absent_from_incoming_map(self):
        out = {0: [9]}
        inc = {0: []}
        assert find_inconsistencies(out, inc) == [(0, 9)]

    def test_empty_network_consistent(self):
        assert not find_inconsistencies({}, {})

    def test_symmetric_network_consistent(self):
        nodes = range(5)
        out = {i: [(i + 1) % 5, (i - 1) % 5] for i in nodes}
        inc = {i: [(i + 1) % 5, (i - 1) % 5] for i in nodes}
        assert not find_inconsistencies(out, inc)

    @given(
        st.dictionaries(
            st.integers(0, 9),
            st.sets(st.integers(0, 9), max_size=4),
            max_size=10,
        )
    )
    def test_property_mirrored_lists_always_consistent(self, out):
        # Build incoming as the exact mirror of outgoing: by construction
        # consistent.
        inc = {n: set() for n in range(10)}
        for i, outs in out.items():
            for j in outs:
                inc.setdefault(j, set()).add(i)
        assert not find_inconsistencies(out, inc)
