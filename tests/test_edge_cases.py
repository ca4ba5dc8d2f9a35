"""Focused edge-case tests that don't fit a single module's suite."""

import numpy as np
import pytest

from repro.analysis.summary import ComparisonRow
from repro.workload.catalog import MusicCatalog
from repro.workload.library import LibraryConfig, generate_libraries
from repro.workload.queries import QueryModel


class TestComparisonRow:
    def test_change_and_format(self):
        row = ComparisonRow("hits", 100.0, 125.0)
        assert row.change == pytest.approx(0.25)
        text = row.format()
        assert "hits" in text and "+25.0%" in text

    def test_zero_baseline(self):
        assert ComparisonRow("x", 0.0, 0.0).change == 0.0
        assert ComparisonRow("x", 0.0, 5.0).change == float("inf")


class TestQueryModelGiveUp:
    def test_resample_exhaustion_returns_local_item(self):
        """When a user owns an entire category, exclusion must give up
        gracefully instead of looping forever."""
        catalog = MusicCatalog(n_items=20, n_categories=2)
        pop = generate_libraries(
            catalog,
            np.random.default_rng(0),
            LibraryConfig(n_users=1, mean_size=20, std_size=0, n_secondary=1,
                          min_size=1),
        )
        # The user owns all 20 songs; every draw is a local hit.
        assert len(pop.libraries[0]) == 20
        qm = QueryModel(pop, exclude_local=True, max_resample=4)
        item = qm.sample_item(0, np.random.default_rng(1))
        assert pop.holds(0, item)  # gave up and returned an owned item


class TestStatsTableRankedStability:
    def test_exclude_and_eligible_compose(self):
        from repro.core.statistics import StatsTable

        s = StatsTable()
        for n, b in [(1, 5.0), (2, 4.0), (3, 3.0), (4, 2.0)]:
            s.add_benefit(n, b)
        ranked = s.ranked(exclude=[1], eligible=lambda n: n != 3)
        assert ranked == [2, 4]
