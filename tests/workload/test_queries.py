"""Tests for the query model."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import WorkloadError
from repro.rng import ScalarDraws
from repro.types import HOUR
from repro.workload.catalog import MusicCatalog
from repro.workload.library import LibraryConfig, generate_libraries
from repro.workload.queries import QueryModel


@pytest.fixture(scope="module")
def population():
    catalog = MusicCatalog(n_items=5000, n_categories=50)
    cfg = LibraryConfig(n_users=100, mean_size=40, std_size=8)
    return generate_libraries(catalog, np.random.default_rng(0), cfg)


class TestValidation:
    def test_invalid_rate(self, population):
        with pytest.raises(WorkloadError):
            QueryModel(population, rate_per_hour=0)

    def test_invalid_favorite_probability(self, population):
        with pytest.raises(WorkloadError):
            QueryModel(population, favorite_probability=1.5)

    def test_invalid_max_resample(self, population):
        with pytest.raises(WorkloadError):
            QueryModel(population, max_resample=-1)


class TestInterarrival:
    def test_mean_interarrival(self, population):
        qm = QueryModel(population, rate_per_hour=8.0)
        assert qm.mean_interarrival == pytest.approx(HOUR / 8.0)

    def test_draws_match_rate(self, population):
        qm = QueryModel(population, rate_per_hour=4.0)
        rng = np.random.default_rng(1)
        draws = [qm.next_interarrival(rng) for _ in range(5000)]
        assert np.mean(draws) == pytest.approx(HOUR / 4.0, rel=0.05)
        assert min(draws) > 0


class TestCategorySelection:
    def test_favorite_probability_respected(self, population):
        qm = QueryModel(population, favorite_probability=0.5)
        rng = np.random.default_rng(2)
        user = 0
        fav = int(population.favorite[user])
        hits = sum(qm.sample_category(user, rng) == fav for _ in range(4000))
        assert abs(hits / 4000 - 0.5) < 0.03

    def test_non_favorite_uniform_over_secondary(self, population):
        qm = QueryModel(population, favorite_probability=0.0)
        rng = np.random.default_rng(3)
        user = 1
        secs = population.secondary[user]
        counts = {c: 0 for c in secs}
        for _ in range(5000):
            counts[qm.sample_category(user, rng)] += 1
        for c in secs:
            assert abs(counts[c] / 5000 - 0.2) < 0.03

    def test_no_secondary_falls_back_to_favorite(self):
        catalog = MusicCatalog(n_items=100, n_categories=2)
        pop = generate_libraries(
            catalog,
            np.random.default_rng(0),
            LibraryConfig(n_users=3, mean_size=10, std_size=0, n_secondary=0),
        )
        qm = QueryModel(pop, favorite_probability=0.0)
        rng = np.random.default_rng(1)
        assert qm.sample_category(0, rng) == int(pop.favorite[0])


def reference_sample_category(favorite_probability, favorite, secondary, user, rng):
    """``QueryModel.sample_category`` as it read per-user secondary tuples."""
    secs = secondary[user]
    if not secs or rng.random() < favorite_probability:
        return int(favorite[user])
    return int(secs[rng.integers(len(secs))])


@given(
    seed=st.integers(0, 2**32 - 1),
    n_secondary=st.sampled_from([0, 1, 3, 5]),
    favorite_probability=st.sampled_from([0.0, 0.5, 1.0]),
    scalar=st.booleans(),
)
@settings(max_examples=40, deadline=None)
def test_sample_category_draws_as_the_tuple_reference(
    seed, n_secondary, favorite_probability, scalar
):
    """The flat secondary column gives the tuple rows' values, from the same words."""
    catalog = MusicCatalog(n_items=600, n_categories=6)
    pop = generate_libraries(
        catalog,
        np.random.default_rng(seed),
        LibraryConfig(n_users=20, mean_size=30, std_size=5, n_secondary=n_secondary),
    )
    assert pop.secondary.shape == (20, n_secondary)
    secondary = [pop.categories(user) for user in range(20)]
    assert all(type(c) is int for row in secondary for c in row)
    qm = QueryModel(pop, favorite_probability=favorite_probability)
    wrap = ScalarDraws if scalar else (lambda gen: gen)
    rng, ref_rng = wrap(np.random.default_rng(seed)), wrap(np.random.default_rng(seed))
    users = np.random.default_rng(seed + 1).integers(20, size=200).tolist()
    got = [qm.sample_category(user, rng) for user in users]
    want = [
        reference_sample_category(favorite_probability, pop.favorite, secondary, user, ref_rng)
        for user in users
    ]
    assert got == want
    assert [rng.random() for _ in range(3)] == [ref_rng.random() for _ in range(3)]


class TestItemSelection:
    def test_items_in_preferred_categories(self, population):
        qm = QueryModel(population)
        rng = np.random.default_rng(4)
        catalog = population.catalog
        for user in range(0, 100, 13):
            allowed = set(population.preferred_categories(user))
            for _ in range(50):
                item = qm.sample_item(user, rng)
                assert catalog.category_of(item) in allowed

    def test_exclude_local_avoids_own_library(self, population):
        qm = QueryModel(population, exclude_local=True)
        rng = np.random.default_rng(5)
        local_hits = sum(
            population.holds(0, qm.sample_item(0, rng)) for _ in range(300)
        )
        # Rarely, max_resample attempts all land in the library; nearly all
        # draws must avoid it.
        assert local_hits <= 2

    def test_include_local_allows_own_library(self):
        # Tiny catalog where the user owns nearly everything, so local hits
        # are guaranteed when not excluded.
        catalog = MusicCatalog(n_items=20, n_categories=2)
        pop = generate_libraries(
            catalog,
            np.random.default_rng(0),
            LibraryConfig(n_users=2, mean_size=10, std_size=0, n_secondary=1, min_size=1),
        )
        qm = QueryModel(pop, exclude_local=False)
        rng = np.random.default_rng(1)
        assert any(pop.holds(0, qm.sample_item(0, rng)) for _ in range(100))

    def test_popular_items_queried_more(self, population):
        qm = QueryModel(population, exclude_local=False)
        rng = np.random.default_rng(6)
        catalog = population.catalog
        rank_lt_10 = rank_ge_half = 0
        for _ in range(3000):
            item = qm.sample_item(0, rng)
            rank = catalog.rank_of(item)
            if rank < 10:
                rank_lt_10 += 1
            elif rank >= catalog.items_per_category // 2:
                rank_ge_half += 1
        assert rank_lt_10 > rank_ge_half

    def test_deterministic(self, population):
        qm = QueryModel(population)
        a = [qm.sample_item(3, np.random.default_rng(7)) for _ in range(5)]
        b = [qm.sample_item(3, np.random.default_rng(7)) for _ in range(5)]
        assert a == b
