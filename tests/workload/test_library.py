"""Tests for the synthetic user-library generator."""

import hashlib

import numpy as np
import pytest

from repro.errors import WorkloadError
from repro.gnutella.config import GnutellaConfig
from repro.rng import RngStreams
from repro.workload.catalog import MusicCatalog
from repro.workload.library import LibraryConfig, generate_libraries


@pytest.fixture(scope="module")
def population():
    catalog = MusicCatalog(n_items=10_000, n_categories=50, theta=0.9)
    cfg = LibraryConfig(n_users=300, mean_size=60.0, std_size=15.0)
    return generate_libraries(catalog, np.random.default_rng(0), cfg)


class TestConfigValidation:
    def test_defaults_match_paper(self):
        cfg = LibraryConfig()
        assert cfg.n_users == 2000
        assert cfg.mean_size == 200.0
        assert cfg.std_size == 50.0
        assert cfg.favorite_fraction == 0.5
        assert cfg.n_secondary == 5

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"n_users": 0},
            {"mean_size": 0},
            {"std_size": -1},
            {"min_size": 0},
            {"favorite_fraction": 0.0},
            {"favorite_fraction": 1.5},
            {"n_secondary": -1},
        ],
    )
    def test_invalid_rejected(self, kwargs):
        with pytest.raises(WorkloadError):
            LibraryConfig(**kwargs)

    def test_too_few_categories_rejected(self):
        catalog = MusicCatalog(n_items=100, n_categories=4)
        with pytest.raises(WorkloadError):
            generate_libraries(
                catalog, np.random.default_rng(0), LibraryConfig(n_users=5)
            )


class TestStructure:
    def test_population_size(self, population):
        assert population.n_users == 300
        assert len(population.secondary) == 300
        assert population.favorite.shape == (300,)

    def test_secondary_distinct_and_exclude_favorite(self, population):
        for user in range(population.n_users):
            fav = int(population.favorite[user])
            secs = population.secondary[user]
            assert len(secs) == 5
            assert len(set(secs)) == 5
            assert fav not in secs

    def test_library_sizes_near_mean(self, population):
        sizes = population.library_sizes()
        assert abs(sizes.mean() - 60.0) < 5.0
        assert (sizes >= 10).all()

    def test_half_library_in_favorite_category(self, population):
        catalog = population.catalog
        for user in range(0, population.n_users, 17):
            fav = int(population.favorite[user])
            lib = population.libraries[user]
            in_fav = sum(1 for item in lib if catalog.category_of(item) == fav)
            assert abs(in_fav / len(lib) - 0.5) < 0.05

    def test_items_only_from_preferred_categories(self, population):
        catalog = population.catalog
        for user in range(0, population.n_users, 23):
            allowed = set(population.preferred_categories(user))
            for item in population.libraries[user]:
                assert catalog.category_of(item) in allowed

    def test_favorite_assignment_zipf_skewed(self, population):
        # Category 0 must have more fans than the median category.
        counts = np.bincount(population.favorite, minlength=50)
        assert counts[0] > np.median(counts)

    def test_popular_songs_widely_held(self, population):
        catalog = population.catalog
        owners = population.owners_index()
        # Compare holders of the top-popularity song vs the bottom song of
        # the most-fans category.
        top_item = catalog.item_at(0, 0)
        bottom_item = catalog.item_at(0, catalog.items_per_category - 1)
        assert len(owners.get(top_item, [])) > len(owners.get(bottom_item, []))

    def test_holds(self, population):
        lib0 = population.libraries[0]
        some_item = next(iter(lib0))
        assert population.holds(0, some_item)
        assert not population.holds(0, -1)

    def test_total_songs(self, population):
        assert population.total_songs() == population.library_sizes().sum()


class TestDeterminism:
    def test_same_seed_same_population(self):
        catalog = MusicCatalog(n_items=1000, n_categories=10)
        cfg = LibraryConfig(n_users=50, mean_size=30, std_size=5)
        a = generate_libraries(catalog, np.random.default_rng(9), cfg)
        b = generate_libraries(catalog, np.random.default_rng(9), cfg)
        assert a.libraries == b.libraries
        np.testing.assert_array_equal(a.favorite, b.favorite)

    def test_different_seed_differs(self):
        catalog = MusicCatalog(n_items=1000, n_categories=10)
        cfg = LibraryConfig(n_users=50, mean_size=30, std_size=5)
        a = generate_libraries(catalog, np.random.default_rng(1), cfg)
        b = generate_libraries(catalog, np.random.default_rng(2), cfg)
        assert a.libraries != b.libraries


def world_digest(pop):
    """SHA-256 of who likes what and who holds what, set iteration order included."""
    h = hashlib.sha256()
    for user, lib in enumerate(pop.libraries):
        favorite = int(pop.favorite[user])
        secondary = tuple(int(c) for c in pop.secondary[user])
        h.update(repr((favorite, secondary, [int(i) for i in lib])).encode())
    return h.hexdigest()


class TestPinnedWorlds:
    """Absolute digests of generated worlds, taken at commit ecee57d.

    Every committed event-stream digest, ``BENCH_*.json`` outcome field and
    file under ``results/`` descends from these populations. The values
    change only under the written re-baseline procedure of ROADMAP item 1
    (a sampler with a new stream), never as a side effect.
    """

    def test_300_users_30000_items(self):
        catalog = MusicCatalog(n_items=30_000, n_categories=50, theta=0.9)
        pop = generate_libraries(catalog, np.random.default_rng(0), LibraryConfig(n_users=300))
        assert world_digest(pop) == (
            "2762a2ad1ddc659718e3bed9717227a12e7cd5e3c42d1295ae6db8ebc8b595d8"
        )

    def test_paper_preset_seed_0(self):
        # The population FastGnutellaEngine builds for GnutellaConfig(seed=0).
        cfg = GnutellaConfig(seed=0)
        catalog = MusicCatalog(cfg.n_items, cfg.n_categories, cfg.zipf_theta)
        pop = generate_libraries(
            catalog,
            RngStreams(cfg.seed).get("libraries"),
            LibraryConfig(
                n_users=cfg.n_users,
                mean_size=cfg.mean_library,
                std_size=cfg.std_library,
                n_secondary=cfg.n_secondary,
                user_category_theta=cfg.zipf_theta,
            ),
        )
        assert world_digest(pop) == (
            "43d57686aa142b2602f148fa396ced6bba2f5ff3fd1db65c4d2e5cb9d2e597ad"
        )


class TestEdgeCases:
    def test_library_capped_by_available_songs(self):
        catalog = MusicCatalog(n_items=60, n_categories=6)
        cfg = LibraryConfig(
            n_users=10, mean_size=1000, std_size=0, n_secondary=5, min_size=1
        )
        pop = generate_libraries(catalog, np.random.default_rng(0), cfg)
        # 6 categories x 10 items each = at most 60 songs per library.
        assert (pop.library_sizes() <= 60).all()

    def test_no_secondary_categories(self):
        catalog = MusicCatalog(n_items=100, n_categories=2)
        cfg = LibraryConfig(n_users=5, mean_size=20, std_size=0, n_secondary=0)
        pop = generate_libraries(catalog, np.random.default_rng(0), cfg)
        for user in range(5):
            assert pop.secondary[user] == ()
            fav = int(pop.favorite[user])
            for item in pop.libraries[user]:
                assert catalog.category_of(item) == fav
