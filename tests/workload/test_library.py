"""Tests for the synthetic user-library generator."""

import hashlib

import numpy as np
import pytest

from repro.errors import WorkloadError
from repro.gnutella.config import GnutellaConfig
from repro.rng import RngStreams
from repro.workload.catalog import MusicCatalog
from repro.workload.library import _BLOCK_SONGS, LibraryConfig, generate_libraries
from repro.workload.zipf import ZipfSampler


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
    """Absolute digests of generated worlds, refreshed in the re-baseline window.

    Every committed event-stream digest, the 10k pin and every file under
    ``results/`` descends from these populations. The values change only
    under the written procedure of ``docs/development.md`` rule 3,
    "Re-baseline window" (a sampler with a new stream), never as a side
    effect. They were first taken at commit ecee57d, from the Gumbel race.
    """

    def test_300_users_30000_items(self):
        catalog = MusicCatalog(n_items=30_000, n_categories=50, theta=0.9)
        pop = generate_libraries(catalog, np.random.default_rng(0), LibraryConfig(n_users=300))
        assert world_digest(pop) == (
            "e81bb7393f044adc64474372e62ca32d59fdfd3cafde72ad0b548d570f8d9d46"
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
            "ef25a48b5493127de3ce54fe5c37b33ef5bd92480fd0918e98eb3d68424dbe24"
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
        assert pop.secondary.shape == (5, 0)
        for user in range(5):
            assert pop.categories(user) == ()
            fav = int(pop.favorite[user])
            for item in pop.libraries[user]:
                assert catalog.category_of(item) == fav


def reference_generate_libraries(catalog, rng, cfg):
    """The generator as it was before the CSR layout: one frozenset per user,
    built from the block's draws in insertion order. Returns the libraries."""
    category_sampler = ZipfSampler(catalog.n_categories, cfg.user_category_theta)
    favorite = category_sampler.sample(rng, size=cfg.n_users)
    sizes = np.clip(
        np.rint(rng.normal(cfg.mean_size, cfg.std_size, size=cfg.n_users)), cfg.min_size, None
    ).astype(np.int64)
    sizes = np.minimum(sizes, (1 + cfg.n_secondary) * catalog.items_per_category)
    per_category = catalog.items_per_category
    counts = np.zeros((cfg.n_users, 1 + cfg.n_secondary), dtype=np.int64)
    counts[:, 0] = np.minimum(np.rint(sizes * cfg.favorite_fraction), per_category)
    if cfg.n_secondary > 0:
        base, extra = np.divmod(sizes - counts[:, 0], cfg.n_secondary)
        odd = np.arange(cfg.n_secondary) < extra[:, None]
        counts[:, 1:] = np.minimum(base[:, None] + odd, per_category)
    libraries = []
    ends = np.cumsum(counts.sum(axis=1))
    start = 0
    while start < cfg.n_users:
        begin = int(ends[start - 1]) if start else 0
        stop = max(start + 1, int(np.searchsorted(ends, begin + _BLOCK_SONGS, side="right")))
        fav = favorite[start:stop]
        secs = np.empty((stop - start, 0), dtype=np.int64)
        if cfg.n_secondary:
            keys = rng.random((stop - start, catalog.n_categories))
            keys[np.arange(stop - start), fav] = np.inf
            secs = np.argpartition(keys, cfg.n_secondary - 1, axis=1)[:, : cfg.n_secondary]
            secs = np.take_along_axis(
                secs, np.argsort(np.take_along_axis(keys, secs, axis=1), axis=1), axis=1
            )
        block = counts[start:stop].reshape(-1)
        items = catalog.popularity.sample_distinct_rows(rng, block)
        items += np.repeat(np.column_stack((fav, secs)).reshape(-1) * per_category, block)
        flat = items.tolist()
        a = 0
        for b in (ends[start:stop] - begin).tolist():
            libraries.append(frozenset(flat[a:b]))
            a = b
        start = stop
    return libraries


@pytest.mark.parametrize(
    "n_users,n_items,n_secondary", [(300, 30_000, 5), (40, 600, 0), (1, 100, 2)]
)
def test_csr_slices_equal_reference_frozensets(n_users, n_items, n_secondary):
    """Each user's CSR slice, as a frozenset, is the set the per-user
    generator built from the same stream, in the same iteration order (a
    300-user population spans two draw blocks)."""
    catalog = MusicCatalog(n_items=n_items, n_categories=10)
    cfg = LibraryConfig(n_users=n_users, n_secondary=n_secondary)
    rng, twin = np.random.default_rng(5), np.random.default_rng(5)
    pop = generate_libraries(catalog, rng, cfg)
    reference = reference_generate_libraries(catalog, twin, cfg)
    assert rng.bit_generator.state == twin.bit_generator.state
    assert pop.items.dtype == np.int32 and len(pop.offsets) == n_users + 1
    assert pop.total_songs() == sum(map(len, reference)) == len(pop.items)
    for user, expected in enumerate(reference):
        lo, hi = pop.offsets[user], pop.offsets[user + 1]
        got = frozenset(pop.items[lo:hi].tolist())
        assert got == expected and list(got) == list(expected)
        assert list(pop.libraries[user]) == list(expected)
    assert list(pop.library_sizes()) == [len(lib) for lib in reference]
