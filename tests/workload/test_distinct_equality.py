"""``sample_distinct`` against the race it replaced, and against arithmetic.

The worlds pinned before the re-baseline window (``docs/development.md``,
rule 3, "Re-baseline window") were drawn with the full Gumbel-top-k
evaluation kept below as :func:`reference_sample_distinct`. Successive
sampling reads the stream differently, so old and new are judged by law:
fixed-seed chi-square and KS gates, Bonferroni-corrected over the family,
with the reference as the old side. What is still exact is tested exactly:
a successive draw is the first ``k`` distinct ranks of the scalar draws
``ZipfSampler.sample(rng)`` would make from the same stream; a draw on the
large-``k`` side is the reference, generator state included; favorites and
sizes are the stream's first draws.
"""

import math
from bisect import bisect_right

import numpy as np
import pytest
import scipy.stats
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.workload.catalog import MusicCatalog
from repro.workload.library import LibraryConfig, generate_libraries
from repro.workload.zipf import ZipfSampler

#: Family-wise false-alarm rate of the distribution gates below.
FAMILY_ALPHA = 1e-3
#: Gates in the family: four (n, k) cases x three, the ordered pairs, the
#: first pick, two library-size moments and the secondaries.
GATES = 4 * 3 + 1 + 1 + 2 + 1
ALPHA = FAMILY_ALPHA / GATES


def reference_sample_distinct(sampler, rng, k):
    """The body of ``ZipfSampler.sample_distinct`` before successive sampling."""
    if k == 0:
        return np.empty(0, dtype=np.int64)
    gumbel = rng.gumbel(size=sampler.n)
    keys = np.log(sampler.pmf) + gumbel
    top = np.argpartition(keys, sampler.n - k)[sampler.n - k :]
    return top[np.argsort(keys[top])[::-1]].astype(np.int64)


def first_distinct_scalar_draws(sampler, rng, k):
    """Successive sampling by its definition: scalar draws, repeats skipped."""
    out = []
    while len(out) < k:
        rank = bisect_right(sampler._cdf_list, rng.random())
        if rank not in out:
            out.append(rank)
    return out


def takes_the_race(sampler, k):
    return not math.isfinite(sampler._expected_draws(np.array([k]))[0])


def assert_exact(sampler, k, seed):
    """The successive side equals its definition, the race side the reference."""
    rng = np.random.default_rng(seed)
    got = sampler.sample_distinct(rng, k)
    assert got.dtype == np.int64
    twin = np.random.default_rng(seed)
    if takes_the_race(sampler, k):
        assert got.tolist() == reference_sample_distinct(sampler, twin, k).tolist()
        assert rng.bit_generator.state == twin.bit_generator.state
    else:
        assert got.tolist() == first_distinct_scalar_draws(sampler, twin, k)


class TestEqualsReference:
    @given(
        n=st.integers(min_value=1, max_value=8000),
        theta=st.floats(min_value=0.0, max_value=3.5),
        k=st.integers(min_value=0, max_value=150),
        seed=st.integers(min_value=0, max_value=2**32),
    )
    @example(n=8000, theta=0.9, k=25, seed=0)  # scale_20k favorite
    @example(n=4000, theta=0.9, k=100, seed=1)  # paper favorite
    @example(n=5, theta=3.5, k=5, seed=2)  # the whole support, steep
    @settings(max_examples=200, deadline=None)
    def test_property_each_side_equals_its_oracle(self, n, theta, k, seed):
        assert_exact(ZipfSampler(n, theta), min(k, n), seed)

    @pytest.mark.parametrize(
        ("n", "k", "successive"),
        [
            (7, 2, True),
            (20, 20, False),  # k == n: the last rank may take any number of draws
            (71, 1, True),
            (1000, 123, True),  # the guard's edge at the 10,000-peer support
            (1000, 124, False),
            (8000, 25, True),
            (8000, 723, True),  # and at the 20,000-peer support
            (8000, 724, False),
        ],
    )
    def test_both_sides_of_the_large_k_guard(self, n, k, successive):
        sampler = ZipfSampler(n, 0.9)
        assert takes_the_race(sampler, k) != successive
        assert_exact(sampler, k, seed=11)

    def test_steep_skew_takes_the_race_early(self):
        # At theta 3.5 the 9th rank has p ~ 1e-4: successive draws would
        # need thousands of repeats of the head, so the race takes it.
        sampler = ZipfSampler(8000, 3.5)
        assert not takes_the_race(sampler, 8)
        assert takes_the_race(sampler, 9)

    def test_rows_are_row_by_row_draws_in_one_stream(self):
        sampler = ZipfSampler(300, 0.9)
        counts = [30, 0, 5, 200, 1, 150]
        assert [takes_the_race(sampler, k) for k in counts if k] == [
            False, False, True, False, True
        ]  # fmt: skip
        out = sampler.sample_distinct_rows(np.random.default_rng(4), counts)
        rows = np.split(out, np.cumsum(counts)[:-1])
        assert [row.size for row in rows] == counts
        assert all(np.unique(row).size == row.size for row in rows)
        # The race rows draw after all the successive rows, in row order.
        twin = np.random.default_rng(4)
        sampler.sample_distinct_rows(twin, [30, 5, 1])
        assert rows[3].tolist() == reference_sample_distinct(sampler, twin, 200).tolist()
        assert rows[5].tolist() == reference_sample_distinct(sampler, twin, 150).tolist()

    def test_a_uniform_on_a_cdf_entry_takes_the_next_rank(self):
        # searchsorted(side="right"), as ZipfSampler.sample draws: a uniform
        # equal to cdf[i] is rank i + 1. A real generator almost never lands
        # on an entry, so only a script can tell the two sides apart.
        sampler = ZipfSampler(50, 0.9)
        cdf = sampler._cdf_list
        doubles = [cdf[0], cdf[0], cdf[3], 0.0, cdf[1], *np.random.default_rng(1).random(200)]
        got = sampler.sample_distinct(_ScriptedRng(doubles), 4).tolist()
        assert got == [1, 4, 0, 2]
        assert got == first_distinct_scalar_draws(sampler, _ScriptedRng(doubles), 4)


class _ScriptedRng:
    """Generator stand-in over a fixed list of doubles.

    ``gumbel`` is numpy's C ``random_gumbel`` transcribed: libm ``log``, and
    a uniform of exactly 0.0 is skipped for the next double. A real bit
    generator returns 0.0 once in 2**53 draws, so a script is the only way
    to put one in front of both implementations.
    """

    def __init__(self, doubles):
        self.doubles = list(doubles)
        self.used = 0

    def _next(self):
        self.used += 1
        return self.doubles[self.used - 1]

    def random(self, size=None):
        if size is None:
            return self._next()
        return np.array([self._next() for _ in range(size)])

    def gumbel(self, size):
        out = []
        while len(out) < size:
            u = 1.0 - self._next()
            if u < 1.0:
                out.append(0.0 - 1.0 * math.log(-math.log(u)))
        return np.array(out)


class TestZeroUniform:
    def test_scripted_gumbel_is_numpys(self):
        doubles = np.random.default_rng(5).random(1000)
        np.testing.assert_array_equal(
            _ScriptedRng(doubles).gumbel(1000), np.random.default_rng(5).gumbel(size=1000)
        )

    @pytest.mark.parametrize("zeros", [[3], [150], [7, 8, 399]])
    def test_zero_uniform_is_redrawn_in_stream_order(self, zeros):
        # Race rows draw through rng.gumbel, which skips a 0.0 uniform.
        n, counts = 200, [150, 120]
        sampler = ZipfSampler(n, 0.9)
        assert all(takes_the_race(sampler, k) for k in counts)
        doubles = np.random.default_rng(9).random(2 * n + 10)
        doubles[zeros] = 0.0

        ref_rng = _ScriptedRng(doubles)
        expected = [reference_sample_distinct(sampler, ref_rng, k).tolist() for k in counts]
        assert ref_rng.used == 2 * n + len(zeros)

        rng = _ScriptedRng(doubles)
        assert sampler.sample_distinct_rows(rng, counts).tolist() == sum(expected, [])
        assert rng.used == ref_rng.used

    def test_zero_uniform_is_the_top_rank_on_the_successive_side(self):
        sampler = ZipfSampler(200, 0.9)
        doubles = [0.0, 0.0, *np.random.default_rng(3).random(100)]
        got = sampler.sample_distinct(_ScriptedRng(doubles), 3).tolist()
        assert got[0] == 0
        assert got == first_distinct_scalar_draws(sampler, _ScriptedRng(doubles), 3)


def chi2_pvalue(observed, expected, min_expected=5.0):
    """Goodness of fit, bins with less than ``min_expected`` pooled into the last."""
    observed, expected = np.asarray(observed, float), np.asarray(expected, float)
    keep = expected >= min_expected
    obs = np.append(observed[keep], observed[~keep].sum())
    exp = np.append(expected[keep], expected[~keep].sum())
    if exp[-1] == 0:
        obs, exp = obs[:-1], exp[:-1]
    return scipy.stats.chisquare(obs, exp * obs.sum() / exp.sum()).pvalue


def homogeneity_pvalue(a, b, min_expected=5.0):
    """Two-sample chi-square on two count vectors over the same bins."""
    a, b = np.asarray(a, float), np.asarray(b, float)
    pooled = (a + b) / 2
    keep = pooled >= min_expected
    table = np.array(
        [np.append(a[keep], a[~keep].sum()), np.append(b[keep], b[~keep].sum())]
    )
    table = table[:, table.sum(axis=0) > 0]
    return scipy.stats.chi2_contingency(table, correction=False).pvalue


@pytest.fixture(scope="module", params=[(8000, 25), (4000, 100), (300, 30), (300, 150)])
def old_and_new(request):
    """2,000 draws of one (n, k) from the new sampler and from the reference."""
    n, k = request.param
    draws = 2000
    sampler = ZipfSampler(n, 0.9)
    new = sampler.sample_distinct_rows(np.random.default_rng(32), [k] * draws).reshape(draws, k)
    rng = np.random.default_rng(2003)
    old = np.array([reference_sample_distinct(sampler, rng, k) for _ in range(draws)])
    return sampler, k, new, old


class TestDistributionGates:
    """Old (Gumbel race) against new (successive draws), by law."""

    def test_cases_cover_both_sides(self, old_and_new):
        sampler, k, _, _ = old_and_new
        assert takes_the_race(sampler, k) == (k == 150)

    def test_first_drawn_rank_follows_the_pmf(self, old_and_new):
        sampler, _, new, _ = old_and_new
        observed = np.bincount(new[:, 0], minlength=sampler.n)
        assert chi2_pvalue(observed, new.shape[0] * sampler.pmf) > ALPHA

    def test_inclusion_probabilities_match_the_reference(self, old_and_new):
        sampler, _, new, old = old_and_new
        included_new = np.bincount(new.ravel(), minlength=sampler.n)
        included_old = np.bincount(old.ravel(), minlength=sampler.n)
        assert homogeneity_pvalue(included_new, included_old) > ALPHA

    def test_rank_frequency_curve_matches_the_reference(self, old_and_new):
        _, _, new, old = old_and_new
        assert scipy.stats.ks_2samp(new.ravel(), old.ravel()).pvalue > ALPHA


class TestAgainstSuccessiveSampling:
    """An oracle that shares no code: the textbook definition, enumerated.

    Weighted sampling without replacement picks rank i first with
    probability p_i, then rank j among the rest with p_j / (1 - p_i).
    """

    def test_ordered_pairs_and_inclusion_n5_k2(self):
        n, draws = 5, 20_000
        sampler = ZipfSampler(n, 0.9)
        assert not takes_the_race(sampler, 2)
        p = sampler.pmf
        pair_prob = {
            (i, j): p[i] * p[j] / (1.0 - p[i]) for i in range(n) for j in range(n) if i != j
        }
        assert sum(pair_prob.values()) == pytest.approx(1.0)
        inclusion = [sum(q for pair, q in pair_prob.items() if i in pair) for i in range(n)]
        assert sum(inclusion) == pytest.approx(2.0)

        rng = np.random.default_rng(2003)
        drawn = sampler.sample_distinct_rows(rng, [2] * draws).reshape(draws, 2).tolist()
        seen = dict.fromkeys(pair_prob, 0)
        for i, j in drawn:
            seen[(i, j)] += 1
        pairs = list(pair_prob)
        observed = [seen[pair] for pair in pairs]
        assert chi2_pvalue(observed, [draws * pair_prob[pair] for pair in pairs]) > ALPHA
        for i in range(n):
            held = sum(c for pair, c in seen.items() if i in pair) / draws
            assert held == pytest.approx(inclusion[i], abs=0.015)

    def test_first_pick_follows_the_pmf_on_the_filtered_side(self):
        # k = 1 on the successive side, where repeats are filtered out.
        n, draws = 100, 20_000
        sampler = ZipfSampler(n, 0.9)
        assert not takes_the_race(sampler, 1)
        first = sampler.sample_distinct_rows(np.random.default_rng(2003), [1] * draws)
        observed = np.bincount(first, minlength=n)
        assert chi2_pvalue(observed, draws * sampler.pmf) > ALPHA


def reference_counts(size, per_category, favorite_fraction, n_secondary):
    """Songs per category of one user, as the per-user loop computed them."""
    fav_count = min(int(round(size * favorite_fraction)), per_category)
    remaining = size - fav_count
    counts = [fav_count]
    if n_secondary > 0 and remaining > 0:
        base, extra = divmod(remaining, n_secondary)
        counts += [min(base + (i < extra), per_category) for i in range(n_secondary)]
    return counts + [0] * (1 + n_secondary - len(counts))


@pytest.mark.parametrize(
    ("n_items", "n_categories", "config"),
    [
        (20_000, 20, LibraryConfig(n_users=300, mean_size=61.0, std_size=15.0)),
        # Libraries capped by the songs on offer, shares rounding both ways.
        (60, 6, LibraryConfig(n_users=50, mean_size=40, std_size=20, min_size=1)),
        (900, 9, LibraryConfig(n_users=50, mean_size=500, std_size=400, favorite_fraction=0.1)),
        (100, 2, LibraryConfig(n_users=20, mean_size=20, std_size=9, n_secondary=0)),
    ],
)
def test_songs_per_category_follow_the_split(n_items, n_categories, config):
    catalog = MusicCatalog(n_items=n_items, n_categories=n_categories, theta=0.9)
    pop = generate_libraries(catalog, np.random.default_rng(5), config)
    rng = np.random.default_rng(5)
    ZipfSampler(n_categories, config.user_category_theta).sample(rng, size=config.n_users)
    sizes = np.clip(
        np.rint(rng.normal(config.mean_size, config.std_size, size=config.n_users)),
        config.min_size,
        None,
    )
    per_category = catalog.items_per_category
    sizes = np.minimum(sizes, (1 + config.n_secondary) * per_category).astype(int)
    for user, size in enumerate(sizes.tolist()):
        held = np.bincount(
            [catalog.category_of(item) for item in pop.libraries[user]], minlength=n_categories
        )
        got = [int(held[c]) for c in pop.preferred_categories(user)]
        want = reference_counts(size, per_category, config.favorite_fraction, config.n_secondary)
        assert got == want


class TestPopulation:
    """What ``generate_libraries`` draws around the songs."""

    N_USERS = 2000

    @pytest.fixture(scope="class")
    def world(self):
        catalog = MusicCatalog(n_items=20_000, n_categories=20, theta=0.9)
        cfg = LibraryConfig(n_users=self.N_USERS, mean_size=60.0, std_size=15.0)
        return catalog, cfg, generate_libraries(catalog, np.random.default_rng(77), cfg)

    def test_favorites_and_sizes_are_the_streams_first_draws(self, world):
        catalog, cfg, pop = world
        rng = np.random.default_rng(77)
        favorite = ZipfSampler(catalog.n_categories, cfg.user_category_theta).sample(
            rng, size=cfg.n_users
        )
        sizes = np.clip(
            np.rint(rng.normal(cfg.mean_size, cfg.std_size, size=cfg.n_users)),
            cfg.min_size,
            None,
        )
        np.testing.assert_array_equal(pop.favorite, favorite)
        np.testing.assert_array_equal(pop.library_sizes(), sizes)

    def test_library_size_mean_and_variance(self, world):
        _, cfg, pop = world
        sizes = pop.library_sizes().astype(float)
        # Rounding to the nearest song adds 1/12 to the variance; the clip
        # at min_size sits 3.3 sd below the mean and is negligible here.
        var = cfg.std_size**2 + 1 / 12
        z = (sizes.mean() - cfg.mean_size) / math.sqrt(var / sizes.size)
        assert 2 * scipy.stats.norm.sf(abs(z)) > ALPHA
        stat = (sizes.size - 1) * sizes.var(ddof=1) / var
        dist = scipy.stats.chi2(sizes.size - 1)
        assert 2 * min(dist.cdf(stat), dist.sf(stat)) > ALPHA

    def test_secondaries_are_a_uniform_ordered_subset_of_the_others(self, world):
        catalog, cfg, pop = world
        others = catalog.n_categories - 1
        positions = np.zeros((cfg.n_secondary, others))
        for fav, secs in zip(pop.favorite.tolist(), pop.secondary):
            assert fav not in secs and len(set(secs)) == len(secs) == cfg.n_secondary
            for j, c in enumerate(secs):
                positions[j, c - (c > fav)] += 1
        # One gate for the family: every position uniform over the others.
        pvalue = min(chi2_pvalue(row, np.full(others, row.sum() / others)) for row in positions)
        assert pvalue > ALPHA / cfg.n_secondary
