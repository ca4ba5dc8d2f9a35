"""Tests for the bounded Zipf sampler, with scipy's zipfian as the oracle."""

import numpy as np
import pytest
import scipy.stats
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import WorkloadError
from repro.workload.zipf import ZipfSampler, zipf_pmf


def reference_sample_scalar(sampler, rng):
    """The one-at-a-time draw ``ZipfSampler.sample(rng)`` made before ``bisect``."""
    u = rng.random(None)
    return int(np.searchsorted(sampler._cdf, u, side="right"))


class ScriptedUniforms:
    """A generator whose ``random()`` hands out the given doubles in order."""

    def __init__(self, values):
        self._values = iter(values)

    def random(self, size=None):
        assert size is None
        return next(self._values)


class TestPmf:
    def test_sums_to_one(self):
        assert zipf_pmf(1000, 0.9).sum() == pytest.approx(1.0)

    def test_monotone_decreasing(self):
        pmf = zipf_pmf(500, 0.9)
        assert (np.diff(pmf) <= 0).all()

    def test_theta_zero_is_uniform(self):
        np.testing.assert_allclose(zipf_pmf(10, 0.0), np.full(10, 0.1))

    def test_matches_scipy_zipfian(self):
        n, theta = 200, 0.9
        ours = zipf_pmf(n, theta)
        scipys = scipy.stats.zipfian.pmf(np.arange(1, n + 1), theta, n)
        np.testing.assert_allclose(ours, scipys, rtol=1e-12)

    def test_invalid_params(self):
        with pytest.raises(WorkloadError):
            zipf_pmf(0, 0.9)
        with pytest.raises(WorkloadError):
            zipf_pmf(10, -0.1)


class TestSampling:
    def test_scalar_and_vector_shapes(self):
        s = ZipfSampler(100, 0.9)
        rng = np.random.default_rng(0)
        assert isinstance(s.sample(rng), int)
        assert s.sample(rng, size=7).shape == (7,)

    def test_ranks_in_range(self):
        s = ZipfSampler(50, 0.9)
        ranks = s.sample(np.random.default_rng(1), size=10_000)
        assert ranks.min() >= 0
        assert ranks.max() < 50

    def test_empirical_distribution_matches_pmf(self):
        n, theta = 30, 0.9
        s = ZipfSampler(n, theta)
        draws = s.sample(np.random.default_rng(2), size=200_000)
        counts = np.bincount(draws, minlength=n)
        # Chi-squared goodness of fit against the exact pmf.
        chi2, p = scipy.stats.chisquare(counts, s.pmf * len(draws))
        assert p > 0.001, f"chi2={chi2}, p={p}"

    def test_rank_zero_most_frequent(self):
        s = ZipfSampler(100, 0.9)
        draws = s.sample(np.random.default_rng(3), size=50_000)
        counts = np.bincount(draws, minlength=100)
        assert counts[0] == counts.max()

    def test_deterministic_given_rng(self):
        s = ZipfSampler(100, 0.9)
        a = s.sample(np.random.default_rng(5), size=10)
        b = s.sample(np.random.default_rng(5), size=10)
        np.testing.assert_array_equal(a, b)

    def test_rank_probability(self):
        s = ZipfSampler(10, 0.9)
        assert s.rank_probability(0) == pytest.approx(s.pmf[0])
        with pytest.raises(WorkloadError):
            s.rank_probability(10)

    @given(
        st.integers(min_value=1, max_value=500),
        st.floats(min_value=0.0, max_value=2.0),
    )
    @settings(max_examples=25)
    def test_property_samples_always_in_support(self, n, theta):
        s = ZipfSampler(n, theta)
        draws = s.sample(np.random.default_rng(0), size=50)
        assert ((draws >= 0) & (draws < n)).all()


@pytest.mark.parametrize("theta", [0.0, 0.9, 3.0])
@pytest.mark.parametrize("n", [1, 2, 4000])
class TestScalarDrawEqualsReference:
    """``bisect_right`` over the list is ``searchsorted`` over the array."""

    def test_same_ranks_and_state_over_1e5_uniforms(self, n, theta):
        sampler = ZipfSampler(n, theta)
        rng, ref_rng = np.random.default_rng(11), np.random.default_rng(11)
        for _ in range(100_000):
            got = sampler.sample(rng)
            assert got == reference_sample_scalar(sampler, ref_rng)
            assert type(got) is int
        assert rng.bit_generator.state == ref_rng.bit_generator.state

    def test_same_rank_at_and_around_every_table_entry(self, n, theta):
        sampler = ZipfSampler(n, theta)
        cdf = sampler._cdf
        edges = np.concatenate(([0.0], cdf, np.nextafter(cdf, 0.0), np.nextafter(cdf, 2.0)))
        edges = edges[edges < 1.0].tolist()  # what rng.random() can return
        expected = np.searchsorted(cdf, edges, side="right").tolist()
        scripted = ScriptedUniforms(edges)
        assert [sampler.sample(scripted) for _ in edges] == expected
        assert [reference_sample_scalar(sampler, ScriptedUniforms([u])) for u in edges] == expected


class TestSampleDistinct:
    def test_distinctness(self):
        s = ZipfSampler(100, 0.9)
        picks = s.sample_distinct(np.random.default_rng(0), 60)
        assert len(set(picks.tolist())) == 60

    def test_full_support(self):
        s = ZipfSampler(20, 0.9)
        picks = s.sample_distinct(np.random.default_rng(0), 20)
        assert sorted(picks.tolist()) == list(range(20))

    def test_k_zero(self):
        s = ZipfSampler(10, 0.9)
        assert s.sample_distinct(np.random.default_rng(0), 0).size == 0

    def test_k_too_large_rejected(self):
        with pytest.raises(WorkloadError):
            ZipfSampler(5, 0.9).sample_distinct(np.random.default_rng(0), 6)

    def test_negative_k_rejected(self):
        with pytest.raises(WorkloadError):
            ZipfSampler(5, 0.9).sample_distinct(np.random.default_rng(0), -1)

    def test_popular_ranks_overrepresented(self):
        # Rank 0 should appear in far more draws-of-10 than rank 99.
        s = ZipfSampler(100, 0.9)
        rng = np.random.default_rng(7)
        hits0 = hits99 = 0
        for _ in range(400):
            picks = set(s.sample_distinct(rng, 10).tolist())
            hits0 += 0 in picks
            hits99 += 99 in picks
        assert hits0 > 2 * hits99
