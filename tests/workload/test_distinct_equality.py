"""``sample_distinct`` against the body it replaced, and against arithmetic.

Every world this repo pins by digest was drawn with the full Gumbel-top-k
evaluation kept below as :func:`reference_sample_distinct`. The filtered race
in ``repro.workload.zipf`` must return the same ranks in the same order and
leave the generator in the same state, for any support, skew, count and
seed, through the single and the batched entry point. A sampler with a new
stream (ROADMAP item 1) is judged old-vs-new with the same reference.
"""

import math

import numpy as np
import pytest
import scipy.stats
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.errors import WorkloadError
from repro.workload.zipf import ZipfSampler


def reference_sample_distinct(sampler, rng, k):
    """The body of ``ZipfSampler.sample_distinct`` before the filtered race."""
    if k == 0:
        return np.empty(0, dtype=np.int64)
    gumbel = rng.gumbel(size=sampler.n)
    keys = np.log(sampler.pmf) + gumbel
    top = np.argpartition(keys, sampler.n - k)[sampler.n - k :]
    return top[np.argsort(keys[top])[::-1]].astype(np.int64)


def assert_same_draws(sampler, counts, seed):
    """Single and batched entry points equal the reference, state included."""
    ref_rng = np.random.default_rng(seed)
    expected = [reference_sample_distinct(sampler, ref_rng, k).tolist() for k in counts]

    rng = np.random.default_rng(seed)
    for k, want in zip(counts, expected):
        got = sampler.sample_distinct(rng, k)
        assert got.dtype == np.int64
        assert got.tolist() == want
    assert rng.bit_generator.state == ref_rng.bit_generator.state

    for scratch in (None, sampler.batch_scratch(len(counts))):
        rng = np.random.default_rng(seed)
        assert sampler.sample_distinct_batch(rng, counts, scratch) == expected
        assert rng.bit_generator.state == ref_rng.bit_generator.state


class TestEqualsReference:
    @given(
        n=st.integers(min_value=1, max_value=8000),
        theta=st.floats(min_value=0.0, max_value=3.5),
        counts=st.lists(st.integers(min_value=0, max_value=150), min_size=1, max_size=6),
        seed=st.integers(min_value=0, max_value=2**32),
    )
    @example(n=8000, theta=0.9, counts=[25, 5, 5, 5, 5, 5], seed=0)  # scale_20k
    @example(n=4000, theta=0.9, counts=[100, 20, 0, 20, 20, 20], seed=1)  # paper
    @example(n=600, theta=0.9, counts=[100, 20, 20], seed=2)  # mixed sides
    @settings(max_examples=200, deadline=None)
    def test_property_same_ranks_order_and_state(self, n, theta, counts, seed):
        sampler = ZipfSampler(n, theta)
        assert_same_draws(sampler, [min(k, n) for k in counts], seed)

    @pytest.mark.parametrize(
        ("n", "k", "filtered"),
        [
            (7, 2, False),  # candidate target above n: the threshold solve has no root
            (20, 20, False),  # k == n
            (71, 1, False),  # just under 8 ranks per candidate (target 9)
            (72, 1, True),
            (8000, 25, True),
            (8000, 150, True),
            (1000, 150, False),
        ],
    )
    def test_both_sides_of_the_large_k_guard(self, n, k, filtered):
        sampler = ZipfSampler(n, 0.9)
        assert math.isfinite(sampler._threshold(k)) == filtered
        assert_same_draws(sampler, [k], seed=11)

    def test_threshold_admits_the_candidate_target(self):
        sampler = ZipfSampler(8000, 0.9)
        for k in (1, 5, 25, 100):
            expected_candidates = np.minimum(1.0, sampler._threshold(k) * sampler.pmf).sum()
            assert expected_candidates == pytest.approx(k + 4 * math.sqrt(k) + 4)

    @pytest.mark.parametrize("tau", [1e-6, 0.5, 3.0])
    def test_threshold_admitting_fewer_than_k_widens_on_the_same_uniforms(
        self, tau, monkeypatch
    ):
        sampler = ZipfSampler(2000, 0.9)
        sampler._thresholds[10] = tau  # far too tight: < 10 candidates pass
        passes = []
        rank_rows = ZipfSampler._rank_rows

        def spy(self, flat, ks, taus, scratch):
            passes.append(taus)
            return rank_rows(self, flat, ks, taus, scratch)

        monkeypatch.setattr(ZipfSampler, "_rank_rows", spy)
        assert_same_draws(sampler, [10], seed=3)
        assert [tau] in passes and [4.0 * tau] in passes

    def test_scratch_of_the_wrong_shape_rejected(self):
        sampler = ZipfSampler(1000, 0.9)
        rng = np.random.default_rng(0)
        with pytest.raises(WorkloadError):
            sampler.sample_distinct_batch(rng, [5, 5], sampler.batch_scratch(1))
        with pytest.raises(WorkloadError):
            sampler.sample_distinct_batch(rng, [5], ZipfSampler(999, 0.9).batch_scratch(1))


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

    def random(self, size=None, out=None):
        if out is None:
            out = np.empty(size)
        out[:] = [self._next() for _ in range(out.size)]
        return out

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
        n, counts = 200, [2, 1]
        sampler = ZipfSampler(n, 0.9)
        assert all(math.isfinite(sampler._threshold(k)) for k in counts)
        doubles = np.random.default_rng(9).random(2 * n + 10)
        doubles[zeros] = 0.0

        ref_rng = _ScriptedRng(doubles)
        expected = [reference_sample_distinct(sampler, ref_rng, k).tolist() for k in counts]
        assert ref_rng.used == 2 * n + len(zeros)

        rng = _ScriptedRng(doubles)
        assert sampler.sample_distinct_batch(rng, counts) == expected
        assert rng.used == ref_rng.used

        rng = _ScriptedRng(doubles)
        assert [sampler.sample_distinct(rng, k).tolist() for k in counts] == expected
        assert rng.used == ref_rng.used


class TestAgainstSuccessiveSampling:
    """An oracle that shares no code: the textbook definition, enumerated.

    Weighted sampling without replacement picks rank i first with
    probability p_i, then rank j among the rest with p_j / (1 - p_i).
    """

    @staticmethod
    def chi2_bound(dof):
        """Upper 0.1 % point; the seeds are fixed, so a case always passes or always fails."""
        return scipy.stats.chi2.ppf(0.999, dof)

    def test_ordered_pairs_and_inclusion_n5_k2(self):
        n, draws = 5, 20_000
        sampler = ZipfSampler(n, 0.9)
        p = sampler.pmf
        pair_prob = {
            (i, j): p[i] * p[j] / (1.0 - p[i]) for i in range(n) for j in range(n) if i != j
        }
        assert sum(pair_prob.values()) == pytest.approx(1.0)
        inclusion = [sum(q for pair, q in pair_prob.items() if i in pair) for i in range(n)]
        assert sum(inclusion) == pytest.approx(2.0)

        rng = np.random.default_rng(2003)
        seen = dict.fromkeys(pair_prob, 0)
        for _ in range(draws):
            i, j = sampler.sample_distinct(rng, 2).tolist()
            seen[(i, j)] += 1
        chi2 = sum((seen[pair] - draws * q) ** 2 / (draws * q) for pair, q in pair_prob.items())
        assert chi2 < self.chi2_bound(len(pair_prob) - 1), chi2
        for i in range(n):
            held = sum(c for pair, c in seen.items() if i in pair) / draws
            assert held == pytest.approx(inclusion[i], abs=0.015)

    def test_first_pick_follows_the_pmf_on_the_filtered_side(self):
        n, draws = 100, 20_000
        sampler = ZipfSampler(n, 0.9)
        assert math.isfinite(sampler._threshold(1))
        rng = np.random.default_rng(2003)
        scratch = sampler.batch_scratch(1)
        first = [sampler.sample_distinct_batch(rng, [1], scratch)[0][0] for _ in range(draws)]
        observed = np.bincount(first, minlength=n)
        expected = draws * sampler.pmf
        chi2 = float(((observed - expected) ** 2 / expected).sum())
        assert chi2 < self.chi2_bound(n - 1), chi2
