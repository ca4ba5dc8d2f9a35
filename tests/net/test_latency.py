"""Tests for the truncated-Gaussian pairwise delay model."""

import hashlib
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import NetworkError
from repro.net import latency
from repro.net.bandwidth import BandwidthModel
from repro.net.latency import LAZY_DELAY_NODE_THRESHOLD, DelayParameters, LatencyModel


def make_model(n=100, seed=0, params=None, classes=None, lazy_threshold=None):
    rng = np.random.default_rng(seed)
    bw = BandwidthModel(n, rng)
    if classes is not None:
        bw.classes[:] = classes
    return LatencyModel(
        bw, np.random.default_rng(seed + 1), params, lazy_threshold=lazy_threshold
    )


def reference_delay_matrix(lm):
    """The one-shot build ``delay_matrix`` had before it went blockwise.

    One ``rng.normal`` call over the whole upper triangle, through full-size
    temporaries; kept as the oracle for floats and generator consumption.
    """
    n = lm._n
    p = lm.params
    slowest = np.minimum.outer(lm.bandwidth.classes, lm.bandwidth.classes)
    means = lm._means[slowest]
    if p.std == 0.0:
        matrix = np.maximum(means, p.floor)
    else:
        upper = np.triu_indices(n, k=1)
        pair_means = means[upper]
        raw = lm._rng.normal(pair_means, p.std)
        lo = np.maximum(pair_means - p.truncation_sigmas * p.std, p.floor)
        hi = pair_means + p.truncation_sigmas * p.std
        matrix = np.zeros((n, n), dtype=float)
        matrix[upper] = np.clip(raw, lo, hi)
        matrix = matrix + matrix.T
    np.fill_diagonal(matrix, 0.0)
    for key, value in lm._cache.items():
        a, b = divmod(key, n)
        matrix[a, b] = value
        matrix[b, a] = value
    return matrix


class TestDelayParameters:
    def test_defaults_match_paper(self):
        p = DelayParameters()
        assert p.means == (0.300, 0.150, 0.070)
        assert p.std == 0.020

    def test_validation(self):
        with pytest.raises(NetworkError):
            DelayParameters(means=(0.1, 0.1))  # type: ignore[arg-type]
        with pytest.raises(NetworkError):
            DelayParameters(means=(0.0, 0.1, 0.1))
        with pytest.raises(NetworkError):
            DelayParameters(std=-1.0)
        with pytest.raises(NetworkError):
            DelayParameters(truncation_sigmas=0)
        with pytest.raises(NetworkError):
            DelayParameters(floor=0)


class TestLatencyModel:
    def test_symmetric(self):
        lm = make_model()
        assert lm.one_way_delay(3, 50) == lm.one_way_delay(50, 3)

    def test_cached_stable(self):
        lm = make_model()
        first = lm.one_way_delay(1, 2)
        assert lm.one_way_delay(1, 2) == first
        assert lm.cached_pairs == 1

    def test_self_delay_zero(self):
        assert make_model().one_way_delay(5, 5) == 0.0

    def test_round_trip_double(self):
        lm = make_model()
        assert lm.round_trip(1, 2) == pytest.approx(2 * lm.one_way_delay(1, 2))

    def test_out_of_range_rejected(self):
        lm = make_model(n=10)
        with pytest.raises(NetworkError):
            lm.one_way_delay(0, 10)

    @pytest.mark.parametrize("lazy_threshold", [None, 5])
    @pytest.mark.parametrize("a, b", [(-1, -1), (15, 15), (-1, 3), (3, -1), (10, 3), (3, 10)])
    def test_range_checked_before_self_shortcut(self, lazy_threshold, a, b):
        lm = make_model(n=10, lazy_threshold=lazy_threshold)
        with pytest.raises(NetworkError):
            lm.one_way_delay(a, b)
        if lazy_threshold is None:
            lm.delay_matrix()
            with pytest.raises(NetworkError):
                lm.one_way_delay(a, b)

    def test_mean_governed_by_slowest(self):
        # All pairs (modem, lan) should cluster near the modem mean 300 ms.
        lm = make_model(n=400, classes=[0, 2] * 200)
        modem_lan = [lm.one_way_delay(0, i) for i in range(1, 400, 2)]  # 0 is modem
        assert np.mean(modem_lan) == pytest.approx(0.300, abs=0.01)
        lan_lan = [lm.one_way_delay(1, i) for i in range(3, 400, 2)]
        assert np.mean(lan_lan) == pytest.approx(0.070, abs=0.01)

    def test_truncation_bounds_respected(self):
        lm = make_model(n=200)
        p = lm.params
        for i in range(50):
            for j in range(i + 1, 50):
                d = lm.one_way_delay(i, j)
                cls = lm.bandwidth.slowest_class(i, j)
                mean = p.means[cls]
                assert mean - 3 * p.std - 1e-12 <= d <= mean + 3 * p.std + 1e-12
                assert d >= p.floor

    def test_zero_std_gives_exact_means(self):
        params = DelayParameters(std=0.0)
        lm = make_model(classes=[2] * 100, params=params)
        assert lm.one_way_delay(0, 1) == 0.070

    def test_deterministic_given_rng(self):
        a = make_model(seed=5).one_way_delay(2, 9)
        b = make_model(seed=5).one_way_delay(2, 9)
        assert a == b

    @given(st.integers(0, 99), st.integers(0, 99))
    def test_property_positive_and_symmetric(self, a, b):
        lm = make_model()
        d = lm.one_way_delay(a, b)
        assert d >= 0.0
        assert d == lm.one_way_delay(b, a)
        if a != b:
            assert d > 0.0


class TestDelayMatrix:
    def test_symmetric_zero_diagonal(self):
        lm = make_model(n=60)
        matrix = lm.delay_matrix()
        assert matrix.shape == (60, 60)
        assert np.array_equal(matrix, matrix.T)
        assert np.all(np.diag(matrix) == 0.0)
        off_diag = matrix[~np.eye(60, dtype=bool)]
        assert np.all(off_diag > 0.0)

    def test_lookup_served_from_matrix(self):
        """After the build, one_way_delay reads the exact matrix floats."""
        lm = make_model(n=40)
        rows = lm.delay_rows()
        for a in range(40):
            for b in range(40):
                assert lm.one_way_delay(a, b) == rows[a][b]

    def test_precached_lazy_pairs_preserved(self):
        """Pairs drawn before the build keep their observed values."""
        lm = make_model(n=30)
        warm = {(a, b): lm.one_way_delay(a, b) for a, b in [(0, 1), (7, 3), (29, 10)]}
        matrix = lm.delay_matrix()
        for (a, b), value in warm.items():
            assert matrix[a, b] == value
            assert matrix[b, a] == value
            assert lm.one_way_delay(a, b) == value

    def test_has_matrix_and_cached_pairs(self):
        lm = make_model(n=20)
        assert not lm.has_matrix
        lm.one_way_delay(0, 1)
        assert lm.cached_pairs == 1
        lm.delay_matrix()
        assert lm.has_matrix
        assert lm.cached_pairs == 20 * 19 // 2

    def test_matrix_built_once(self):
        lm = make_model(n=15)
        assert lm.delay_matrix() is lm.delay_matrix()
        assert lm.delay_rows() is lm.delay_rows()

    def test_truncation_respected_in_matrix(self):
        lm = make_model(n=50)
        matrix = lm.delay_matrix()
        p = lm.params
        for i in range(50):
            for j in range(i + 1, 50):
                mean = p.means[lm.bandwidth.slowest_class(i, j)]
                lo = max(mean - p.truncation_sigmas * p.std, p.floor)
                hi = mean + p.truncation_sigmas * p.std
                assert lo - 1e-12 <= matrix[i, j] <= hi + 1e-12

    def test_zero_std_matrix_is_exact_means(self):
        params = DelayParameters(std=0.0)
        lm = make_model(n=20, classes=[2] * 20, params=params)
        matrix = lm.delay_matrix()
        off_diag = matrix[~np.eye(20, dtype=bool)]
        assert np.all(off_diag == 0.070)

    @settings(max_examples=40, deadline=None)
    @given(
        n=st.integers(2, 300),
        seed=st.integers(0, 2**32 - 1),
        std=st.sampled_from([0.0, 0.02]),
        block_rows=st.integers(1, 64),
        warm=st.lists(st.tuples(st.integers(0, 299), st.integers(0, 299)), max_size=5),
    )
    def test_block_build_equals_one_shot_build(self, n, seed, std, block_rows, warm):
        """Same floats and same generator consumption as one draw over all pairs."""
        params = DelayParameters(std=std)
        blockwise = make_model(n=n, seed=seed, params=params)
        one_shot = make_model(n=n, seed=seed, params=params)
        for a, b in warm:
            assert blockwise.one_way_delay(a % n, b % n) == one_shot.one_way_delay(a % n, b % n)
        expected = reference_delay_matrix(one_shot)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(latency, "_BUILD_BLOCK_ROWS", block_rows)
            got = blockwise.delay_matrix()
        assert np.array_equal(got, expected)
        assert blockwise._rng.bit_generator.state == one_shot._rng.bit_generator.state

    def test_paper_scale_matrix_pinned(self):
        """The n=2000 table, byte for byte, as every commit so far built it."""
        # BandwidthModel(2000, default_rng(1)) / LatencyModel(bw, default_rng(2))
        lm = make_model(n=2000, seed=1)
        assert hashlib.sha256(lm.delay_matrix().tobytes()).hexdigest() == (
            "de160aba54eb8d1709ddd7ef6104dc3764d692d40602e557574c57c51957b5fa"
        )

    def test_rows_are_float_views_of_the_matrix(self):
        lm = make_model(n=40)
        rows = lm.delay_rows()
        matrix = lm.delay_matrix()
        assert len(rows) == 40
        assert all(len(row) == 40 for row in rows)
        for a, b in [(0, 1), (7, 3), (39, 0), (12, 12)]:
            assert type(rows[a][b]) is float
            assert rows[a][b] == rows[b][a] == lm.one_way_delay(a, b) == matrix[a, b]
        assert all(np.shares_memory(np.asarray(row), matrix) for row in rows)

    def test_table_is_read_only(self):
        lm = make_model(n=12)
        lm.one_way_delay(2, 5)  # the pre-drawn overlay is written before the freeze
        matrix = lm.delay_matrix()
        with pytest.raises(ValueError):
            matrix[1, 2] = 0.5
        with pytest.raises(TypeError):
            lm.delay_rows()[1][2] = 0.5

    def test_build_memory_stays_near_one_table(self):
        """No ``tolist()`` copy, no full-size temporary: under 2x the array."""
        lm = make_model(n=2000)
        tracemalloc.start()
        try:
            lm.delay_rows()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2 * lm.delay_matrix().nbytes


class TestLazyRegime:
    """Above the node threshold: no matrix, keyed on-demand pair draws."""

    def test_threshold_selects_regime(self):
        assert not make_model(n=50, lazy_threshold=50).is_lazy
        assert make_model(n=51, lazy_threshold=50).is_lazy
        # The default threshold is far above test-sized populations.
        assert not make_model(n=100).is_lazy
        assert LAZY_DELAY_NODE_THRESHOLD == 4096

    def test_delay_matrix_refuses(self):
        lm = make_model(n=40, lazy_threshold=10)
        with pytest.raises(NetworkError, match="refusing to materialize"):
            lm.delay_matrix()
        assert not lm.has_matrix

    def test_rows_proxy_matches_one_way_delay(self):
        lm = make_model(n=40, lazy_threshold=10)
        rows = lm.delay_rows()
        assert len(rows) == 40
        assert len(rows[0]) == 40
        for a, b in [(0, 1), (1, 0), (5, 39), (12, 12)]:
            assert rows[a][b] == lm.one_way_delay(a, b)
        assert lm.delay_rows() is rows  # the proxy is cached

    def test_touch_order_independent(self):
        """The keyed draw makes pair values a pure function of (seed, pair),
        so two models touching pairs in opposite orders agree float-for-float
        — the property that keeps the digest gate valid at scale."""
        pairs = [(0, 1), (3, 17), (2, 9), (18, 19), (4, 4)]
        forward = make_model(n=20, seed=3, lazy_threshold=5)
        backward = make_model(n=20, seed=3, lazy_threshold=5)
        got_forward = {p: forward.one_way_delay(*p) for p in pairs}
        got_backward = {p: backward.one_way_delay(*p) for p in reversed(pairs)}
        assert got_forward == got_backward

    def test_symmetric_cached_and_bounded(self):
        lm = make_model(n=30, lazy_threshold=10)
        p = lm.params
        for a in range(10):
            for b in range(a + 1, 10):
                d = lm.one_way_delay(a, b)
                assert d == lm.one_way_delay(b, a)
                mean = p.means[lm.bandwidth.slowest_class(a, b)]
                assert mean - 3 * p.std - 1e-12 <= d <= mean + 3 * p.std + 1e-12
                assert d >= p.floor
        assert lm.cached_pairs == 45  # only the touched pairs materialized

    def test_reused_generator_equals_fresh_philox_per_pair(self):
        """Rewinding one Philox per model gives the floats a Philox and a
        Generator constructed per pair gave, whatever the touch order."""
        n, seed = 200, 7
        model_key = int(np.random.default_rng(seed + 1).integers(0, 2**63, dtype=np.int64))
        pairs = np.random.default_rng(0).integers(0, n, size=(1000, 2)).tolist()
        forward = make_model(n=n, seed=seed, lazy_threshold=5)
        backward = make_model(n=n, seed=seed, lazy_threshold=5)
        p = forward.params
        for a, b in reversed(pairs):
            backward.one_way_delay(a, b)
        for a, b in pairs:
            if a == b:
                continue
            pair_key = min(a, b) * n + max(a, b)
            # The construction the model no longer does per pair; keyed, not global state.
            counter = pair_key << 64
            bits = np.random.Philox(key=model_key, counter=counter)  # repro-lint: disable=R001
            fresh = np.random.Generator(bits)
            mean = p.means[forward.bandwidth.slowest_class(a, b)]
            raw = float(fresh.normal(mean, p.std))
            lo = max(mean - p.truncation_sigmas * p.std, p.floor)
            expected = min(max(raw, lo), mean + p.truncation_sigmas * p.std)
            assert forward.one_way_delay(a, b) == expected
            assert backward.one_way_delay(a, b) == expected

    def test_deterministic_across_models(self):
        a = make_model(n=25, seed=11, lazy_threshold=5).one_way_delay(2, 9)
        b = make_model(n=25, seed=11, lazy_threshold=5).one_way_delay(2, 9)
        assert a == b

    def test_zero_std_lazy_gives_exact_means(self):
        params = DelayParameters(std=0.0)
        lm = make_model(n=20, classes=[2] * 20, params=params, lazy_threshold=5)
        assert lm.one_way_delay(0, 1) == 0.070

    def test_round_trip_and_self_delay(self):
        lm = make_model(n=20, lazy_threshold=5)
        assert lm.one_way_delay(4, 4) == 0.0
        assert lm.round_trip(1, 2) == pytest.approx(2 * lm.one_way_delay(1, 2))
