"""``ScalarDraws`` serves numpy's own values from raw PCG64 words.

Every value is compared with the one a plain generator on the same seed
returns for the same call, and after a sync the wrapped generator's state is
compared with the plain one's. Then the run loop's consumers
(``BootstrapServer.sample``, ``QueryModel.sample_item``) are driven through a
wrapped stream and compared with a raw one.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.gnutella.asymmetric import AsymmetricFastEngine
from repro.gnutella.simulation import build_engine
from repro.rng import RngStreams, ScalarDraws
from repro.workload.catalog import MusicCatalog
from repro.workload.library import LibraryConfig, generate_libraries
from repro.workload.queries import QueryModel
from tests.gnutella.test_asymmetric import small_config as asymmetric_config
from tests.gnutella.test_bootstrap import reference_sample, server_after
from tests.gnutella.test_soa_digest import small_config

#: Bounds ``integers`` is driven with: the zero-width range (no draw), small
#: and run-loop-sized pools, 2**31 + 1 (the most Lemire rejections),
#: 3 * 2**30 (threshold 2**30, a quarter of the bound, so a wrong threshold
#: shows within a few draws), 2**32 - 1 (threshold 1), and the ranges numpy
#: draws itself: 2**32 (one bare 32-bit draw) and 2**40 (64-bit Lemire).
HIGHS = (1, 2, 3, 980, 20_000, 2**31 + 1, 3 * 2**30, 2**32 - 1, 2**32, 2**40)

#: (call, argument, repeats). Up to 300 repeats of a call and a dozen calls
#: cross several refills of the word block.
OPS = st.lists(
    st.one_of(
        st.tuples(st.just("integers"), st.sampled_from(HIGHS), st.integers(1, 300)),
        st.tuples(st.just("random"), st.just(0), st.integers(1, 300)),
        st.tuples(st.just("permutation"), st.integers(0, 40), st.integers(1, 3)),
        st.tuples(st.just("sync"), st.just(0), st.just(1)),
    ),
    max_size=12,
)


def assert_same_state(wrapped_gen, plain_gen):
    """Equal PCG64 states; the pending half only counts while it is held."""
    got, want = wrapped_gen.bit_generator.state, plain_gen.bit_generator.state
    assert got["state"] == want["state"]
    assert got["has_uint32"] == want["has_uint32"]
    if want["has_uint32"] == 1:
        assert got["uinteger"] == want["uinteger"]


def wrapped_pair(seed, pre_draws=0):
    """A plain generator and a ``ScalarDraws`` over its twin, both past
    ``pre_draws`` bounded draws (an odd count leaves a half pending)."""
    plain, twin = np.random.default_rng(seed), np.random.default_rng(seed)
    for _ in range(pre_draws):
        plain.integers(7)
        twin.integers(7)
    return plain, twin, ScalarDraws(twin)


class TestSameValuesAsNumpy:
    @given(seed=st.integers(0, 2**64 - 1), pre_draws=st.integers(0, 3), ops=OPS)
    @settings(max_examples=200, deadline=None)
    # A quarter-bound threshold: a wrong threshold diverges at once.
    @example(seed=1, pre_draws=0, ops=[("integers", 3 * 2**30, 64)])
    # A delegated call in mid-block, with a half pending on either side.
    @example(
        seed=2,
        pre_draws=1,
        ops=[("integers", 3, 3), ("permutation", 10, 1), ("integers", 980, 5)],
    )
    @example(seed=3, pre_draws=0, ops=[("integers", 20_000, 300)] * 4 + [("random", 0, 300)])
    def test_property_values_and_state(self, seed, pre_draws, ops):
        plain, twin, draws = wrapped_pair(seed, pre_draws)
        for call, arg, repeats in ops:
            for _ in range(repeats):
                if call == "integers":
                    assert draws.integers(arg) == plain.integers(arg)
                elif call == "random":
                    assert draws.random() == plain.random()
                elif call == "permutation":
                    assert draws.permutation(arg).tolist() == plain.permutation(arg).tolist()
                else:
                    draws.sync()
                    assert_same_state(twin, plain)
        draws.sync()
        assert_same_state(twin, plain)

    def test_values_are_plain_python_numbers(self):
        _, _, draws = wrapped_pair(0)
        assert type(draws.integers(980)) is int
        assert type(draws.integers(1)) is int
        assert type(draws.integers(2**40)) is int
        assert type(draws.random()) is float

    def test_zero_width_range_draws_nothing(self):
        plain, twin, draws = wrapped_pair(4, pre_draws=1)
        assert draws.integers(1) == 0
        draws.sync()
        assert_same_state(twin, plain)

    def test_invalid_bound_raises_like_numpy(self):
        plain, twin, draws = wrapped_pair(6, pre_draws=1)
        for high in (0, -3):
            with pytest.raises(ValueError):
                plain.integers(high)
            with pytest.raises(ValueError):
                draws.integers(high)
        assert draws.integers(980) == plain.integers(980)


class TestOnlyPcg64:
    @pytest.mark.parametrize("bit_generator", ["MT19937", "Philox", "SFC64", "PCG64DXSM"])
    def test_other_bit_generators_raise(self, bit_generator):
        gen = np.random.Generator(getattr(np.random, bit_generator)(0))
        with pytest.raises(TypeError, match="PCG64"):
            ScalarDraws(gen)

    def test_unmodelled_draws_are_not_forwarded(self):
        draws = ScalarDraws(RngStreams(0).get("bootstrap"))
        for name in ("exponential", "choice", "gumbel", "bit_generator", "shuffle"):
            with pytest.raises(AttributeError):
                getattr(draws, name)

    @pytest.mark.parametrize(
        "make",
        [
            lambda: build_engine(small_config(), "fast"),
            lambda: build_engine(small_config(), "fast-reference"),
            lambda: build_engine(small_config(), "detailed"),
            lambda: AsymmetricFastEngine(asymmetric_config()),
        ],
        ids=["fast", "fast-reference", "detailed", "asymmetric"],
    )
    def test_every_engine_wraps_the_two_scalar_streams(self, make):
        engine = make()
        assert isinstance(engine._bootstrap_rng, ScalarDraws)
        assert isinstance(engine._item_rng, ScalarDraws)
        # Ziggurat exponentials are not modelled: timing stays a Generator.
        assert isinstance(engine._timing_rng, np.random.Generator)


class CountingGenerator:
    """A raw generator that counts the calls ``BootstrapServer.sample`` makes."""

    def __init__(self, seed):
        self.gen = np.random.default_rng(seed)
        self.bounded_draws = 0
        self.permutations = 0

    def integers(self, high):
        self.bounded_draws += 1
        return self.gen.integers(high)

    def permutation(self, n):
        self.permutations += 1
        return self.gen.permutation(n)


class TestBootstrapThroughScalarDraws:
    @given(
        history=st.lists(st.tuples(st.booleans(), st.integers(0, 40)), max_size=80),
        calls=st.lists(
            st.tuples(st.integers(0, 12), st.lists(st.integers(0, 45), max_size=16)),
            min_size=1,
            max_size=20,
        ),
        seed=st.integers(0, 2**32),
    )
    @settings(max_examples=150, deadline=None)
    def test_property_same_picks_and_state(self, history, calls, seed):
        server = server_after(history)
        plain, twin, draws = wrapped_pair(seed)
        for k, exclude in calls:
            assert server.sample(draws, k, set(exclude)) == reference_sample(
                server, plain, k, exclude
            )
        draws.sync()
        assert_same_state(twin, plain)

    def test_same_cap_and_same_fallback(self):
        # Every online node is wanted: the coupon collector needs ~9.1 n
        # tries against a cap of 8 (n + 1), so the loop runs into its cap
        # and the exact permutation fallback picks the rest, mid-block.
        n = 5000
        server = server_after([(True, node) for node in range(n)])
        counting = CountingGenerator(11)
        twin = np.random.default_rng(11)
        draws = ScalarDraws(twin)
        expected = reference_sample(server, counting, n)
        assert counting.bounded_draws == 8 * (n + 1)
        assert counting.permutations == 1
        assert server.sample(draws, n) == expected
        draws.sync()
        assert_same_state(twin, counting.gen)
        assert draws.integers(n) == counting.gen.integers(n)


@pytest.fixture(scope="module")
def population():
    catalog = MusicCatalog(n_items=5000, n_categories=50)
    cfg = LibraryConfig(n_users=100, mean_size=40, std_size=8)
    return generate_libraries(catalog, np.random.default_rng(0), cfg)


class TestQueryModelThroughScalarDraws:
    def test_same_items_with_growing_libraries(self, population):
        model = QueryModel(population, max_resample=4)
        plain, twin, draws = wrapped_pair(21)
        live_plain = [set(lib) for lib in population.libraries]
        live_wrapped = [set(lib) for lib in population.libraries]
        for step in range(4000):
            user = (step * 37) % population.n_users
            item = model.sample_item(user, plain, library=live_plain[user])
            assert model.sample_item(user, draws, library=live_wrapped[user]) == item
            # Downloads grow the library, so resampling paths change over time.
            live_plain[user].add(item)
            live_wrapped[user].add(item)
            if step % 97 == 0:
                assert model.sample_category(user, draws) == model.sample_category(
                    user, plain
                )
        draws.sync()
        assert_same_state(twin, plain)
