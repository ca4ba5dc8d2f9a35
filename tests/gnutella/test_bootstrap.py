"""Tests for the bootstrap (host cache) server."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.gnutella.bootstrap import BootstrapServer


def reference_sample(server, rng, k, exclude=()):
    """The body of ``BootstrapServer.sample`` the pinned digests were drawn with.

    Same rejection loop, one scalar ``rng.integers(pool_size)`` per try, same
    cap, same ``permutation`` fallback — before the per-call set copy, the
    ``sum`` over a generator and the ``int()`` round-trip went.
    """
    if k <= 0:
        return []
    excluded = set(exclude)
    pool_size = len(server._online)
    available = pool_size - sum(1 for e in excluded if e in server._pos)
    if available <= 0:
        return []
    want = min(k, available)
    picks = []
    seen = set()
    max_tries = 8 * (want + len(excluded) + 1)
    tries = 0
    while len(picks) < want and tries < max_tries:
        tries += 1
        candidate = server._online[int(rng.integers(pool_size))]
        if candidate in excluded or candidate in seen:
            continue
        seen.add(candidate)
        picks.append(candidate)
    if len(picks) < want:
        remaining = [n for n in server._online if n not in excluded and n not in seen]
        idx = rng.permutation(len(remaining))[: want - len(picks)]
        picks.extend(remaining[i] for i in idx)
    return picks


class StuckGenerator:
    """Bounded draws always land on index 0; ``permutation`` is a real one.

    Every try after the first repeats a pick (or an exclusion), so the
    rejection loop runs into its cap and the exact fallback decides.
    """

    def __init__(self, seed):
        self.real = np.random.default_rng(seed)
        self.bounded_draws = 0

    def integers(self, high):
        self.bounded_draws += 1
        return np.int64(0)

    def permutation(self, n):
        return self.real.permutation(n)


def server_after(history):
    server = BootstrapServer()
    for is_join, node in history:
        if is_join:
            server.join(node)
        else:
            server.leave(node)
    return server


class TestMembership:
    def test_join_leave(self):
        server = BootstrapServer()
        server.join(3)
        assert 3 in server
        assert len(server) == 1
        server.leave(3)
        assert 3 not in server
        assert len(server) == 0

    def test_idempotent(self):
        server = BootstrapServer()
        server.join(1)
        server.join(1)
        assert len(server) == 1
        server.leave(1)
        server.leave(1)
        assert len(server) == 0

    def test_swap_remove_keeps_others(self):
        server = BootstrapServer()
        for n in range(5):
            server.join(n)
        server.leave(2)
        assert sorted(server.online_nodes()) == [0, 1, 3, 4]


class TestSampling:
    def test_sample_k(self):
        server = BootstrapServer()
        for n in range(50):
            server.join(n)
        rng = np.random.default_rng(0)
        picks = server.sample(rng, 4)
        assert len(picks) == 4
        assert len(set(picks)) == 4
        assert all(0 <= p < 50 for p in picks)

    def test_exclusion_respected(self):
        server = BootstrapServer()
        for n in range(10):
            server.join(n)
        rng = np.random.default_rng(1)
        for _ in range(20):
            picks = server.sample(rng, 5, exclude=[0, 1, 2])
            assert not {0, 1, 2} & set(picks)

    def test_small_pool_returns_fewer(self):
        server = BootstrapServer()
        server.join(1)
        server.join(2)
        picks = server.sample(np.random.default_rng(0), 10, exclude=[1])
        assert picks == [2]

    def test_empty_pool(self):
        assert BootstrapServer().sample(np.random.default_rng(0), 3) == []

    def test_zero_k(self):
        server = BootstrapServer()
        server.join(1)
        assert server.sample(np.random.default_rng(0), 0) == []

    def test_fully_excluded_pool(self):
        server = BootstrapServer()
        server.join(1)
        assert server.sample(np.random.default_rng(0), 2, exclude=[1]) == []

    def test_uniformity(self):
        server = BootstrapServer()
        for n in range(10):
            server.join(n)
        rng = np.random.default_rng(2)
        counts = np.zeros(10)
        for _ in range(4000):
            for p in server.sample(rng, 1):
                counts[p] += 1
        # Each node expected 400; allow generous tolerance.
        assert counts.min() > 300
        assert counts.max() < 500

    @given(
        st.lists(st.tuples(st.booleans(), st.integers(0, 19)), max_size=60),
        st.integers(0, 2**31 - 1),
    )
    @settings(max_examples=25, deadline=None)
    def test_property_sample_only_online(self, ops, seed):
        server = BootstrapServer()
        online = set()
        for is_join, node in ops:
            if is_join:
                server.join(node)
                online.add(node)
            else:
                server.leave(node)
                online.discard(node)
        assert len(server) == len(online)
        picks = server.sample(np.random.default_rng(seed), 5)
        assert set(picks) <= online
        assert len(picks) == min(5, len(online))


#: The shapes a caller may hand over as ``exclude``.
EXCLUSION_SHAPES = {
    "list": list,
    "tuple": tuple,
    "set": set,
    "frozenset": frozenset,
    "generator": iter,
}


class TestSampleEqualsReference:
    """Same picks, same order, same generator state as the replaced body."""

    @given(
        history=st.lists(st.tuples(st.booleans(), st.integers(0, 15)), max_size=60),
        k=st.integers(0, 12),
        exclude=st.lists(st.integers(0, 19), max_size=16),
        shape=st.sampled_from(sorted(EXCLUSION_SHAPES)),
        seed=st.integers(0, 2**32),
    )
    @settings(max_examples=300, deadline=None)
    def test_property_same_picks_and_state(self, history, k, exclude, shape, seed):
        server = server_after(history)
        ref_rng = np.random.default_rng(seed)
        expected = reference_sample(server, ref_rng, k, exclude)
        rng = np.random.default_rng(seed)
        handed_over = EXCLUSION_SHAPES[shape](exclude)
        assert server.sample(rng, k, handed_over) == expected
        assert rng.bit_generator.state == ref_rng.bit_generator.state
        if shape in ("set", "frozenset"):
            assert handed_over == set(exclude)  # used as is, and only read

    @pytest.mark.parametrize("k", [1, 2, 5, 12])
    @pytest.mark.parametrize("n_excluded", [0, 1, 4])
    def test_same_cap_and_same_fallback(self, k, n_excluded):
        server = server_after([(True, node) for node in range(6)])
        exclude = list(range(n_excluded))
        ref_rng, rng = StuckGenerator(5), StuckGenerator(5)
        expected = reference_sample(server, ref_rng, k, exclude)
        assert server.sample(rng, k, set(exclude)) == expected
        want = min(k, 6 - n_excluded)
        assert len(expected) == want
        if want > 1 or n_excluded:  # index 0 alone cannot fill the order
            assert ref_rng.bounded_draws == 8 * (want + n_excluded + 1)
        assert rng.bounded_draws == ref_rng.bounded_draws
        assert rng.real.bit_generator.state == ref_rng.real.bit_generator.state
