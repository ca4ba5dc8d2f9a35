"""Pairwise one-way delay model.

Section 4.2: "The mean value of the one-way delay between two users is
governed by the slowest user, and is equal to 300ms, 150ms and 70ms,
respectively. The standard deviation is set to 20ms for all cases, and values
are restricted in the interval [...]" — the interval itself is unreadable in
the available scan, so the truncation bounds are parameters (default
mean ± 3 sigma, always clamped above a small positive floor).

Each unordered node pair gets one delay draw, cached lazily, i.e. the network
latency is static per pair for the lifetime of a simulation — consistent with
the paper's description of delay as a property of the user pair. Sampling per
pair (rather than per message) also lets the fast engine compute path delays
analytically.

Because delays are static per run, the whole pairwise table can be
precomputed: :meth:`LatencyModel.delay_table` materializes every unordered
pair once, as one read-only float64 array of ``n(n-1)/2`` entries in
canonical ``(a, b), a < b`` order (the packed upper triangle), drawn with
vectorized calls a block of rows at a time and written straight into that
array. After the build, :meth:`~LatencyModel.one_way_delay` becomes a
plain table read and :meth:`~LatencyModel.delay_rows` hands the flood fast
path one ``delay(a, b)`` accessor over that same array: it orders the pair
and reads ``packed[a*(2n-a-3)//2 + b - 1]``, a Python float. The packed
array is the only resident copy of the table. It is built lazily (first
request) and never invalidated.

The precompute is O(n^2): at the paper's 2,000 users it is 15.25 MiB and
the right call; at 100k it would be a 5*10^9-entry allocation. Above
:data:`LAZY_DELAY_NODE_THRESHOLD` nodes the model therefore refuses to
materialize and switches to *stateless keyed* per-pair draws: each unordered
pair's delay comes from its own counter-based :class:`numpy.random.Philox`
stream (keyed once from the model's RNG at construction, counter = the
pair's canonical index), cached on first touch. Keyed draws make a pair's
float a pure function of ``(seed, pair)`` — independent of the order pairs
are first touched — so a fast-path run and a reference run, which touch
pairs in different orders, still observe identical floats, preserving the
digest gate at every scale. :meth:`~LatencyModel.delay_rows` then returns
an accessor that reads through the pair cache instead of a table. The
per-pair *values* differ between the two regimes (same truncated-Gaussian
distribution, different draw mechanism); the overlay evolution does not,
because delays never feed back into event scheduling or benefit under the
delay-independent benefit options — the engine digest tests pin a lazy run
against an eager run of the same seed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import NetworkError
from repro.net.bandwidth import CLASS_DELAY_MEAN, BandwidthClass, BandwidthModel
from repro.types import NodeId

__all__ = ["DelayParameters", "LatencyModel", "LAZY_DELAY_NODE_THRESHOLD"]

#: Above this many nodes :meth:`LatencyModel.delay_table` refuses to
#: materialize (the n^2 table would dwarf the rest of the simulation) and
#: per-pair delays switch to stateless keyed draws. 4096 nodes is a 64 MiB
#: packed float64 table — the last size where eager is clearly the better
#: trade.
LAZY_DELAY_NODE_THRESHOLD = 4096

#: Pairs drawn per vectorized call in :meth:`LatencyModel.delay_table`, as
#: whole rows of the upper triangle (at least one row per call). Bounds the
#: build's temporaries to a few arrays of this many entries; the floats and
#: the generator stream do not depend on it.
_BUILD_BLOCK_PAIRS = 2**15


@dataclass(frozen=True, slots=True)
class DelayParameters:
    """Parameters of the truncated-Gaussian one-way-delay distribution.

    Attributes
    ----------
    means:
        Mean one-way delay (seconds) per :class:`BandwidthClass`, applied
        according to the *slower* endpoint of the pair.
    std:
        Standard deviation in seconds (paper: 20 ms for all classes).
    truncation_sigmas:
        Draws are clamped to ``mean ± truncation_sigmas * std``.
    floor:
        Absolute lower bound in seconds; keeps delays strictly positive even
        for generous truncation settings.
    """

    means: tuple[float, float, float] = (
        CLASS_DELAY_MEAN[BandwidthClass.MODEM_56K],
        CLASS_DELAY_MEAN[BandwidthClass.CABLE],
        CLASS_DELAY_MEAN[BandwidthClass.LAN],
    )
    std: float = 0.020
    truncation_sigmas: float = 3.0
    floor: float = 0.001

    def __post_init__(self) -> None:
        if len(self.means) != len(BandwidthClass):
            raise NetworkError("means must provide one value per BandwidthClass")
        if any(m <= 0 for m in self.means):
            raise NetworkError("delay means must be positive")
        if self.std < 0:
            raise NetworkError("std must be non-negative")
        if self.truncation_sigmas <= 0:
            raise NetworkError("truncation_sigmas must be positive")
        if self.floor <= 0:
            raise NetworkError("floor must be positive")


class LatencyModel:
    """Lazy, cached per-pair one-way delays.

    Parameters
    ----------
    bandwidth:
        The per-node access-class assignment; the slower endpoint of a pair
        selects the delay mean.
    rng:
        Source of randomness. Draws happen on first lookup of each unordered
        pair; lookups are symmetric (``delay(a, b) == delay(b, a)``).
    params:
        Distribution parameters; defaults to the paper's values.
    lazy_threshold:
        Node count above which the pairwise regime goes lazy (stateless
        keyed draws, no table). ``None`` uses the module default
        :data:`LAZY_DELAY_NODE_THRESHOLD`; tests pass explicit values to
        force either regime at any size.
    """

    def __init__(
        self,
        bandwidth: BandwidthModel,
        rng: np.random.Generator,
        params: DelayParameters | None = None,
        *,
        lazy_threshold: int | None = None,
    ) -> None:
        self.bandwidth = bandwidth
        self.params = params or DelayParameters()
        self._rng = rng
        self._cache: dict[int, float] = {}
        self._means = np.asarray(self.params.means, dtype=float)
        self._n = bandwidth.n_nodes
        self._table: np.ndarray | None = None
        #: :meth:`delay_rows`'s accessor in the eager regime, over the
        #: packed table once it is built.
        self._packed: _PackedDelay | None = None
        if lazy_threshold is None:
            lazy_threshold = LAZY_DELAY_NODE_THRESHOLD
        self._pairwise_lazy = self._n > lazy_threshold
        #: :meth:`delay_rows`'s accessor in the lazy regime.
        self._keyed = _KeyedDelay(self) if self._pairwise_lazy else None
        if self._pairwise_lazy:
            # One draw anchors every keyed pair stream to this model's RNG
            # stream (and therefore to the simulation seed). Drawn eagerly so
            # the latency stream's consumption is identical no matter which
            # pairs later get touched.
            philox_key = int(self._rng.integers(0, 2**63, dtype=np.int64))
            # One bit generator serves every pair: :meth:`_keyed_draw` rewinds
            # it to the pair's own counter block before each draw, which costs
            # a third of constructing a Philox and a Generator per pair.
            bits = np.random.Philox(key=philox_key)  # repro-lint: disable=R001
            self._keyed_gen = np.random.Generator(bits)
            # A pristine state (empty output buffer, no held-over uint32);
            # only word 1 of the 256-bit counter changes between pairs.
            self._keyed_state = bits.state

    def _pair_key(self, a: NodeId, b: NodeId) -> int:
        lo, hi = (a, b) if a <= b else (b, a)
        return lo * self._n + hi

    def one_way_delay(self, a: NodeId, b: NodeId) -> float:
        """One-way delay in seconds between ``a`` and ``b`` (symmetric).

        A node's delay to itself is zero (local service). Once the pairwise
        table has been materialized (:meth:`delay_table`), every lookup is
        served from it, so table users and per-pair users observe the exact
        same floats.
        """
        if not (0 <= a < self._n and 0 <= b < self._n):
            raise NetworkError(f"node ids out of range: {a}, {b} (n={self._n})")
        if a == b:
            return 0.0
        if self._packed is not None:
            return self._packed(a, b)
        key = self._pair_key(a, b)
        delay = self._cache.get(key)
        if delay is None:
            delay = self._keyed_draw(key) if self._pairwise_lazy else self._draw(a, b)
            self._cache[key] = delay
        return delay

    def delay_table(self) -> np.ndarray:
        """Every unordered pair's one-way delay (seconds), stored once.

        A read-only 1-D float64 array of ``n(n-1)/2`` entries, the upper
        triangle in canonical ``(a, b), a < b`` order: pair ``(a, b)`` sits
        at ``a*(2n-a-3)//2 + b - 1``. Built lazily on first request with
        vectorized draws in that order — a block of rows per call, written
        straight into the array, which consumes the generator exactly as
        one call over all pairs would — then never invalidated: delays are
        static per run. Pairs that were already drawn lazily keep their
        observed values (the table overlays the per-pair cache), so a warm
        model stays self-consistent. After the build,
        :meth:`one_way_delay` reads from this table.

        Raises :class:`~repro.errors.NetworkError` in the lazy regime (node
        count above the threshold): the n^2 allocation is exactly what the
        lazy mode exists to avoid. Use :meth:`delay_rows` /
        :meth:`one_way_delay`, which work in both regimes.
        """
        if self._pairwise_lazy:
            raise NetworkError(
                f"refusing to materialize the {self._n}-node delay table "
                f"(population above the lazy threshold); use delay_rows() or "
                f"one_way_delay(), which draw pairs on demand"
            )
        if self._table is None:
            n = self._n
            p = self.params
            classes = self.bandwidth.classes
            spread = p.truncation_sigmas * p.std
            table = np.empty(n * (n - 1) // 2, dtype=float)
            block_rows = max(1, _BUILD_BLOCK_PAIRS // max(1, n - 1))
            at = 0
            for start in range(0, n - 1, block_rows):
                stop = min(start + block_rows, n - 1)
                # Rows start..stop-1 of the upper triangle, back to back:
                # the pairs (a, b), a < b, in canonical order. The slower
                # endpoint of each pair governs the delay mean.
                slowest = np.concatenate(
                    [np.minimum(classes[a + 1 :], classes[a]) for a in range(start, stop)]
                )
                pair_means = self._means[slowest]
                out = table[at : at + len(pair_means)]
                at += len(pair_means)
                if p.std == 0.0:
                    np.maximum(pair_means, p.floor, out=out)
                else:
                    raw = self._rng.normal(pair_means, p.std)
                    lo = np.maximum(pair_means - spread, p.floor)
                    np.clip(raw, lo, pair_means + spread, out=out)
            for key, value in self._cache.items():
                a, b = divmod(key, n)
                table[a * (2 * n - a - 3) // 2 + b - 1] = value
            table.setflags(write=False)
            self._table = table
            # A read-only view of the array: indexing it returns a plain
            # Python float, and no second copy of the table exists.
            self._packed = _PackedDelay(table.data, n)
        return self._table

    def delay_rows(self) -> _PackedDelay | _KeyedDelay:
        """The hot-path ``delay(a, b)`` accessor, built on first call.

        Below the lazy threshold it reads the packed :meth:`delay_table`:
        ``delay(a, b)`` is the exact Python float ``one_way_delay(a, b)``
        returns, with no range check and no copy of the table. Above it,
        ``delay(a, b)`` computes through the keyed per-pair cache (same
        floats as ``one_way_delay``, materializing only the pairs actually
        touched). Either way ``len(delay)`` is the node count. The packed
        accessor holds a ``memoryview``, which does not pickle; nothing
        pickles a model or its accessor (workers build their own from the
        config).
        """
        if self._keyed is not None:
            return self._keyed
        if self._packed is None:
            self.delay_table()
            assert self._packed is not None
        return self._packed

    def round_trip(self, a: NodeId, b: NodeId) -> float:
        """Round-trip time: twice the one-way delay."""
        return 2.0 * self.one_way_delay(a, b)

    def _draw(self, a: NodeId, b: NodeId) -> float:
        p = self.params
        mean = float(self._means[self.bandwidth.slowest_class(a, b)])
        if p.std == 0.0:
            return max(mean, p.floor)
        raw = self._rng.normal(mean, p.std)
        lo = max(mean - p.truncation_sigmas * p.std, p.floor)
        hi = mean + p.truncation_sigmas * p.std
        return float(min(max(raw, lo), hi))

    def _keyed_draw(self, key: int) -> float:
        """Stateless per-pair draw for the lazy regime.

        The pair's canonical index selects a private block of the
        counter-based Philox stream, so the value is a pure function of
        ``(model key, pair)`` — two runs that touch pairs in different
        orders (fast path vs reference) still observe identical floats,
        which is what keeps the digest gate valid above the matrix
        threshold. Same truncated Gaussian as :meth:`_draw`, different
        (order-independent) mechanism.
        """
        a, b = divmod(key, self._n)
        p = self.params
        mean = float(self._means[self.bandwidth.slowest_class(a, b)])
        if p.std == 0.0:
            return max(mean, p.floor)
        # Each pair gets its own 2^64-block region of the keyed stream:
        # counter = key << 64, on an otherwise pristine generator.
        self._keyed_state["state"]["counter"][1] = key
        self._keyed_gen.bit_generator.state = self._keyed_state
        raw = float(self._keyed_gen.normal(mean, p.std))
        lo = max(mean - p.truncation_sigmas * p.std, p.floor)
        hi = mean + p.truncation_sigmas * p.std
        return min(max(raw, lo), hi)

    @property
    def is_lazy(self) -> bool:
        """Whether the model is in the above-threshold lazy regime."""
        return self._pairwise_lazy

    @property
    def cached_pairs(self) -> int:
        """Number of pair delays drawn so far (memory introspection).

        Once the table is materialized every pair is resident.
        """
        if self._table is not None:
            return self._n * (self._n - 1) // 2
        return len(self._cache)

    @property
    def has_table(self) -> bool:
        """Whether the packed pairwise table has been materialized."""
        return self._table is not None


class _PackedDelay:
    """``delay(a, b)`` over the packed upper triangle of ``n`` nodes.

    Orders the pair and reads its one entry, pair ``(a, b), a < b`` at
    ``a*(2n-a-3)//2 + b - 1``; ``delay(a, a)`` is zero.
    """

    __slots__ = ("_packed", "_row_base", "_n")

    def __init__(self, packed: memoryview, n: int) -> None:
        self._packed = packed
        # Row a's offset less one, so that a read is one list index and one
        # add (n Python ints, against n(n-1)/2 floats in the table).
        self._row_base = [a * (2 * n - a - 3) // 2 - 1 for a in range(n)]
        self._n = n

    def __call__(self, a: NodeId, b: NodeId) -> float:
        if a < b:
            return self._packed[self._row_base[a] + b]
        if a > b:
            return self._packed[self._row_base[b] + a]
        return 0.0

    def __len__(self) -> int:
        return self._n


class _KeyedDelay:
    """``delay(a, b)`` through a lazy model's keyed per-pair cache.

    Holds no delays itself: every read is :meth:`LatencyModel.one_way_delay`,
    so only the pairs actually touched are ever drawn — never a row, which
    would quietly rebuild the O(n^2) table one source at a time.
    """

    __slots__ = ("_one_way_delay", "_n")

    def __init__(self, model: LatencyModel) -> None:
        self._one_way_delay = model.one_way_delay
        self._n = model.bandwidth.n_nodes

    def __call__(self, a: NodeId, b: NodeId) -> float:
        return self._one_way_delay(a, b)

    def __len__(self) -> int:
        return self._n
