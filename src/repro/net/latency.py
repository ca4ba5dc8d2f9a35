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
precomputed: :meth:`LatencyModel.delay_matrix` materializes every pair with
vectorized draws (canonical upper-triangle order, a block of rows at a
time), after which :meth:`~LatencyModel.one_way_delay` becomes a plain table
read and :meth:`~LatencyModel.delay_rows` hands the flood fast path one
``memoryview`` per row of that same array, with no method dispatch at all.
The one read-only float64 array is the only resident copy of the table. It
is built lazily (first request) and never invalidated.

The precompute is O(n^2): at the paper's 2,000 users it is 32 MiB and the
right call; at 100k it would be a 10^10-entry allocation. Above
:data:`LAZY_DELAY_NODE_THRESHOLD` nodes the model therefore refuses to
materialize and switches to *stateless keyed* per-pair draws: each unordered
pair's delay comes from its own counter-based :class:`numpy.random.Philox`
stream (keyed once from the model's RNG at construction, counter = the
pair's canonical index), cached on first touch. Keyed draws make a pair's
float a pure function of ``(seed, pair)`` — independent of the order pairs
are first touched — so a fast-path run and a reference run, which touch
pairs in different orders, still observe identical floats, preserving the
digest gate at every scale. :meth:`~LatencyModel.delay_rows` then returns a
lazy row view (``rows[a][b]`` computes through the pair cache) instead of
views of a table. The per-pair *values* differ between the two regimes (same
truncated-Gaussian distribution, different draw mechanism); the overlay
evolution does not, because delays never feed back into event scheduling or
benefit under the delay-independent benefit options — the engine digest
tests pin a lazy run against an eager run of the same seed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import NetworkError
from repro.net.bandwidth import CLASS_DELAY_MEAN, BandwidthClass, BandwidthModel
from repro.types import NodeId

__all__ = ["DelayParameters", "LatencyModel", "LAZY_DELAY_NODE_THRESHOLD"]

#: Above this many nodes :meth:`LatencyModel.delay_matrix` refuses to
#: materialize (the n^2 table would dwarf the rest of the simulation) and
#: per-pair delays switch to stateless keyed draws. 4096 nodes is a 128 MiB
#: float64 matrix — the last size where eager is clearly the better trade.
LAZY_DELAY_NODE_THRESHOLD = 4096

#: Rows of the upper triangle drawn per vectorized call in
#: :meth:`LatencyModel.delay_matrix`. Bounds the build's temporaries to a few
#: ``rows x n`` arrays; the floats and the generator stream do not depend on it.
_BUILD_BLOCK_ROWS = 128


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
        keyed draws, no matrix). ``None`` uses the module default
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
        self._matrix: np.ndarray | None = None
        self._rows: list[memoryview] | None = None
        if lazy_threshold is None:
            lazy_threshold = LAZY_DELAY_NODE_THRESHOLD
        self._pairwise_lazy = self._n > lazy_threshold
        self._lazy_rows: _LazyDelayRows | None = None
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
        matrix has been materialized (:meth:`delay_matrix`), every lookup is
        served from it, so matrix users and per-pair users observe the exact
        same floats.
        """
        if not (0 <= a < self._n and 0 <= b < self._n):
            raise NetworkError(f"node ids out of range: {a}, {b} (n={self._n})")
        if a == b:
            return 0.0
        if self._rows is not None:
            return self._rows[a][b]
        key = self._pair_key(a, b)
        delay = self._cache.get(key)
        if delay is None:
            delay = self._keyed_draw(key) if self._pairwise_lazy else self._draw(a, b)
            self._cache[key] = delay
        return delay

    def delay_matrix(self) -> np.ndarray:
        """The full symmetric ``n x n`` one-way-delay matrix (seconds).

        Built lazily on first request with vectorized draws over the upper
        triangle in canonical ``(a, b), a < b`` order — a block of rows per
        call, which consumes the generator exactly as one call over all
        pairs would — then never invalidated: delays are static per run.
        Pairs that were already drawn lazily keep their observed values (the
        matrix overlays the per-pair cache), so a warm model stays
        self-consistent. After the build, :meth:`one_way_delay` reads from
        this table. The returned array is read-only.

        Raises :class:`~repro.errors.NetworkError` in the lazy regime (node
        count above the threshold): the n^2 allocation is exactly what the
        lazy mode exists to avoid. Use :meth:`delay_rows` /
        :meth:`one_way_delay`, which work in both regimes.
        """
        if self._pairwise_lazy:
            raise NetworkError(
                f"refusing to materialize a {self._n}x{self._n} delay matrix "
                f"(population above the lazy threshold); use delay_rows() or "
                f"one_way_delay(), which draw pairs on demand"
            )
        if self._matrix is None:
            n = self._n
            p = self.params
            classes = self.bandwidth.classes
            spread = p.truncation_sigmas * p.std
            columns = np.arange(n)
            matrix = np.zeros((n, n), dtype=float)
            for start in range(0, n, _BUILD_BLOCK_ROWS):
                stop = min(start + _BUILD_BLOCK_ROWS, n)
                block = matrix[start:stop]
                # Boolean selection is row-major: pairs (a, b), a < b, in
                # canonical order.
                upper = columns > np.arange(start, stop)[:, None]
                # The slower endpoint of each pair governs the delay mean.
                slowest = np.minimum.outer(classes[start:stop], classes)
                pair_means = self._means[slowest[upper]]
                if p.std == 0.0:
                    block[upper] = np.maximum(pair_means, p.floor)
                else:
                    raw = self._rng.normal(pair_means, p.std)
                    lo = np.maximum(pair_means - spread, p.floor)
                    block[upper] = np.clip(raw, lo, pair_means + spread)
                # Mirror below the diagonal; adding the still-zero lower
                # half of the diagonal square leaves every float as drawn.
                matrix[stop:, start:stop] = block[:, stop:].T
                square = block[:, start:stop]
                square += square.T
            for key, value in self._cache.items():
                a, b = divmod(key, n)
                matrix[a, b] = value
                matrix[b, a] = value
            matrix.setflags(write=False)
            self._matrix = matrix
            # Read-only views of the array's own rows; indexing one returns
            # a plain Python float, and no second copy of the table exists.
            self._rows = [row.data for row in matrix]
        return self._matrix

    def delay_rows(self) -> "list[memoryview] | _LazyDelayRows":
        """Indexable ``rows[a][b]`` delays (hot-path view).

        Below the lazy threshold: one read-only ``memoryview`` per row of
        :meth:`delay_matrix` — ``rows[a][b]`` is the exact Python float
        ``one_way_delay(a, b)`` returns, with zero method dispatch and no
        copy of the table. Above it: a lazy row view whose ``[a][b]``
        computes through the keyed per-pair cache (same floats as
        ``one_way_delay``, materializing only the pairs actually touched).
        Memoryviews do not pickle; nothing pickles a model or its rows
        (workers build their own from the config).
        """
        if self._pairwise_lazy:
            if self._lazy_rows is None:
                self._lazy_rows = _LazyDelayRows(self)
            return self._lazy_rows
        if self._rows is None:
            self.delay_matrix()
            assert self._rows is not None
        return self._rows

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

        Once the full matrix is materialized every pair is resident.
        """
        if self._matrix is not None:
            return self._n * (self._n - 1) // 2
        return len(self._cache)

    @property
    def has_matrix(self) -> bool:
        """Whether the full pairwise matrix has been materialized."""
        return self._matrix is not None


class _LazyDelayRow:
    """One source's delays, computed per target through the pair cache."""

    __slots__ = ("_model", "_a")

    def __init__(self, model: LatencyModel, a: NodeId) -> None:
        self._model = model
        self._a = a

    def __getitem__(self, b: NodeId) -> float:
        return self._model.one_way_delay(self._a, b)

    def __len__(self) -> int:
        return self._model.bandwidth.n_nodes


class _LazyDelayRows:
    """``rows[a][b]`` view over a lazy :class:`LatencyModel`.

    Duck-type compatible with the eager row views where it matters (the
    flood fast path indexes ``rows[a][b]`` per path edge and takes
    ``len(rows)`` once at bind time). Rows are materialized as tiny proxy
    objects per access, never as n-float lists — caching a full row would
    quietly rebuild the O(n^2) table one source at a time.
    """

    __slots__ = ("_model",)

    def __init__(self, model: LatencyModel) -> None:
        self._model = model

    def __getitem__(self, a: NodeId) -> _LazyDelayRow:
        return _LazyDelayRow(self._model, a)

    def __len__(self) -> int:
        return self._model.bandwidth.n_nodes
