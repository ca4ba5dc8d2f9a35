"""Zipf-distributed sampling.

The paper uses Zipf's law with parameter theta = 0.9 twice: for song
popularity within a category and for the assignment of users to favorite
categories. This module provides an exact finite-support Zipf sampler:

    P(rank r) = (1 / r^theta) / H(n, theta),   r = 1..n

Independent draws (:meth:`ZipfSampler.sample`) are an inverse-CDF lookup
over a precomputed cumulative table — O(n) setup, O(log n) per draw:
:func:`numpy.searchsorted` for batch draws, :func:`bisect.bisect_right` over
the same table as a list for the one-at-a-time draw of the query path, where
a NumPy call per draw costs six times the search.

Draws without replacement (:meth:`ZipfSampler.sample_distinct`) are a
Gumbel-top-k race: every rank gets the key ``log p_i + G_i`` with ``G_i``
standard Gumbel, and the ``k`` largest keys win. The worlds this repo pins
by digest were built from ``rng.gumbel(size=n)``, one double of the stream
per rank, so the stream and the keys are fixed; what is not fixed is how
many keys have to be evaluated. numpy computes ``G = -log(-log(1 - d))``
from a uniform ``d``, so the winners are the ``k`` smallest
``T_i = -log(1 - d_i) / p_i``, and because ``-log(1 - d) >= d`` the test
``d_i / p_i <= tau`` keeps every rank with ``T_i <= tau``. One
``rng.random`` fill (the same doubles ``rng.gumbel`` would have consumed),
one multiply and one compare leave a few dozen candidates out of thousands
of ranks; only those get a key, and the top ``k`` of the candidates is the
top ``k`` of the support whenever the k-th key lies inside ``tau``. When it
does not, ``tau`` is widened on the same uniforms. When ``k`` is a large
fraction of ``n`` nothing would be pruned and the full evaluation runs
instead. Cost stays O(n) per draw — the uniforms themselves — but without
the two logarithms per rank.

The candidate keys are computed with :func:`math.log`, i.e. libm's ``log``,
which is what numpy's C ``random_gumbel`` calls. ``np.log`` takes a SIMD
path whose last bit differs from libm's on a fraction of a percent of
inputs, which would make the ranking almost always, not always, the one
``rng.gumbel`` gives. ``log p_i`` is ``np.log(pmf)`` as it always was.

Note this is the *bounded* Zipf distribution over n ranks (what the paper
needs), not scipy's infinite-support ``zipf``; scipy's ``zipfian`` agrees
with it and is used as the oracle in the tests.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from collections.abc import Sequence

import numpy as np

from repro.errors import WorkloadError

__all__ = ["RaceScratch", "ZipfSampler", "zipf_pmf"]

# Slack, in key units, demanded between the k-th candidate key and the
# threshold. Keys and the threshold test each carry rounding error of order
# 1e-14; anything closer than this is settled by widening the threshold.
_KEY_MARGIN = 1e-9

# The filtered race costs ~5 ns per rank plus ~0.45 us per candidate, the
# full one ~25 ns per rank. Batched as generate_libraries calls it, the
# filter was measured ahead from 8 ranks per candidate up, behind at 6.
_SUPPORT_PER_CANDIDATE = 8.0


class _ZeroUniform(Exception):
    """A candidate's uniform was exactly 0.0, which ``rng.gumbel`` redraws."""


class RaceScratch:
    """Preallocated work arrays for ``rows`` filtered races over ``n`` ranks.

    Owned by whoever makes many :meth:`ZipfSampler.sample_distinct_batch`
    calls in a row (fresh arrays of this size go through mmap and page
    faults on every call); not kept on the sampler, which outlives them.
    """

    __slots__ = ("mask", "n", "rows", "scaled", "uniforms")

    def __init__(self, n: int, rows: int) -> None:
        self.n = n
        self.rows = rows
        self.uniforms = np.empty(rows * n)
        self.scaled = np.empty(rows * n)
        self.mask = np.empty(rows * n, dtype=bool)


def zipf_pmf(n: int, theta: float) -> np.ndarray:
    """Probability of each rank 1..n under bounded Zipf(theta).

    Returned array is indexed 0-based: ``pmf[0]`` is the probability of the
    most popular rank.
    """
    if n <= 0:
        raise WorkloadError(f"n must be positive, got {n}")
    if theta < 0:
        raise WorkloadError(f"theta must be non-negative, got {theta}")
    ranks = np.arange(1, n + 1, dtype=float)
    weights = ranks**-theta
    return weights / weights.sum()


class ZipfSampler:
    """Draw 0-based ranks from a bounded Zipf(theta) distribution over n ranks.

    Parameters
    ----------
    n:
        Support size (number of ranks).
    theta:
        Skew parameter; theta = 0 degenerates to uniform. The paper uses 0.9.

    Example
    -------
    >>> sampler = ZipfSampler(1000, 0.9)
    >>> rng = np.random.default_rng(0)
    >>> ranks = sampler.sample(rng, size=5)
    >>> bool((ranks >= 0).all() and (ranks < 1000).all())
    True
    """

    def __init__(self, n: int, theta: float) -> None:
        self.n = int(n)
        self.theta = float(theta)
        self.pmf = zipf_pmf(self.n, self.theta)
        self._cdf = np.cumsum(self.pmf)
        # Guard against floating-point drift: force exact upper bound so a
        # uniform draw of 1.0-epsilon can never index past the end.
        self._cdf[-1] = 1.0
        self._cdf_list: list[float] = self._cdf.tolist()
        self._log_pmf = np.log(self.pmf)
        self._inv_pmf = 1.0 / self.pmf
        #: k -> candidate threshold of the filtered race (inf: full race).
        self._thresholds: dict[int, float] = {}

    def sample(self, rng: np.random.Generator, size: int | None = None) -> np.ndarray | int:
        """Draw ``size`` ranks (or a scalar when ``size`` is None)."""
        if size is None:
            return bisect_right(self._cdf_list, rng.random())
        return np.searchsorted(self._cdf, rng.random(size), side="right").astype(np.int64)

    def sample_distinct(self, rng: np.random.Generator, k: int) -> np.ndarray:
        """Draw ``k`` *distinct* ranks, weighted by the Zipf pmf.

        Used to fill a user's library: a library holds each song at most
        once, but popular songs should still be more likely to be included.
        The result is the Gumbel-top-k draw (exponential races, equivalent
        to sequential sampling without replacement) of the next ``n``
        variates of ``rng``, most favoured rank first. When ``k`` is small
        against the support only the few ranks that pass a threshold test on
        the raw uniforms have their Gumbel key evaluated (module docstring);
        the ranks, their order and the generator state afterwards are those
        of the full evaluation.
        """
        return np.array(self.sample_distinct_batch(rng, (k,))[0], dtype=np.int64)

    def sample_distinct_batch(
        self,
        rng: np.random.Generator,
        counts: Sequence[int],
        scratch: RaceScratch | None = None,
    ) -> list[list[int]]:
        """``[sample_distinct(rng, k) for k in counts]``, as lists of ints.

        Same ranks, same order, same generator state as the one-by-one
        calls (a count of zero draws nothing), but the filtered race runs
        once over all the draws. ``scratch`` (from :meth:`batch_scratch`,
        with at least ``len(counts)`` rows) saves allocating the work arrays
        on every call.
        """
        for k in counts:
            if k < 0:
                raise WorkloadError(f"k must be non-negative, got {k}")
            if k > self.n:
                raise WorkloadError(f"cannot draw {k} distinct ranks from support of {self.n}")
        ks = [k for k in counts if k]
        taus = [self._threshold(k) for k in ks]
        if math.inf in taus:
            # One draw too large for the filter: the whole batch goes one by
            # one through the full race, which single filtered races of this
            # size would not beat.
            drawn = [self._gumbel_top_k(rng, k) for k in ks]
        else:
            drawn = self._race(rng, ks, taus, scratch)
        it = iter(drawn)
        return [next(it) if k else [] for k in counts]

    def batch_scratch(self, rows: int) -> RaceScratch:
        """Work arrays for :meth:`sample_distinct_batch` calls of up to ``rows`` draws."""
        return RaceScratch(self.n, rows)

    def _gumbel_top_k(self, rng: np.random.Generator, k: int) -> list[int]:
        """Full evaluation: a key for every rank, keep the ``k`` largest."""
        # Gumbel-top-k: argmax of log(p) + Gumbel noise gives weighted
        # sampling without replacement.
        keys = self._log_pmf + rng.gumbel(size=self.n)
        # argpartition is O(n); full sort of k keys only.
        top = np.argpartition(keys, self.n - k)[self.n - k :]
        return top[np.argsort(keys[top])[::-1]].tolist()

    def _threshold(self, k: int) -> float:
        """Candidate threshold of the filtered race for ``k`` draws.

        Infinite (nothing is filtered out, i.e. the full evaluation) when
        ``k`` is too large a fraction of the support for the filter to pay;
        past ``n`` the candidate target below cannot be reached at all.
        """
        tau = self._thresholds.get(k)
        if tau is not None:
            return tau
        target = k + 4.0 * math.sqrt(k) + 4.0
        tau = math.inf
        if _SUPPORT_PER_CANDIDATE * target <= self.n:
            # E[#{i : d_i / p_i <= tau}] = sum_i min(1, tau * p_i). With the j
            # most popular ranks saturated that is j + tau * tail_j, so
            # tau_j = (target - j) / tail_j; the consistent j is the first
            # whose own rank is not saturated. j < target keeps tau_j > 0.
            j = np.arange(math.ceil(target))
            tail = 1.0 - np.concatenate(([0.0], self._cdf[: j.size - 1]))
            taus = (target - j) / tail
            tau = float(taus[np.argmax(taus * self.pmf[: j.size] <= 1.0)])
        self._thresholds[k] = tau
        return tau

    def _race(
        self,
        rng: np.random.Generator,
        ks: list[int],
        taus: list[float],
        scratch: RaceScratch | None,
    ) -> list[list[int]]:
        """One filtered race per ``(k, tau)``, on the next ``len(ks) * n`` doubles."""
        if scratch is None:
            scratch = RaceScratch(self.n, len(ks))
        elif scratch.n != self.n or scratch.rows < len(ks):
            raise WorkloadError(
                f"scratch of {scratch.rows} x {scratch.n} cannot hold {len(ks)} x {self.n}"
            )
        flat = scratch.uniforms[: len(ks) * self.n]
        rng.random(out=flat)
        while True:
            try:
                return self._rank_rows(flat, ks, taus, scratch)
            except _ZeroUniform:
                # rng.gumbel never uses a uniform of exactly 0.0: it takes
                # the next double instead. Do the same, in stream order.
                kept = flat[flat != 0.0]
                while kept.size < flat.size:
                    more = rng.random(flat.size - kept.size)
                    kept = np.concatenate((kept, more[more != 0.0]))
                flat[:] = kept

    def _rank_rows(
        self, flat: np.ndarray, ks: list[int], taus: list[float], scratch: RaceScratch
    ) -> list[list[int]]:
        """Exact top-``k`` ranks of each row of uniforms, best first.

        Row ``r`` of ``flat`` holds the uniforms ``d_i`` of one draw. Its
        winners are the ``k`` smallest ``T_i = -log(1 - d_i) / p_i``, and
        ``d_i / p_i <= tau`` is a superset of ``T_i <= tau``: every rank that
        fails it loses to every rank whose key is inside ``tau``.
        """
        n, m = self.n, len(ks)
        d = flat.reshape(m, n)
        scaled = np.multiply(d, self._inv_pmf, out=scratch.scaled[: m * n].reshape(m, n))
        mask = np.less_equal(
            scaled, np.array(taus)[:, None], out=scratch.mask[: m * n].reshape(m, n)
        )
        idx = np.flatnonzero(mask)
        cols = idx % n
        log = math.log
        try:
            # The key numpy's random_gumbel would have produced, bit for bit:
            # libm's log (math.log), not np.log.
            keys = [
                lp + (0.0 - 1.0 * log(-log(1.0 - u)))
                for lp, u in zip(self._log_pmf[cols].tolist(), flat[idx].tolist())
            ]
        except ValueError:  # log(-0.0)
            raise _ZeroUniform from None
        ranks = cols.tolist()
        ends = np.searchsorted(idx, np.arange(1, m + 1) * n).tolist()
        out: list[list[int]] = []
        a = 0
        for r, (k, tau, b) in enumerate(zip(ks, taus, ends)):
            best = sorted(range(a, b), key=keys.__getitem__, reverse=True)[:k]
            # A key is -log(T_i) up to rounding, so a k-th key this far
            # inside tau beats every rank the filter dropped.
            if b - a == n or (len(best) == k and keys[best[-1]] > _KEY_MARGIN - log(tau)):
                out.append([ranks[i] for i in best])
            else:
                # Too few inside tau: widen it on the same uniforms (the
                # other scratch arrays have been read out by now).
                out.append(self._rank_rows(d[r], [k], [4.0 * tau], scratch)[0])
            a = b
        return out

    def rank_probability(self, rank: int) -> float:
        """Probability of the 0-based ``rank``."""
        if not 0 <= rank < self.n:
            raise WorkloadError(f"rank {rank} out of range [0, {self.n})")
        return float(self.pmf[rank])
