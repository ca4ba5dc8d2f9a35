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

Draws without replacement (:meth:`ZipfSampler.sample_distinct`, and
:meth:`ZipfSampler.sample_distinct_rows` for many at once) are successive
sampling: i.i.d. inverse-CDF draws, a rank kept the first time it comes up
and skipped after that, until ``k`` distinct ranks are in hand, returned in
the order they were drawn. That is weighted sampling without replacement by
definition: once the ranks in ``S`` are taken, the next new rank is ``j``
with probability ``p_j / (1 - p(S))``. Ordered Gumbel-top-k (the ``k``
largest ``log p_i + G_i``) has the same Plackett-Luce law (Yellott 1977;
Kool et al., ICML 2019), so the worlds built before this sampler and the
ones built now are draws from one distribution on different streams.

The cost is the draws, not the support: a row asks for a little more than
the number of draws expected to show ``k`` distinct ranks, read off the
expected-distinct curve ``D(m) = sum_i 1 - (1 - p_i)^m`` (for Zipf(0.9) at
the paper's sizes, 145 draws for 100 ranks of 4,000, 8 for 5 of 8,000). A
row that comes up short, about one in a hundred, draws again, continuing its
own i.i.d. sequence after the ranks it already holds. All the rows of one call share one
``rng.random`` fill and one :func:`numpy.unique` over ``row * n + rank``,
whose first-occurrence indices are the kept draws. When ``k`` is so large a
fraction of the support (or the skew so steep) that a row would expect more
than ``_MAX_DRAWS_PER_RANK * n + _RACE_CALL_DRAWS`` draws, repeats dominate
and the full Gumbel race, O(n) per row, runs instead.

Note this is the *bounded* Zipf distribution over n ranks (what the paper
needs), not scipy's infinite-support ``zipf``; scipy's ``zipfian`` agrees
with it and is used as the oracle in the tests.
"""

from __future__ import annotations

from bisect import bisect_right
from collections.abc import Sequence

import numpy as np

from repro.errors import WorkloadError

__all__ = ["ZipfSampler", "zipf_pmf"]

# A successive draw costs ~0.2 us (fill, search, unique, keep), a Gumbel race
# ~30 ns per rank plus ~12 us per call. Measured over n = 100..20,000 the race
# wins once a row expects more draws than this many per rank, plus the call.
_MAX_DRAWS_PER_RANK = 0.15
_RACE_CALL_DRAWS = 50

# Draws asked for per expected draw, plus a fixed slack per row. A short row
# costs a second round over the short rows only; measured at the paper's and
# the 20,000-peer sizes, this lean first round (0.1-1.4 % of rows short) beat
# an ask of 1.2x expected + 8 (over half the draws surplus at k = 5) by a
# fifth of the build.
_OVERDRAW = 1.1
_SLACK = 2

# Points of the expected-distinct curve D(m), geometric in m.
_CURVE_POINTS = 64


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
        #: (D(m), m) on a geometric grid of m, built on the first distinct draw.
        self._curve: tuple[np.ndarray, np.ndarray] | None = None

    def sample(self, rng: np.random.Generator, size: int | None = None) -> np.ndarray | int:
        """Draw ``size`` ranks (or a scalar when ``size`` is None)."""
        if size is None:
            return bisect_right(self._cdf_list, rng.random())
        return np.searchsorted(self._cdf, rng.random(size), side="right").astype(np.int64)

    def sample_distinct(self, rng: np.random.Generator, k: int) -> np.ndarray:
        """Draw ``k`` *distinct* ranks, weighted by the Zipf pmf.

        Used to fill a user's library: a library holds each song at most
        once, but popular songs should still be more likely to be included.
        The ranks come in the order they were drawn, so the first is a plain
        Zipf draw and each later one is weighted among the ranks not yet
        taken (module docstring).
        """
        return self.sample_distinct_rows(rng, [k])

    def sample_distinct_rows(self, rng: np.random.Generator, counts: Sequence[int]) -> np.ndarray:
        """One :meth:`sample_distinct` draw per entry of ``counts``, concatenated.

        Row ``r`` is ``out[ends[r] - counts[r] : ends[r]]`` with ``ends`` the
        running sum of ``counts``; a count of zero draws nothing. The rows
        that sample successively draw first, together; the rows that take
        the Gumbel race follow, one ``rng.gumbel(size=n)`` each, in order.
        """
        ks = np.asarray(counts, dtype=np.int64).reshape(-1)
        if ks.size and ks.min() < 0:
            raise WorkloadError(f"k must be non-negative, got {int(ks.min())}")
        if ks.size and ks.max() > self.n:
            raise WorkloadError(
                f"cannot draw {int(ks.max())} distinct ranks from support of {self.n}"
            )
        ends = np.cumsum(ks)
        out = np.empty(int(ends[-1]) if ks.size else 0, dtype=np.int64)
        draws = self._expected_draws(ks)
        successive = np.flatnonzero((ks > 0) & np.isfinite(draws))
        if successive.size:
            out[_ranges(ends[successive] - ks[successive], ks[successive])] = self._successive(
                rng, ks[successive]
            )
        for r in np.flatnonzero((ks > 0) & ~np.isfinite(draws)).tolist():
            out[ends[r] - ks[r] : ends[r]] = self._gumbel_top_k(rng, int(ks[r]))
        return out

    def _successive(self, rng: np.random.Generator, ks: np.ndarray) -> np.ndarray:
        """The first ``ks[r]`` distinct ranks of row ``r``'s i.i.d. draws, rows concatenated."""
        n = self.n
        have = np.zeros_like(ks)
        rows = np.arange(ks.size)
        taken_rows = taken = np.empty(0, dtype=np.int64)
        while rows.size:
            wanted = self._expected_draws(ks[rows]) - self._expected_draws(have[rows])
            seq_rows = np.repeat(rows, np.ceil(_OVERDRAW * wanted).astype(np.int64) + _SLACK)
            seq = np.searchsorted(self._cdf, rng.random(seq_rows.size), side="right")
            if taken.size:
                # A short row's sequence goes on after the distinct ranks it
                # already holds: repeats of those are skipped again.
                held = have[taken_rows] < ks[taken_rows]
                seq_rows = np.concatenate((taken_rows[held], seq_rows))
                order = np.argsort(seq_rows, kind="stable")
                seq_rows = seq_rows[order]
                seq = np.concatenate((taken[held], seq))[order]
                taken_rows, taken = taken_rows[~held], taken[~held]
            _, first = np.unique(seq_rows * n + seq, return_index=True)
            first.sort()
            first_rows = seq_rows[first]
            per_row = np.bincount(first_rows, minlength=ks.size)
            slot = np.arange(first.size) - (np.cumsum(per_row) - per_row)[first_rows]
            kept = first[slot < ks[first_rows]]
            taken_rows = np.concatenate((taken_rows, seq_rows[kept]))
            taken = np.concatenate((taken, seq[kept]))
            have[rows] = np.minimum(per_row[rows], ks[rows])
            rows = rows[have[rows] < ks[rows]]
        return taken[np.argsort(taken_rows, kind="stable")]

    def _expected_draws(self, distinct: np.ndarray) -> np.ndarray:
        """I.i.d. draws expected to show ``distinct`` different ranks; inf past the race's guard."""
        if self._curve is None:
            with np.errstate(divide="ignore"):  # n == 1: the one rank never misses
                log_miss = np.log1p(-self.pmf)
            most = _MAX_DRAWS_PER_RANK * self.n + _RACE_CALL_DRAWS
            reach = np.geomspace(1.0, most, _CURVE_POINTS)
            shown = np.array([self.n - np.exp(m * log_miss).sum() for m in reach])
            self._curve = (shown, reach)
        shown, reach = self._curve
        return np.where(
            distinct < shown[-1], np.interp(distinct, shown, reach, left=0.0), np.inf
        )

    def _gumbel_top_k(self, rng: np.random.Generator, k: int) -> np.ndarray:
        """Full evaluation: a key for every rank, keep the ``k`` largest."""
        # Gumbel-top-k: argmax of log(p) + Gumbel noise gives weighted
        # sampling without replacement.
        keys = np.log(self.pmf) + rng.gumbel(size=self.n)
        # argpartition is O(n); full sort of k keys only.
        top = np.argpartition(keys, self.n - k)[self.n - k :]
        return top[np.argsort(keys[top])[::-1]]

    def rank_probability(self, rank: int) -> float:
        """Probability of the 0-based ``rank``."""
        if not 0 <= rank < self.n:
            raise WorkloadError(f"rank {rank} out of range [0, {self.n})")
        return float(self.pmf[rank])


def _ranges(starts: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """``concatenate([arange(s, s + l) for s, l in zip(starts, lengths)])``."""
    ends = np.cumsum(lengths)
    return np.arange(ends[-1]) + np.repeat(starts - (ends - lengths), lengths)
