"""Query generation.

Section 4.2: "When on-line, each user will issue queries with the same
frequency. The category in which a query falls, matches the distribution of
the user's preferences (i.e. with 50% probability the user will ask for a
song from his favorite category). We set the number of songs that are
requested by a query to one."

The paper leaves the absolute rate unstated; it is a parameter here
(``rate_per_hour``), calibrated in :mod:`repro.experiments.common` so that
static Gnutella's hit/message volumes land in the paper's ranges.
``tests/experiments/test_ablations.py`` checks the dynamic-vs-static ordering
holds across a 4x range of it.

Queried songs are drawn by category popularity. By default a user does not
query for a song already in their own library (a local hit would bypass the
network entirely); this is the ``exclude_local`` knob.
"""

from __future__ import annotations

import numpy as np

from repro.core.fastpath import HolderIndex
from repro.errors import WorkloadError
from repro.rng import Draws
from repro.types import HOUR, ItemId, NodeId
from repro.workload.library import UserLibraries

__all__ = ["QueryModel"]


class QueryModel:
    """Samples query inter-arrival times and query targets for each user.

    Parameters
    ----------
    libraries:
        The generated population (supplies preferences and local holdings).
    rate_per_hour:
        Poisson query rate of each online user.
    favorite_probability:
        Probability a query falls in the user's favorite category (paper:
        0.5); the remainder splits evenly over the secondary categories.
    exclude_local:
        If true (default), resample queries that hit the user's own library
        (up to ``max_resample`` times, then accept whatever was drawn).
    holders:
        The live holdings index local exclusion asks
        (:class:`~repro.core.fastpath.HolderIndex`). The engine passes the
        one its downloads grow. The default, an index built over
        ``libraries``, serves standalone use of the model, as in the
        workload tests; no engine relies on it.
    """

    def __init__(
        self,
        libraries: UserLibraries,
        rate_per_hour: float = 8.0,
        favorite_probability: float = 0.5,
        exclude_local: bool = True,
        max_resample: int = 16,
        holders: HolderIndex | None = None,
    ) -> None:
        if rate_per_hour <= 0:
            raise WorkloadError(f"rate_per_hour must be positive, got {rate_per_hour}")
        if not 0.0 <= favorite_probability <= 1.0:
            raise WorkloadError("favorite_probability must be in [0, 1]")
        if max_resample < 0:
            raise WorkloadError("max_resample must be non-negative")
        self.libraries = libraries
        self.catalog = libraries.catalog
        self.rate_per_hour = rate_per_hour
        self.favorite_probability = favorite_probability
        self.exclude_local = exclude_local
        self.max_resample = max_resample
        self.holders = (
            holders if holders is not None else HolderIndex(libraries.items, libraries.offsets)
        )
        self._mean_interarrival = HOUR / rate_per_hour
        # Read once per query: plain ints, not ndarray scalars. User u's
        # secondaries are _secondary[u * k : (u + 1) * k].
        self._favorite: list[int] = np.asarray(libraries.favorite).tolist()
        self._n_secondary: int = libraries.secondary.shape[1]
        self._secondary: list[int] = libraries.secondary.reshape(-1).tolist()

    @property
    def mean_interarrival(self) -> float:
        """Mean seconds between queries of one online user."""
        return self._mean_interarrival

    def next_interarrival(self, rng: np.random.Generator) -> float:
        """Exponential inter-arrival draw, in seconds."""
        return float(rng.exponential(self._mean_interarrival))

    def sample_category(self, user: NodeId, rng: Draws) -> int:
        """Category of the next query, per the user's preference mix."""
        k = self._n_secondary
        if not k or rng.random() < self.favorite_probability:
            return self._favorite[user]
        return self._secondary[user * k + rng.integers(k)]

    def sample_item(
        self,
        user: NodeId,
        rng: Draws,
        library: "set[ItemId] | frozenset[ItemId] | None" = None,
    ) -> ItemId:
        """The item the next query asks for (one song per query).

        Local exclusion asks ``library`` when one is given (any container of
        the user's items), else the holder index: ``holders.holds(user,
        item)``, which sees every download the engine recorded and builds
        nothing per item.
        """
        sample_category = self.sample_category
        sample_rank = self.catalog.popularity.sample
        item_at = self.catalog.item_at
        holds = self.holders.holds
        for _ in range(self.max_resample + 1):
            category = sample_category(user, rng)  # drawn before the rank: same stream
            item = item_at(category, sample_rank(rng))
            if not self.exclude_local or (
                not holds(user, item) if library is None else item not in library
            ):
                return item
        return item  # give up after max_resample tries; accept a local hit
