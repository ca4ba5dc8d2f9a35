"""Per-user music libraries.

Section 4.2's construction, step by step:

* library size ~ Gaussian(mean 200, std 50), clipped below at a configurable
  minimum (the paper does not state its clipping; sizes near zero would make
  a user contentless, so we floor at 10 by default and expose the knob);
* each user has one *favorite* category holding 50 % of the library, the
  assignment of users to favorite categories following Zipf(0.9);
* the remaining 50 % splits evenly (10 % each) across 5 distinct *secondary*
  categories drawn uniformly at random (excluding the favorite);
* the songs taken from a category are drawn according to the category's Zipf
  popularity, without replacement (a library holds each song once) — "some
  popular songs are requested by most fans in the corresponding categories -
  the majority of the songs are requested by very few".

The population is stored flat: one int32 array of every user's songs back to
back in draw order, and ``n_users + 1`` offsets into it (a CSR), plus one
``(n_users, n_secondary)`` array of secondary categories. No per-user set or
tuple is kept; :class:`UserLibraries` builds one on demand for analysis.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from repro.errors import WorkloadError
from repro.types import CategoryId, ItemId, NodeId
from repro.workload.catalog import MusicCatalog
from repro.workload.zipf import ZipfSampler

__all__ = ["LibraryConfig", "UserLibraries", "generate_libraries"]

# Songs drawn per block of users. One block's arrays (uniforms, ranks, sort
# keys) peak under 4 MiB whatever the population; a different value reads
# the stream differently.
_BLOCK_SONGS = 1 << 15


@dataclass(frozen=True, slots=True)
class LibraryConfig:
    """Parameters of the library generator (defaults = the paper's values)."""

    n_users: int = 2000
    mean_size: float = 200.0
    std_size: float = 50.0
    min_size: int = 10
    favorite_fraction: float = 0.5
    n_secondary: int = 5
    user_category_theta: float = 0.9

    def __post_init__(self) -> None:
        if self.n_users <= 0:
            raise WorkloadError("n_users must be positive")
        if self.mean_size <= 0 or self.std_size < 0:
            raise WorkloadError("mean_size must be positive and std_size non-negative")
        if self.min_size < 1:
            raise WorkloadError("min_size must be at least 1")
        if not 0.0 < self.favorite_fraction <= 1.0:
            raise WorkloadError("favorite_fraction must be in (0, 1]")
        if self.n_secondary < 0:
            raise WorkloadError("n_secondary must be non-negative")


class _Libraries(Sequence):
    """``libraries[u]``: user ``u``'s songs as a frozenset, built on demand.

    The set is built from the user's CSR slice in draw order, so it iterates
    in the generator's insertion order. Analysis code and tests read this;
    the engine never builds one.
    """

    __slots__ = ("_items", "_offsets")

    def __init__(self, items: np.ndarray, offsets: np.ndarray) -> None:
        self._items = items
        self._offsets = offsets

    def __len__(self) -> int:
        return len(self._offsets) - 1

    def __getitem__(self, user: int) -> frozenset[ItemId]:  # type: ignore[override]
        user = range(len(self))[user]
        return frozenset(self._items[self._offsets[user] : self._offsets[user + 1]].tolist())

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Sequence):
            return NotImplemented
        return list(self) == list(other)


class UserLibraries:
    """The generated population: who holds what, and who likes what.

    Holdings are one CSR layout: ``items`` holds every user's songs back to
    back in draw order, and user ``u``'s are
    ``items[offsets[u] : offsets[u + 1]]`` (``offsets`` has ``n_users + 1``
    entries). The engine indexes it once
    (:class:`~repro.core.fastpath.HolderIndex`) and never copies it per user.

    Attributes
    ----------
    catalog:
        The shared :class:`MusicCatalog`.
    favorite:
        ``favorite[u]`` — favorite category of user ``u``.
    secondary:
        ``(n_users, n_secondary)`` int array; row ``u`` holds user ``u``'s
        secondary categories in draw order (:meth:`categories` gives them as
        a tuple of ints).
    items, offsets:
        The CSR: int32 item ids and int64 row offsets.
    libraries:
        ``libraries[u]`` — frozenset of item ids user ``u`` shares, built on
        demand from the CSR (for analysis; see :class:`_Libraries`).
    """

    def __init__(
        self,
        catalog: MusicCatalog,
        favorite: np.ndarray,
        secondary: np.ndarray,
        items: np.ndarray,
        offsets: np.ndarray,
    ) -> None:
        self.catalog = catalog
        self.favorite = favorite
        self.secondary = secondary
        self.items = items
        self.offsets = offsets
        self.libraries = _Libraries(items, offsets)

    @property
    def n_users(self) -> int:
        """Number of users in the population."""
        return len(self.offsets) - 1

    def holds(self, user: NodeId, item: ItemId) -> bool:
        """Whether ``user`` shares ``item``."""
        return item in self.items[self.offsets[user] : self.offsets[user + 1]]

    def library_sizes(self) -> np.ndarray:
        """Array of per-user library sizes."""
        return np.diff(self.offsets)

    def total_songs(self) -> int:
        """Total songs across all libraries (paper: ~400,000)."""
        return int(self.offsets[-1])

    def categories(self, user: NodeId) -> tuple[CategoryId, ...]:
        """``user``'s secondary categories, in draw order."""
        return tuple(self.secondary[user].tolist())

    def preferred_categories(self, user: NodeId) -> tuple[CategoryId, ...]:
        """Favorite first, then the secondaries, for ``user``."""
        return (CategoryId(int(self.favorite[user])), *self.categories(user))

    def owners_index(self) -> dict[ItemId, list[NodeId]]:
        """Inverted index item -> sorted list of holders (analysis helper)."""
        index: dict[ItemId, list[NodeId]] = {}
        for user, lib in enumerate(self.libraries):
            for item in sorted(lib):
                index.setdefault(item, []).append(NodeId(user))
        for holders in index.values():
            holders.sort()
        return index


def generate_libraries(
    catalog: MusicCatalog,
    rng: np.random.Generator,
    config: LibraryConfig | None = None,
) -> UserLibraries:
    """Build the synthetic user population of Section 4.2.

    Parameters
    ----------
    catalog:
        Shared catalog; must have more categories than ``1 + n_secondary``.
    rng:
        Source of randomness (one stream drives the whole population, so a
        fixed stream reproduces the same population).
    config:
        Generator parameters; defaults to the paper's values.

    The stream is read in this order: every user's favorite category, every
    user's size, then block by block (:data:`_BLOCK_SONGS`) one uniform per
    category per user for the secondaries and the block's song draws.
    """
    cfg = config or LibraryConfig()
    if catalog.n_categories < cfg.n_secondary + 1:
        raise WorkloadError(
            f"need at least {cfg.n_secondary + 1} categories, "
            f"catalog has {catalog.n_categories}"
        )

    category_sampler = ZipfSampler(catalog.n_categories, cfg.user_category_theta)
    favorite = category_sampler.sample(rng, size=cfg.n_users)

    sizes = np.clip(
        np.rint(rng.normal(cfg.mean_size, cfg.std_size, size=cfg.n_users)),
        cfg.min_size,
        None,
    ).astype(np.int64)
    # A library cannot exceed the number of distinct songs available to it.
    max_possible = (1 + cfg.n_secondary) * catalog.items_per_category
    sizes = np.minimum(sizes, max_possible)

    # Songs per (user, category): the favorite's share first, the rest split
    # evenly over the secondaries (the first ones take the odd songs).
    per_category = catalog.items_per_category
    counts = np.zeros((cfg.n_users, 1 + cfg.n_secondary), dtype=np.int64)
    counts[:, 0] = np.minimum(np.rint(sizes * cfg.favorite_fraction), per_category)
    if cfg.n_secondary > 0:
        base, extra = np.divmod(sizes - counts[:, 0], cfg.n_secondary)
        odd = np.arange(cfg.n_secondary) < extra[:, None]
        counts[:, 1:] = np.minimum(base[:, None] + odd, per_category)

    secondary = np.empty((cfg.n_users, cfg.n_secondary), dtype=np.int32)
    offsets = np.zeros(cfg.n_users + 1, dtype=np.int64)
    ends = offsets[1:]
    np.cumsum(counts.sum(axis=1), out=ends)
    if catalog.n_items > np.iinfo(np.int32).max:
        raise WorkloadError(f"item ids must fit int32, catalog has {catalog.n_items} items")
    songs = np.empty(int(offsets[-1]), dtype=np.int32)
    start = 0
    while start < cfg.n_users:
        begin = int(ends[start - 1]) if start else 0
        stop = max(start + 1, int(np.searchsorted(ends, begin + _BLOCK_SONGS, side="right")))
        fav = favorite[start:stop]
        # A uniformly random ordered n_secondary-subset of the other
        # categories: the categories of the smallest uniforms, one uniform
        # per category, the favorite's masked out.
        secs = np.empty((stop - start, 0), dtype=np.int64)
        if cfg.n_secondary:
            keys = rng.random((stop - start, catalog.n_categories))
            keys[np.arange(stop - start), fav] = np.inf
            secs = np.argpartition(keys, cfg.n_secondary - 1, axis=1)[:, : cfg.n_secondary]
            secs = np.take_along_axis(
                secs, np.argsort(np.take_along_axis(keys, secs, axis=1), axis=1), axis=1
            )
        secondary[start:stop] = secs
        # Draw order (favorite's songs first, each category's in draw order)
        # is the CSR's order, and the iteration order of the frozensets
        # ``UserLibraries.libraries`` builds from it.
        block = counts[start:stop].reshape(-1)
        items = catalog.popularity.sample_distinct_rows(rng, block)
        items += np.repeat(np.column_stack((fav, secs)).reshape(-1) * per_category, block)
        songs[begin : begin + len(items)] = items
        start = stop

    return UserLibraries(catalog, favorite, secondary, songs, offsets)
