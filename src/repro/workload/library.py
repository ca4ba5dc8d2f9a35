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
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import WorkloadError
from repro.types import CategoryId, ItemId, NodeId
from repro.workload.catalog import MusicCatalog
from repro.workload.zipf import ZipfSampler

__all__ = ["LibraryConfig", "UserLibraries", "generate_libraries"]


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


class UserLibraries:
    """The generated population: who holds what, and who likes what.

    Attributes
    ----------
    catalog:
        The shared :class:`MusicCatalog`.
    favorite:
        ``favorite[u]`` — favorite category of user ``u``.
    secondary:
        ``secondary[u]`` — tuple of secondary categories of user ``u``.
    libraries:
        ``libraries[u]`` — frozenset of item ids user ``u`` shares.
    """

    def __init__(
        self,
        catalog: MusicCatalog,
        favorite: np.ndarray,
        secondary: list[tuple[CategoryId, ...]],
        libraries: list[frozenset[ItemId]],
    ) -> None:
        self.catalog = catalog
        self.favorite = favorite
        self.secondary = secondary
        self.libraries = libraries

    @property
    def n_users(self) -> int:
        """Number of users in the population."""
        return len(self.libraries)

    def holds(self, user: NodeId, item: ItemId) -> bool:
        """Whether ``user`` shares ``item``."""
        return item in self.libraries[user]

    def library_sizes(self) -> np.ndarray:
        """Array of per-user library sizes."""
        return np.array([len(lib) for lib in self.libraries], dtype=np.int64)

    def total_songs(self) -> int:
        """Total songs across all libraries (paper: ~400,000)."""
        return int(self.library_sizes().sum())

    def preferred_categories(self, user: NodeId) -> tuple[CategoryId, ...]:
        """Favorite first, then the secondaries, for ``user``."""
        return (CategoryId(int(self.favorite[user])), *self.secondary[user])

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

    all_categories = np.arange(catalog.n_categories)
    per_category = catalog.items_per_category
    popularity = catalog.popularity
    # One user's draws run as one batch; its work arrays live as long as
    # this call, not as long as the catalog.
    scratch = popularity.batch_scratch(1 + cfg.n_secondary)
    secondary: list[tuple[CategoryId, ...]] = []
    libraries: list[frozenset[ItemId]] = []

    for user in range(cfg.n_users):
        fav = int(favorite[user])
        others = all_categories[all_categories != fav]
        secs = tuple(
            CategoryId(int(c))
            for c in rng.choice(others, size=cfg.n_secondary, replace=False)
        )
        secondary.append(secs)

        size = int(sizes[user])
        fav_count = int(round(size * cfg.favorite_fraction))
        fav_count = min(fav_count, per_category)
        remaining = size - fav_count

        counts = [fav_count]
        if cfg.n_secondary > 0 and remaining > 0:
            counts += [min(c, per_category) for c in _split_evenly(remaining, cfg.n_secondary)]
        drawn = popularity.sample_distinct_batch(rng, counts, scratch)
        # Insertion order (favorite's ranks first, each category's best first)
        # fixes the set's iteration order, which the engine's indexes inherit.
        items: list[ItemId] = []
        for cat, ranks in zip((fav, *secs), drawn):
            base = cat * per_category
            items += [ItemId(base + rank) for rank in ranks]
        libraries.append(frozenset(items))

    return UserLibraries(catalog, favorite, secondary, libraries)


def _split_evenly(total: int, parts: int) -> list[int]:
    """Split ``total`` into ``parts`` integers differing by at most one."""
    base, extra = divmod(total, parts)
    return [base + (1 if i < extra else 0) for i in range(parts)]
