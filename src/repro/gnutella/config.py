"""Configuration of the Gnutella case-study simulation."""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.errors import ConfigurationError
from repro.types import DAY, HOUR

__all__ = ["GnutellaConfig"]


@dataclass(frozen=True, slots=True)
class GnutellaConfig:
    """All knobs of the Section 4 simulation; defaults are the paper's.

    Attributes
    ----------
    n_users:
        Population size (paper: 2,000; ~half online at any time).
    n_items / n_categories / zipf_theta:
        Catalog shape (paper: 200,000 songs, 50 genres, Zipf 0.9).
    mean_library / std_library:
        Library-size Gaussian (paper: 200 / 50).
    n_secondary:
        Secondary categories per user (paper: 5, at 10 % each).
    horizon:
        Simulated wall time in seconds (paper: 4 days).
    warmup_hours:
        Leading buckets discarded from reported series (paper: 12).
    mean_online / mean_offline:
        Churn session means (paper: 3 h each).
    queries_per_hour:
        Poisson query rate per online user. Unstated in the paper;
        calibrated so static-Gnutella volumes land in the figures' ranges.
    max_hops:
        Propagation terminating condition (Figures 1 and 3(a): 2; Figure 2:
        4; the sweep in 3(a) covers 1-4).
    neighbor_slots:
        Symmetric neighbor capacity (paper: 4 in all experiments).
    dynamic:
        ``True`` runs Dynamic Gnutella; ``False`` the static baseline.
    reconfiguration_threshold:
        Own-request count between periodic updates (paper default 2; Figure
        3(b) sweeps 1-16). Ignored by the static scheme.
    update_on_logoff:
        Dynamic only: neighbor log-offs trigger the update process.
    max_swaps_per_update:
        How many invite/evict pairs one reconfiguration may perform. The
        paper exchanges **one** neighbor per reconfiguration ("only one
        neighbor is exchanged during each reconfiguration", Section 4.3),
        which preserves neighborhood diversity; ``None`` applies the full
        Algo 5 list swap in one shot (kept as an ablation — it collapses
        reach and is measurably worse, see EXPERIMENTS.md).
    swap_margin:
        Hysteresis for evicting a connected neighbor: a challenger must have
        accumulated more than ``(1 + swap_margin)`` times the incumbent's
        benefit to displace it. Without hysteresis, churn keeps rotating the
        top of every node's benefit ranking (the best-known peers cycle
        on/off-line), so reconfigurations thrash: perpetual evictions keep
        average degree depressed and neighborhoods randomized. Filling an
        *empty* slot never requires a margin. Defaults to 0 because
        statistics decay (below) already damps thrashing; raise it when
        running fully cumulative statistics.
    stats_decay_on_update:
        Multiplier applied to a node's own benefit table after each of its
        reconfigurations; recent-window evidence then dominates the ranking.
        1.0 keeps statistics fully cumulative (stale global favourites
        dominate and churn makes rankings thrash); 0.0 clears them entirely
        (every decision uses at most ``T`` queries of evidence — this
        reproduces the paper's remark that T=1 behaves like the static
        scheme, but mutes the overall gain). The 0.5 default reproduces the
        Figure 3(b) unimodal shape with its T=2 peak.
    persist_stats:
        Keep a user's benefit statistics across sessions (tastes persist; a
        fresh session starts with yesterday's knowledge).
    downloads_grow_libraries:
        After a hit, the initiator downloads the song and thereafter shares
        it (Gnutella shares the download folder). Content then replicates
        along query paths — preferentially *within taste clusters* under the
        dynamic scheme — producing the paper's gently rising hit curves and
        the strong hop-1 absorption behind its message savings. The paper
        does not state this explicitly, but its figures are hard to produce
        without it (``tests/experiments/test_ablations.py`` checks it does not
        hurt).
    search_strategy:
        How nodes pick forwarding targets. ``"flood"`` is the paper's
        protocol (send to every neighbor except the sender). The Section 2
        techniques compose as extensions: ``"random:K"`` forwards to K
        random neighbors, ``"directed-bft:K"`` to the K historically most
        beneficial (Yang & Garcia-Molina's Directed BFT), and
        ``"iterative-deepening"`` runs successive floods at depths
        1..max_hops, stopping at the first hit. Fast engine only; the
        detailed engine implements the paper's flood.
    benefit:
        Benefit-function choice: ``"bandwidth-share"`` is the paper's
        ``B/R`` (Section 4.1(i)); ``"hit-count"`` scores every result 1;
        ``"latency"`` scores inverse first-result delay. Kept pluggable for
        the benefit ablation (``tests/experiments/test_ablations.py``).
    exploration_interval:
        When set (seconds), each online dynamic peer periodically issues a
        metadata-only exploration probe (Algo 2) about items from its
        preferred categories — the Gnutella Ping-Pong extension the paper
        mentions (Section 3.3). ``None`` (default) matches the case study's
        combined search-and-exploration with no separate step.
    exploration_ttl / exploration_probe_items:
        Probe depth and how many candidate items each probe asks about.
    evicted_refill_immediate:
        Whether an evicted peer promptly obtains a random replacement from
        the bootstrap server (it still never reconnects to the evictor,
        whose statistics it reset). Algo 5 as written defers replacement to
        the next invitation or threshold crossing, but that deferral keeps
        average degree depressed and costs the dynamic scheme more reach
        than reconfiguration gains — the deferred variant is kept as an
        ablation (see ``tests/experiments/test_ablations.py`` and EXPERIMENTS.md).
    message_loss_rate:
        Detailed engine only: probability that any individual message (query
        copy or reply hop) is lost in transit. Failure injection for
        robustness experiments; the paper assumes loss-free links.
    seed:
        Root seed for every RNG stream.
    query_timeout:
        Detailed engine only: how long the initiator collects replies.
    """

    n_users: int = 2000
    n_items: int = 200_000
    n_categories: int = 50
    zipf_theta: float = 0.9
    mean_library: float = 200.0
    std_library: float = 50.0
    n_secondary: int = 5
    horizon: float = 4 * DAY
    warmup_hours: int = 12
    mean_online: float = 3 * HOUR
    mean_offline: float = 3 * HOUR
    queries_per_hour: float = 8.0
    max_hops: int = 2
    neighbor_slots: int = 4
    dynamic: bool = True
    reconfiguration_threshold: int = 2
    update_on_logoff: bool = True
    max_swaps_per_update: int | None = 1
    swap_margin: float = 0.0
    stats_decay_on_update: float = 0.5
    persist_stats: bool = True
    downloads_grow_libraries: bool = True
    evicted_refill_immediate: bool = True
    search_strategy: str = "flood"
    benefit: str = "bandwidth-share"
    exploration_interval: float | None = None
    exploration_ttl: int = 2
    exploration_probe_items: int = 4
    message_loss_rate: float = 0.0
    seed: int = 0
    query_timeout: float = 10.0

    def __post_init__(self) -> None:
        if self.n_users < 2:
            raise ConfigurationError("n_users must be at least 2")
        if self.horizon <= 0:
            raise ConfigurationError("horizon must be positive")
        if self.warmup_hours < 0:
            raise ConfigurationError("warmup_hours must be non-negative")
        if self.warmup_hours * HOUR >= self.horizon:
            raise ConfigurationError("warm-up must be shorter than the horizon")
        if self.queries_per_hour <= 0:
            raise ConfigurationError("queries_per_hour must be positive")
        if self.max_hops < 1:
            raise ConfigurationError("max_hops must be >= 1")
        if self.neighbor_slots < 1:
            raise ConfigurationError("neighbor_slots must be >= 1")
        if self.reconfiguration_threshold < 1:
            raise ConfigurationError("reconfiguration_threshold must be >= 1")
        if self.max_swaps_per_update is not None and self.max_swaps_per_update < 1:
            raise ConfigurationError("max_swaps_per_update must be >= 1 or None")
        if self.swap_margin < 0:
            raise ConfigurationError("swap_margin must be non-negative")
        if not 0.0 <= self.stats_decay_on_update <= 1.0:
            raise ConfigurationError("stats_decay_on_update must be in [0, 1]")
        self.parse_search_strategy()  # validates the spec
        if self.benefit not in ("bandwidth-share", "hit-count", "latency"):
            raise ConfigurationError(
                f"unknown benefit {self.benefit!r}; use bandwidth-share, "
                "hit-count, or latency"
            )
        if self.exploration_interval is not None and self.exploration_interval <= 0:
            raise ConfigurationError("exploration_interval must be positive or None")
        if self.exploration_ttl < 1:
            raise ConfigurationError("exploration_ttl must be >= 1")
        if self.exploration_probe_items < 1:
            raise ConfigurationError("exploration_probe_items must be >= 1")
        if self.query_timeout <= 0:
            raise ConfigurationError("query_timeout must be positive")
        if not 0.0 <= self.message_loss_rate < 1.0:
            raise ConfigurationError("message_loss_rate must be in [0, 1)")

    def parse_search_strategy(self) -> tuple[str, int | None]:
        """Decompose ``search_strategy`` into ``(kind, k)``.

        Returns ``("flood", None)``, ``("iterative-deepening", None)``,
        ``("random", K)`` or ``("directed-bft", K)``; raises
        :class:`ConfigurationError` for malformed specs.
        """
        spec = self.search_strategy
        if spec in ("flood", "iterative-deepening"):
            return spec, None
        for prefix in ("random", "directed-bft"):
            if spec.startswith(prefix + ":"):
                try:
                    k = int(spec.split(":", 1)[1])
                except ValueError:
                    raise ConfigurationError(
                        f"malformed search_strategy {spec!r}: K must be an integer"
                    ) from None
                if k < 1:
                    raise ConfigurationError(
                        f"search_strategy {spec!r}: K must be >= 1"
                    )
                return prefix, k
        raise ConfigurationError(
            f"unknown search_strategy {spec!r}; use flood, iterative-deepening, "
            "random:K, or directed-bft:K"
        )

    def as_static(self) -> "GnutellaConfig":
        """This configuration with the static (baseline) scheme."""
        return replace(self, dynamic=False)

    def as_dynamic(self) -> "GnutellaConfig":
        """This configuration with the dynamic (framework) scheme."""
        return replace(self, dynamic=True)

    @property
    def horizon_hours(self) -> int:
        """Number of whole hourly buckets covering the horizon."""
        return int(self.horizon // HOUR) + (1 if self.horizon % HOUR else 0)
