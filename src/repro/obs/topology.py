"""Topology observatory: periodic snapshots of the evolving overlay.

The paper's dynamic scheme is a claim about *network evolution* — "as the
time evolves, new beneficial neighbors are being discovered" (Section 4.3) —
but the figure metrics (hits, messages) only show its consequences.  This
module records the overlay itself: every ``interval`` simulated seconds a
:class:`TopologySnapshotter` walks the live peer population once (one
:class:`OverlayView`) and derives

* in/out-degree distributions and their concentration (Gini coefficient,
  top-k share of in-degree) — is load piling onto a few suppliers?
* neighbor-churn rate between consecutive snapshots — are links still
  moving, or has reconfiguration converged?
* the Section 3.1 symmetric-consistency ratio — every directed edge
  ``j in Out(i)`` should be mirrored by ``i in In(j)``;
* mean reachability within the query TTL — the reach bound behind the
  Figure 1 vs Figure 2 gap;
* the distribution of accumulated benefit scores (Section 3.4's statistics
  tables) — the raw material reconfiguration decisions are made from.

All metric functions are pure Python over plain mappings, so they double as
the brute-force oracle targets in the test suite.

The snapshotter is opt-in and **digest-neutral**: its periodic callback is
marked with :func:`repro.sim.events.mark_observer`, so the event-stream
SHA-256 of a snapshotted run is bit-identical to a plain run's — asserted in
``tests/gnutella/test_trace_digest.py``.  It only reads engine state; it
never draws RNG or mutates anything.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Any, Iterable, Mapping, Sequence

from repro.errors import ConfigurationError
from repro.sim.events import mark_observer
from repro.sim.monitor import TimeSeries
from repro.types import NodeId

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.statistics import StatsTable
    from repro.obs.registry import MetricsRegistry

__all__ = [
    "OverlayView",
    "TopologySnapshot",
    "TopologySnapshotter",
    "degree_distribution",
    "gini",
    "mean_reachability",
    "neighbor_churn",
    "reachable_within",
    "snapshot_overlay",
    "symmetric_consistency_ratio",
    "top_k_share",
    "walk_overlay",
]

#: How many BFS sources the reachability estimate averages over (lowest node
#: ids first, so the estimate is deterministic and cheap on large overlays).
DEFAULT_REACHABILITY_SOURCES = 32


# ----------------------------------------------------------------------
# Pure metric functions (plain mappings in, floats out)
# ----------------------------------------------------------------------
def gini(values: Sequence[float]) -> float:
    """Gini coefficient of a non-negative sample (0 = equal, ->1 = one
    holder has everything).  Degenerate samples (all zero, fewer than two
    values) report 0.0."""
    vals = sorted(float(v) for v in values)
    n = len(vals)
    total = sum(vals)
    if total == 0 or n < 2:
        return 0.0
    running = 0.0
    cum_sum = 0.0
    for v in vals:
        running += v
        cum_sum += running
    # Float rounding can land a hair outside [0, 1] (e.g. two identical
    # values); clamp so callers can rely on the documented range.
    return min(1.0, max(0.0, (n + 1 - 2 * (cum_sum / total)) / n))


def top_k_share(values: Sequence[float], k: int) -> float:
    """Fraction of the total held by the ``k`` largest values (0.0 for an
    empty or all-zero sample)."""
    if k < 0:
        raise ConfigurationError(f"k must be non-negative, got {k}")
    vals = sorted((float(v) for v in values), reverse=True)
    total = sum(vals)
    if total == 0:
        return 0.0
    return sum(vals[:k]) / total


def degree_distribution(degrees: Iterable[int]) -> dict[int, int]:
    """Histogram ``{degree: node count}``, keys ascending."""
    counts: dict[int, int] = {}
    for d in degrees:
        counts[d] = counts.get(d, 0) + 1
    return dict(sorted(counts.items()))


def symmetric_consistency_ratio(
    outgoing: Mapping[NodeId, Sequence[NodeId]],
    incoming: Mapping[NodeId, Sequence[NodeId]],
) -> float:
    """Fraction of directed edges satisfying the Section 3.1 predicate.

    An edge ``j in Out(i)`` is *consistent* when ``i in In(j)``; nodes
    absent from ``incoming`` count as having empty incoming lists.  An
    overlay with no edges is vacuously consistent (ratio 1.0).
    """
    incoming_sets = {node: set(lst) for node, lst in incoming.items()}
    edges = 0
    consistent = 0
    for i, outs in outgoing.items():
        for j in outs:
            edges += 1
            if i in incoming_sets.get(j, set()):
                consistent += 1
    if edges == 0:
        return 1.0
    return consistent / edges


def neighbor_churn(
    prev: Mapping[NodeId, Sequence[NodeId]],
    curr: Mapping[NodeId, Sequence[NodeId]],
) -> float:
    """Fraction of directed edges that changed between two snapshots.

    ``|added ∪ removed| / |prev ∪ curr|`` over edge sets — 0.0 when the
    overlay is static (``neighbor_churn(s, s) == 0`` for any ``s``), 1.0
    when no edge survived.  Two empty snapshots report 0.0.
    """
    prev_edges = {(i, j) for i, outs in prev.items() for j in outs}
    curr_edges = {(i, j) for i, outs in curr.items() for j in outs}
    union = len(prev_edges | curr_edges)
    if union == 0:
        return 0.0
    return len(prev_edges ^ curr_edges) / union


def reachable_within(
    outgoing: Mapping[NodeId, Sequence[NodeId]],
    source: NodeId,
    ttl: int,
) -> int:
    """Number of nodes reachable from ``source`` in at most ``ttl`` hops.

    ``source`` itself is excluded — a node does not receive its own query.
    Plain breadth-first search over the outgoing relation; targets missing
    from ``outgoing`` are still counted as reached (they just have no
    onward edges).
    """
    if ttl <= 0 or source not in outgoing:
        return 0
    visited = {source}
    frontier = [source]
    reached = 0
    for _hop in range(ttl):
        if not frontier:
            break
        next_frontier: list[NodeId] = []
        for node in frontier:
            for neighbor in outgoing.get(node, ()):
                if neighbor not in visited:
                    visited.add(neighbor)
                    next_frontier.append(neighbor)
                    reached += 1
        frontier = next_frontier
    return reached


def mean_reachability(
    outgoing: Mapping[NodeId, Sequence[NodeId]],
    ttl: int,
    *,
    max_sources: int | None = DEFAULT_REACHABILITY_SOURCES,
) -> float:
    """Mean fraction of the overlay reachable within ``ttl`` hops.

    Averaged over BFS from the ``max_sources`` lowest node ids (``None``
    for every node) — deterministic, and bounded cost on large overlays.
    Overlays with fewer than two nodes report 0.0.
    """
    nodes = sorted(outgoing)
    n = len(nodes)
    if n < 2:
        return 0.0
    sources = nodes if max_sources is None else nodes[:max_sources]
    fractions = [reachable_within(outgoing, s, ttl) / (n - 1) for s in sources]
    return sum(fractions) / len(fractions)


# ----------------------------------------------------------------------
# The shared overlay walk
# ----------------------------------------------------------------------
@dataclass(frozen=True, slots=True)
class OverlayView:
    """One instant's overlay, walked once and shared by every consumer.

    Holds immutable copies of the online peers' neighbor lists (insertion
    order preserved), so probes and the snapshotter derive all their
    statistics from the *same* walk instead of re-traversing the peer
    population per metric.
    """

    online: tuple[NodeId, ...]
    outgoing: dict[NodeId, tuple[NodeId, ...]]
    incoming: dict[NodeId, tuple[NodeId, ...]]

    @property
    def n_online(self) -> int:
        """Number of online peers in the snapshot."""
        return len(self.online)

    @property
    def n_edges(self) -> int:
        """Number of directed outgoing edges."""
        return sum(len(outs) for outs in self.outgoing.values())

    def out_degrees(self) -> list[int]:
        """Outgoing-list sizes, in ascending node-id order."""
        return [len(self.outgoing[node]) for node in self.online]

    def in_degrees(self) -> list[int]:
        """Incoming-list sizes, in ascending node-id order."""
        return [len(self.incoming[node]) for node in self.online]

    def clustering_by_attribute(self, attribute: Mapping[NodeId, int]) -> float:
        """Fraction of edges whose endpoints share the same attribute value.

        With ``attribute`` = favorite music category, this measures how well
        dynamic reconfiguration groups "nodes with similar content together"
        (Section 4.3). Neighbor lists cannot hold duplicates, so every edge is
        counted once without deduplication.
        """
        edges = 0
        same = 0
        for node, outs in self.outgoing.items():
            for other in outs:
                edges += 1
                if attribute.get(node) == attribute.get(other):
                    same += 1
        if edges == 0:
            return 0.0
        return same / edges


def walk_overlay(peers: Iterable[Any]) -> OverlayView:
    """Snapshot the online portion of a peer population in one pass.

    ``peers`` is duck-typed: anything iterable of objects with ``node``,
    ``online`` and ``neighbors.outgoing`` / ``neighbors.incoming``
    (:class:`~repro.core.neighbors.NeighborList`) works.
    """
    online: list[NodeId] = []
    outgoing: dict[NodeId, tuple[NodeId, ...]] = {}
    incoming: dict[NodeId, tuple[NodeId, ...]] = {}
    for peer in peers:
        if not peer.online:
            continue
        online.append(peer.node)
        outgoing[peer.node] = peer.neighbors.outgoing.as_tuple()
        incoming[peer.node] = peer.neighbors.incoming.as_tuple()
    online.sort()
    return OverlayView(tuple(online), outgoing, incoming)


# ----------------------------------------------------------------------
# Snapshots
# ----------------------------------------------------------------------
@dataclass(frozen=True, slots=True)
class TopologySnapshot:
    """Derived overlay statistics at one simulated instant."""

    time: float
    n_online: int
    n_edges: int
    mean_out_degree: float
    out_degree_distribution: dict[int, int]
    in_degree_distribution: dict[int, int]
    in_degree_gini: float
    in_degree_top5_share: float
    consistency_ratio: float
    churn: float
    reachability: float
    benefit: dict[str, float]

    def to_jsonable(self) -> dict[str, Any]:
        """JSON-ready dict (degree-distribution keys become strings)."""
        out = asdict(self)
        out["out_degree_distribution"] = {
            str(k): v for k, v in self.out_degree_distribution.items()
        }
        out["in_degree_distribution"] = {
            str(k): v for k, v in self.in_degree_distribution.items()
        }
        return out


def _nearest_rank(sorted_vals: list[float], q: float) -> float:
    """Nearest-rank percentile of an ascending-sorted non-empty sample."""
    rank = max(1, math.ceil(q * len(sorted_vals)))
    return sorted_vals[min(rank, len(sorted_vals)) - 1]


def _benefit_summary(
    ledgers: Sequence[StatsTable | None], online: Sequence[NodeId]
) -> dict[str, float]:
    """Distribution summary of all accumulated benefit scores.

    Walks every online peer's :class:`~repro.core.statistics.StatsTable`
    (``known_nodes()`` is id-ordered, so the collection is deterministic);
    ``ledgers`` is the engine's ``arrays.stats`` column, ``None`` where a
    peer was never credited.
    """
    values: list[float] = []
    for node in online:
        stats = ledgers[node]
        if stats is not None:
            values.extend(stats.benefit_of(n) for n in stats.known_nodes())
    if not values:
        return {"count": 0.0, "mean": 0.0, "max": 0.0, "p50": 0.0, "p90": 0.0}
    values.sort()
    return {
        "count": float(len(values)),
        "mean": sum(values) / len(values),
        "max": values[-1],
        "p50": _nearest_rank(values, 0.50),
        "p90": _nearest_rank(values, 0.90),
    }


def snapshot_overlay(
    view: OverlayView,
    time: float,
    *,
    ttl: int,
    prev: Mapping[NodeId, Sequence[NodeId]] | None = None,
    benefit: dict[str, float] | None = None,
    reachability_sources: int | None = DEFAULT_REACHABILITY_SOURCES,
) -> TopologySnapshot:
    """Derive a :class:`TopologySnapshot` from one :class:`OverlayView`.

    ``prev`` is the previous snapshot's outgoing mapping (churn is 0.0 for
    the first snapshot); ``benefit`` is an optional pre-computed benefit
    summary (engines without statistics tables pass ``None``).
    """
    out_deg = view.out_degrees()
    in_deg = view.in_degrees()
    n = view.n_online
    return TopologySnapshot(
        time=time,
        n_online=n,
        n_edges=view.n_edges,
        mean_out_degree=(sum(out_deg) / n) if n else 0.0,
        out_degree_distribution=degree_distribution(out_deg),
        in_degree_distribution=degree_distribution(in_deg),
        in_degree_gini=gini([float(d) for d in in_deg]),
        in_degree_top5_share=top_k_share([float(d) for d in in_deg], 5),
        consistency_ratio=symmetric_consistency_ratio(view.outgoing, view.incoming),
        churn=0.0 if prev is None else neighbor_churn(prev, view.outgoing),
        reachability=mean_reachability(
            view.outgoing, ttl, max_sources=reachability_sources
        ),
        benefit=benefit
        if benefit is not None
        else {"count": 0.0, "mean": 0.0, "max": 0.0, "p50": 0.0, "p90": 0.0},
    )


class TopologySnapshotter:
    """Periodic overlay snapshots over a running Gnutella engine.

    Attach before ``run()`` (like the probes); every ``interval`` simulated
    seconds it walks the peer population once and appends a
    :class:`TopologySnapshot`.  With a :class:`~repro.obs.registry.
    MetricsRegistry`, the churn / consistency / reachability / in-degree-Gini
    series join the run's unified metrics snapshot under ``topology.*``.

    Digest-neutrality: ``_fire`` is marked with :func:`repro.sim.events.
    mark_observer`, so the sanitizer's event-stream hash skips it — a
    snapshotted run's digest equals a plain run's.
    """

    def __init__(
        self,
        engine: Any,
        interval: float,
        registry: "MetricsRegistry | None" = None,
        *,
        reachability_sources: int | None = DEFAULT_REACHABILITY_SOURCES,
    ) -> None:
        if interval <= 0:
            raise ConfigurationError("snapshot interval must be positive")
        if getattr(engine, "_ran", False):
            raise ConfigurationError("attach the snapshotter before running the engine")
        self.engine = engine
        self.interval = float(interval)
        self.ttl = int(engine.config.max_hops)
        self.reachability_sources = reachability_sources
        self.snapshots: list[TopologySnapshot] = []
        self._prev_outgoing: dict[NodeId, tuple[NodeId, ...]] | None = None
        self.churn_series = TimeSeries("topology.churn")
        self.consistency_series = TimeSeries("topology.consistency")
        self.reachability_series = TimeSeries("topology.reachability")
        self.gini_series = TimeSeries("topology.in_degree_gini")
        if registry is not None:
            registry.register("topology.churn", self.churn_series)
            registry.register("topology.consistency", self.consistency_series)
            registry.register("topology.reachability", self.reachability_series)
            registry.register("topology.in_degree_gini", self.gini_series)
        engine.sim.schedule(interval, self._fire)

    @mark_observer
    def _fire(self) -> None:
        now = self.engine.sim.now
        view = walk_overlay(self.engine.peers)
        snap = snapshot_overlay(
            view,
            now,
            ttl=self.ttl,
            prev=self._prev_outgoing,
            benefit=_benefit_summary(self.engine.arrays.stats, view.online),
            reachability_sources=self.reachability_sources,
        )
        self.snapshots.append(snap)
        self._prev_outgoing = view.outgoing
        self.churn_series.record(now, snap.churn)
        self.consistency_series.record(now, snap.consistency_ratio)
        self.reachability_series.record(now, snap.reachability)
        self.gini_series.record(now, snap.in_degree_gini)
        if now + self.interval < self.engine.config.horizon:
            self.engine.sim.schedule(self.interval, self._fire)

    def to_jsonable(self) -> list[dict[str, Any]]:
        """All snapshots, JSON-ready, in time order."""
        return [snap.to_jsonable() for snap in self.snapshots]

    def write_jsonl(self, path: str | Path) -> None:
        """Write one JSON object per snapshot (valid-prefix-friendly JSONL)."""
        target = Path(path)
        with target.open("w", encoding="utf-8") as fh:
            for snap in self.snapshots:
                fh.write(json.dumps(snap.to_jsonable(), sort_keys=True))
                fh.write("\n")
