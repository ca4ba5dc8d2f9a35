"""The counterfactual the paper argues against: asymmetric music sharing.

Section 4.1 justifies symmetric relations qualitatively: "Asymmetric
relations cannot achieve such a balance; e.g., it is possible that a node
with numerous songs will be the outgoing neighbor of many other nodes (that
consume its resources), while it does not get any benefit from sharing with
them." This module implements that counterfactual — a *pure asymmetric*
dynamic Gnutella where every node rewires its outgoing list unilaterally
(no invitations, unbounded incoming lists) — so the claim can be measured
rather than assumed.

What to expect (asserted in ``tests/experiments/test_ablations.py``):
comparable or better hit rates (no slot contention: everyone can point at
the best suppliers), but a sharply
skewed *service load* — the well-stocked nodes serve a hugely
disproportionate share of results while receiving nothing in return, which
is exactly the free-riding imbalance the paper designs the symmetric
handshake to prevent.
"""

from __future__ import annotations

import math

import numpy as np

from repro.core.update import plan_reconfiguration
from repro.gnutella.fast import FastGnutellaEngine
from repro.gnutella.protocol import GnutellaProtocol
from repro.obs.trace import PID_PROTOCOL
from repro.types import NodeId

__all__ = ["AsymmetricFastEngine", "AsymmetricProtocol", "service_gini"]


def service_gini(served_counts: np.ndarray) -> float:
    """Gini coefficient of per-node service load (0 = equal, ->1 = one node
    serves everything)."""
    counts = np.sort(np.asarray(served_counts, dtype=float))
    total = counts.sum()
    if total == 0 or counts.size < 2:
        return 0.0
    n = counts.size
    cum = np.cumsum(counts)
    # Standard formula: G = (n + 1 - 2 * sum(cum)/total) / n
    return float((n + 1 - 2 * (cum.sum() / total)) / n)


class AsymmetricProtocol(GnutellaProtocol):
    """Directed link management: unilateral rewiring, no handshake.

    Outgoing capacity stays at ``slots``; incoming lists are unbounded (the
    *pure asymmetric* case of Section 3.1, where the network is consistent
    by construction no matter who rewires when).
    """

    in_capacity = math.inf

    # ------------------------------------------------------------------
    # Directed link primitives
    # ------------------------------------------------------------------
    def link(self, a: NodeId, b: NodeId) -> None:
        """Directed edge ``a -> b``: a forwards queries to b."""
        if a == b:
            from repro.errors import FrameworkError

            raise FrameworkError(f"peer {a} cannot neighbor itself")
        self.arrays.out.add(a, b)
        self.arrays.incoming[b].add(a)

    def unlink(self, a: NodeId, b: NodeId) -> None:
        """Remove the directed edge ``a -> b``."""
        self.arrays.out.remove(a, b)
        self.arrays.incoming[b].remove(a)

    def evict(self, evictor: NodeId, evicted: NodeId) -> None:
        """Drop ``evictor -> evicted``; unilateral, no stats reset needed at
        the other side (it never pointed back)."""
        self.unlink(evictor, evicted)
        self.metrics.evictions += 1
        if self.tracer.enabled:
            self.tracer.instant(
                "evict",
                "protocol",
                self.now(),
                pid=PID_PROTOCOL,
                tid=int(evictor),
                args={"evicted": int(evicted)},
            )
        if self.on_eviction is not None:
            self.on_eviction(evicted)

    # ------------------------------------------------------------------
    # Algo 3 (asymmetric update) instead of Algo 5
    # ------------------------------------------------------------------
    def reconfigure(
        self,
        node: NodeId,
        max_swaps: int | None = 1,
        swap_margin: float = 0.0,
        stats_decay: float = 1.0,
    ) -> int:
        """One Algo 3 update: point the outgoing list at the best suppliers.

        No invitations, no acceptance, no counter damping at the target —
        the target never even learns it gained a consumer.
        """
        arrays = self.arrays
        out = arrays.out
        stats = arrays.stats_or_empty(node)
        current = out.row_tuple(node)
        desired = plan_reconfiguration(
            current,
            stats,
            self.slots,
            exclude=(node,),
            eligible=self._is_online,
        )
        current_set = set(current)
        desired_set = set(desired)
        additions = [n for n in desired if n not in current_set]
        removals = sorted(
            (n for n in current if n not in desired_set),
            key=lambda n: (stats.benefit_of(n), n),
        )
        if max_swaps is not None:
            additions = additions[:max_swaps]
        adopted = 0
        removal_iter = iter(removals)
        for target in additions:
            if out.deg[node] >= out.slots:
                victim = next(removal_iter, None)
                if victim is None:
                    break
                challenger = stats.benefit_of(target)
                incumbent = stats.benefit_of(victim)
                if challenger <= (1.0 + swap_margin) * incumbent:
                    break
                self.evict(node, victim)
            self.link(node, target)
            adopted += 1
        arrays.requests_since_update[node] = 0
        self._note_reconfiguration(node, adopted, len(additions))
        if stats_decay == 0.0:
            stats.clear()
        elif stats_decay < 1.0:
            stats.decay(stats_decay)
        return adopted

    # ------------------------------------------------------------------
    # Random acquisition and churn, directed
    # ------------------------------------------------------------------
    def fill_random(self, node: NodeId, rng: np.random.Generator) -> int:
        """Fill free outgoing slots with random online peers.

        No partner-capacity check: incoming lists are unbounded, so any
        online candidate accepts — the defining property of the pure
        asymmetric case.
        """
        out = self.arrays.out
        formed = 0
        exclude = [node, *out.row(node)]
        candidates = self.bootstrap.sample(rng, out.slots - out.deg[node], exclude=exclude)
        for candidate in candidates:
            if out.deg[node] >= out.slots:
                break
            if self._is_online(candidate):
                self.link(node, candidate)
                formed += 1
        return formed

    def sever_all(self, node: NodeId) -> list[NodeId]:
        """Log-off: drop both directions; return the *consumers* (peers that
        pointed at this node) — they lost an outgoing neighbor and react."""
        for supplier in self.arrays.out.row(node):
            self.unlink(node, supplier)
        consumers = list(self.arrays.incoming[node].as_tuple())
        for consumer in consumers:
            self.unlink(consumer, node)
        return consumers


class AsymmetricFastEngine(FastGnutellaEngine):
    """The fast engine over directed relations, plus service-load tracking."""

    protocol_class = AsymmetricProtocol

    def __init__(self, config) -> None:
        super().__init__(config)
        #: Results served per node (the load-imbalance measurement).
        self.served = np.zeros(config.n_users, dtype=np.int64)

    def _record_benefit(self, node: NodeId, outcome) -> None:
        # Service-load tracking rides the benefit hook, so it covers the
        # dynamic scheme — which is where the imbalance claim lives (the
        # static scheme never reconfigures toward suppliers at all).
        for result in outcome.results:
            self.served[result.responder] += 1
        super()._record_benefit(node, outcome)

    def service_gini(self) -> float:
        """Gini coefficient of results served per node."""
        return service_gini(self.served)

    def incoming_degree_max(self) -> int:
        """Largest incoming list — how many consumers the most popular
        supplier carries."""
        return max(len(row) for row in self.arrays.incoming)
