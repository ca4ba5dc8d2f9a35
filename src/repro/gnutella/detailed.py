"""The detailed Gnutella engine: message-level query propagation.

Every query copy and every reply is an individually scheduled message on the
:mod:`repro.sim` kernel, delivered through :class:`repro.net.Transport` after
the pair's link delay. Replies route back hop-by-hop along the reverse
discovery path (the Gnutella convention), and the initiator collects results
until a time-out (Section 4.1: the initiator "sends the query to its
neighbors and waits for the results until a time-out period is reached").

Relative to the fast engine this changes exactly one thing: *which* copy of a
query reaches a node first is decided by actual arrival times rather than hop
count, and results can be lost to churn races (a relay logging off while a
reply is in flight). Control traffic (invitations/evictions) remains
instantaneous — it is the paper's query measurements that the timing detail
can affect, and the cross-engine tests quantify how little it does.

Use this engine for validation at small scale; it is O(messages) in kernel
events and roughly an order of magnitude slower than the fast engine.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

from repro.gnutella.config import GnutellaConfig
from repro.gnutella.fast import FastGnutellaEngine
from repro.net.message import Message, MessageKind
from repro.net.transport import Transport
from repro.obs.trace import PID_QUERY
from repro.types import ItemId, NodeId

__all__ = ["DetailedGnutellaEngine"]


@dataclass(slots=True)
class _PendingQuery:
    """Initiator-side bookkeeping for one in-flight query."""

    initiator: NodeId
    item: ItemId
    issued_at: float
    epoch: int
    messages: int = 0
    #: (responder, arrival_delay, hops) triples, in arrival order.
    results: list[tuple[NodeId, float, int]] = field(default_factory=list)
    collected: bool = False


class DetailedGnutellaEngine(FastGnutellaEngine):
    """Message-level variant; shares construction and control plane with
    :class:`FastGnutellaEngine` and overrides only the query data path."""

    def __init__(self, config: GnutellaConfig) -> None:
        if config.search_strategy != "flood":
            from repro.errors import ConfigurationError

            raise ConfigurationError(
                "the detailed engine implements the paper's flood protocol only; "
                f"got search_strategy={config.search_strategy!r} (use the fast engine)"
            )
        # The message-level data path never touches the flood fast path, and
        # lazy first-touch latency sampling is part of this engine's
        # historical draw order — keep both off.
        super().__init__(config, use_fastpath=False, eager_delay_matrix=False)
        loss_rng = None
        if config.message_loss_rate > 0.0:
            from repro.rng import RngStreams

            loss_rng = RngStreams(config.seed).get("message-loss")
        self.transport = Transport(
            self.sim,
            self.latency,
            query_buckets=None,
            loss_rate=config.message_loss_rate,
            rng=loss_rng,
        )
        #: Engine-local query-id source. Message's default factory is a
        #: *process*-global counter, so its values depend on how many
        #: messages earlier runs in the same process created — harmless for
        #: behaviour (ids are only compared for equality) but it leaks into
        #: the sanitizer's event-stream digest via the ``_collect`` timer
        #: argument. Allocating ids per engine keeps same-config digests
        #: identical no matter which worker process runs the task.
        self._qid_source = itertools.count()
        #: qid -> pending record at the initiator.
        self._pending: dict[int, _PendingQuery] = {}
        #: node -> set of query ids already processed (duplicate suppression;
        #: "each node keeps a list of recent messages").
        self._seen: list[set[int]] = [set() for _ in range(config.n_users)]

    # ------------------------------------------------------------------
    # Lifecycle: register/unregister message handlers with churn
    # ------------------------------------------------------------------
    def _login(self, node: NodeId) -> None:
        self.transport.register(node, self._on_message)
        super()._login(node)

    def _logoff(self, node: NodeId) -> None:
        self.transport.unregister(node)
        self._seen[node].clear()
        super()._logoff(node)

    # ------------------------------------------------------------------
    # Query data path
    # ------------------------------------------------------------------
    def _fire_query(self, node: NodeId, epoch: int) -> None:
        arrays = self.arrays
        if not arrays.online[node] or arrays.query_epoch[node] != epoch:
            return
        item = self.query_model.sample_item(node, self._item_rng)
        record = _PendingQuery(node, item, self.sim.now, epoch)
        neighbors = arrays.out.row(node)
        if neighbors:
            first = Message(
                kind=MessageKind.QUERY,
                sender=node,
                receiver=neighbors[0],
                origin=node,
                query_id=next(self._qid_source),
                hops=1,
                payload=item,
                path=(node, neighbors[0]),
            )
            qid = first.query_id
            self._pending[qid] = record
            self._send_query(first, record)
            for other in neighbors[1:]:
                self._send_query(
                    Message(
                        kind=MessageKind.QUERY,
                        sender=node,
                        receiver=other,
                        origin=node,
                        query_id=qid,
                        hops=1,
                        payload=item,
                        path=(node, other),
                    ),
                    record,
                )
            self.sim.schedule(self.config.query_timeout, self._collect, qid)
        else:
            # Isolated node: the query dies immediately.
            self._finalize(record)
        self._schedule_next_query(node, epoch)

    def _send_query(self, message: Message, record: _PendingQuery) -> None:
        record.messages += 1
        self.metrics.messages.add(self.sim.now)
        self.transport.send(message)

    def _on_message(self, message: Message) -> None:
        if message.kind is MessageKind.QUERY:
            self._on_query(message)
        elif message.kind is MessageKind.QUERY_REPLY:
            self._on_reply(message)

    def _on_query(self, message: Message) -> None:
        node = message.receiver
        qid = message.query_id
        seen = self._seen[node]
        if qid in seen:
            return  # duplicate: delivered (counted) but discarded
        seen.add(qid)
        item: ItemId = message.payload

        if self.tracer.enabled:
            # Unlike the fast engine's schematic hop placement, these are
            # real message arrival times.
            self.tracer.instant(
                f"hop{message.hops}",
                "query",
                self.sim.now,
                pid=PID_QUERY,
                tid=int(node),
                args={"hop": message.hops, "query": qid},
            )
        if self.holders.holds(node, item):
            # Reply to the initiator along the reverse path; do not forward.
            if self.tracer.enabled:
                self.tracer.instant(
                    "hit",
                    "query",
                    self.sim.now,
                    pid=PID_QUERY,
                    tid=int(node),
                    args={"query": qid, "hop": message.hops},
                )
            self._route_reply(message, responder=node)
            return
        if message.hops >= self.config.max_hops:
            return
        record = self._pending.get(qid)
        for neighbor in self.arrays.out.row(node):
            if neighbor == message.sender:
                continue
            forwarded = message.forwarded(node, neighbor)
            if record is not None:
                self._send_query(forwarded, record)
            else:  # pragma: no cover - initiator record always exists
                self.transport.send(forwarded)

    def _route_reply(self, query: Message, responder: NodeId) -> None:
        """Start a reply travelling back along the query's reverse path."""
        path = query.path  # (origin, ..., responder)
        if len(path) < 2:
            return
        reply = Message(
            kind=MessageKind.QUERY_REPLY,
            sender=responder,
            receiver=path[-2],
            origin=query.origin,
            query_id=query.query_id,
            hops=query.hops,
            payload=(responder, query.hops),
            path=path[:-1],
        )
        self.transport.send(reply)

    def _on_reply(self, message: Message) -> None:
        node = message.receiver
        if node == message.origin:
            record = self._pending.get(message.query_id)
            if record is None or record.collected:
                return  # reply arrived after the time-out window
            responder, hops = message.payload
            record.results.append((responder, self.sim.now - record.issued_at, hops))
            if self.tracer.enabled:
                self.tracer.instant(
                    "reply",
                    "query",
                    self.sim.now,
                    pid=PID_QUERY,
                    tid=int(node),
                    args={"query": message.query_id, "responder": int(responder)},
                )
            return
        # Relay one hop closer to the initiator.
        path = message.path
        if len(path) < 2:
            return  # malformed; drop
        self.transport.send(
            Message(
                kind=MessageKind.QUERY_REPLY,
                sender=node,
                receiver=path[-2],
                origin=message.origin,
                query_id=message.query_id,
                hops=message.hops,
                payload=message.payload,
                path=path[:-1],
            )
        )

    # ------------------------------------------------------------------
    # Collection (time-out) and bookkeeping
    # ------------------------------------------------------------------
    def _collect(self, qid: int) -> None:
        record = self._pending.pop(qid, None)
        if record is None or record.collected:
            return
        self._finalize(record)

    def _finalize(self, record: _PendingQuery) -> None:
        record.collected = True
        n_results = len(record.results)
        hit = n_results > 0
        first_delay = min((d for _, d, _ in record.results), default=None)
        if self.tracer.enabled:
            # The span covers issue-to-collection, in real simulated time.
            self.tracer.complete(
                "query",
                "query",
                record.issued_at,
                max(self.sim.now - record.issued_at, 1e-3),
                pid=PID_QUERY,
                tid=int(record.initiator),
                args={
                    "item": int(record.item),
                    "messages": record.messages,
                    "results": n_results,
                    "hit": hit,
                },
            )
        # Query messages were bucketed individually at send time (they carry
        # their own timestamps), so record_query adds none here.
        self.metrics.record_query(
            record.issued_at, hit, 0, n_results, first_delay
        )
        node = record.initiator
        if hit and self.config.downloads_grow_libraries:
            self.holders.add_holder(node, record.item)
        if not self.config.dynamic:
            return
        arrays = self.arrays
        if arrays.online[node] and arrays.query_epoch[node] == record.epoch:
            if n_results:
                add = arrays.stats_for_credit(node).add_benefit
                for responder, _delay, _hops in record.results:
                    add(responder, self.bandwidth.link_kbps(node, responder) / n_results)
            requests = arrays.requests_since_update[node] + 1
            arrays.requests_since_update[node] = requests
            if requests >= self.config.reconfiguration_threshold:
                self.protocol.reconfigure(
                    node,
                    self.config.max_swaps_per_update,
                    self.config.swap_margin,
                    self.config.stats_decay_on_update,
                )
                self.protocol.fill_random(node, self._bootstrap_rng)
