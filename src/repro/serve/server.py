"""The asyncio query-serving front end over a live Gnutella engine.

:class:`QueryServer` owns one :class:`~repro.gnutella.fast.FastGnutellaEngine`
whose world (churn + reconfiguration) advances on a
:class:`~repro.serve.pacer.SimTimePacer`, and serves concurrent client
queries over the newline-JSON TCP protocol of :mod:`repro.serve.protocol`.

Design constraints, in order:

* **The engine is not thread- or task-reentrant.** The flood fast path
  reuses per-search buffers and the kernel forbids re-entrant ``run``.
  All engine access — advancement and query execution — therefore flows
  through one worker task draining one bounded admission queue. Query
  execution is microseconds (an in-process BFS), so a single worker
  sustains tens of thousands of queries per second; the admission queue
  is where concurrent clients wait.
* **One hop per request.** Each connection is an :class:`asyncio.Protocol`:
  the event loop hands it bytes, it splits lines and admits requests in
  the same callback, and the worker writes replies straight to the
  transport. The admission queue -> worker hand-off is the only task
  switch a request makes. Backpressure is per connection: a client whose
  replies pile up past the transport's high-water mark is not read from
  until they drain.
* **Serving must be digest-neutral.** Served queries go through
  :meth:`~repro.gnutella.fast.FastGnutellaEngine.serve_query`, which draws
  no RNG, schedules no kernel events, and mutates no simulation state; the
  world advances via :meth:`~repro.gnutella.fast.FastGnutellaEngine.advance`,
  and incremental advancement executes the exact same kernel events as one
  uninterrupted run. A server-driven run's event-stream digest is therefore
  bit-identical to ``run_simulation`` of the same config
  (``tests/serve/test_digest_neutral.py``).
* **Overload fails fast.** A full admission queue answers a typed
  ``overload`` error immediately — clients never hang on an unbounded
  backlog. Each request carries a deadline; requests that age out while
  queued are answered with ``timeout`` instead of being executed late.
* **Disconnects cancel.** Requests from a connection that has gone away
  are dropped at dequeue time (counted, never executed).
* **Shutdown drains.** :meth:`shutdown` stops admitting, lets queued
  requests finish and their replies flush (bounded by ``drain_timeout_s``),
  then closes.
"""

from __future__ import annotations

import asyncio
from dataclasses import dataclass, field
from typing import Any

from repro.gnutella.config import GnutellaConfig
from repro.gnutella.fast import FastGnutellaEngine
from repro.gnutella.simulation import build_engine
from repro.obs.registry import MetricsRegistry
from repro.obs.telemetry.accesslog import AccessLogger
from repro.obs.telemetry.exposition import CONTENT_TYPE, render_prometheus
from repro.obs.telemetry.rolling import DEFAULT_WINDOWS, RollingTelemetry
from repro.obs.trace import PID_SERVE
from repro.serve.pacer import SimTimePacer
from repro.serve.protocol import (
    ERR_BAD_REQUEST,
    ERR_INTERNAL,
    ERR_NODE_OFFLINE,
    ERR_OVERLOAD,
    ERR_SHUTTING_DOWN,
    ERR_TIMEOUT,
    LineSplitter,
    ProtocolError,
    Request,
    encode_line,
    error_response,
    parse_request,
)
from repro.types import NodeId

__all__ = ["QueryServer", "ServeConfig"]

#: Histogram buckets tuned for in-process serving latency (seconds).
LATENCY_BUCKETS: tuple[float, ...] = (
    0.0001,
    0.00025,
    0.0005,
    0.001,
    0.0025,
    0.005,
    0.01,
    0.025,
    0.05,
    0.1,
    0.25,
    0.5,
    1.0,
    2.5,
)


@dataclass(frozen=True, slots=True)
class ServeConfig:
    """Front-end knobs, independent of the simulated world's config."""

    host: str = "127.0.0.1"
    #: 0 asks the OS for an ephemeral port; :meth:`QueryServer.start`
    #: returns the bound address either way.
    port: int = 0
    #: Admission-queue capacity; one more request answers ``overload``.
    max_queue: int = 256
    #: Deadline applied when a query names no ``timeout_ms`` of its own.
    default_timeout_ms: float = 1000.0
    #: Simulated seconds per wall second (0 freezes churn entirely).
    time_rate: float = 600.0
    #: Simulated seconds to advance before accepting the first query, so
    #: clients face a churned-in overlay rather than a cold start.
    warmup_sim_s: float = 2 * 3600.0
    #: Wall seconds between background world-advancement ticks.
    pacer_interval_s: float = 0.05
    #: Wall seconds :meth:`QueryServer.shutdown` waits for queued requests
    #: and for the replies already written to reach their clients.
    drain_timeout_s: float = 5.0
    #: Rolling telemetry horizons in wall seconds (10s/1m/5m by default).
    rolling_windows: tuple[float, ...] = DEFAULT_WINDOWS
    #: Latency objective: an ok reply slower than this burns error budget.
    slo_latency_ms: float = 100.0
    #: Tolerated bad fraction; burn rate 1.0 spends budget exactly at accrual.
    slo_error_budget: float = 0.01
    #: Structured access-log path (``None`` disables logging entirely).
    access_log: str | None = None
    #: Deterministic hash-based sampling rate for access-log lines.
    access_log_sample: float = 1.0


class _Connection(asyncio.Protocol):
    """One client connection: line framing in, guarded writes out.

    ``alive`` turns false the moment the client is gone — end of stream,
    an over-long line, a lost transport — so the worker cancels whatever
    the connection still has queued.
    """

    __slots__ = ("server", "transport", "alive", "_lines")

    transport: asyncio.Transport

    def __init__(self, server: QueryServer) -> None:
        self.server = server
        self.alive = True
        self._lines = LineSplitter()

    def connection_made(self, transport: asyncio.BaseTransport) -> None:
        assert isinstance(transport, asyncio.Transport)
        self.transport = transport
        state = self.server._state
        if state is None:
            self._close()
            return
        state.connections.add(self)

    def data_received(self, data: bytes) -> None:
        dispatch = self.server._dispatch
        for line in self._lines.feed(data):
            if line.strip():
                dispatch(self, line)
        if self._lines.overflowed:
            self._close()

    def eof_received(self) -> None:
        # An unterminated last line still counts; returning None then
        # closes the transport once the replies written so far are out.
        line = self._lines.remainder()
        if line.strip():
            self.server._dispatch(self, line)
        self.alive = False

    def connection_lost(self, exc: Exception | None) -> None:
        self.alive = False
        state = self.server._state
        if state is not None:
            state.connections.discard(self)

    def pause_writing(self) -> None:
        self.transport.pause_reading()

    def resume_writing(self) -> None:
        self.transport.resume_reading()

    def send(self, payload: dict[str, Any]) -> None:
        """Best-effort line write; a dead connection swallows silently."""
        if not self.alive or self.transport.is_closing():
            self.alive = False
            return
        try:
            self.transport.write(encode_line(payload))
        except (ConnectionError, RuntimeError):
            self.alive = False

    def _close(self) -> None:
        self.alive = False
        self.transport.close()


@dataclass(slots=True)
class _Pending:
    """One admitted query waiting in the admission queue."""

    conn: _Connection
    request: Request
    #: Absolute event-loop deadline (``loop.time()`` seconds).
    deadline: float
    enqueued_at: float
    #: Server-assigned admission id; the access log and ``done`` line carry it.
    trace_id: str


@dataclass(slots=True)
class _ServeCounts:
    """Plain counters mirrored into the metrics registry (report-friendly)."""

    #: Queries accepted into the admission queue (includes ones still queued).
    admitted: int = 0
    ok: int = 0
    overload: int = 0
    timeout: int = 0
    node_offline: int = 0
    cancelled: int = 0
    bad_request: int = 0
    shutting_down: int = 0
    internal: int = 0

    def as_dict(self) -> dict[str, int]:
        return {
            "admitted": self.admitted,
            "ok": self.ok,
            "overload": self.overload,
            "timeout": self.timeout,
            "node_offline": self.node_offline,
            "cancelled": self.cancelled,
            "bad_request": self.bad_request,
            "shutting_down": self.shutting_down,
            "internal": self.internal,
        }


@dataclass(slots=True)
class _ServerState:
    """Mutable runtime attached after :meth:`QueryServer.start`."""

    queue: asyncio.Queue[_Pending]
    worker: asyncio.Task[None]
    server: asyncio.Server
    pacer_task: asyncio.Task[None] | None
    connections: set[_Connection] = field(default_factory=set)


class QueryServer:
    """Serve live queries over a running engine. See the module docstring."""

    def __init__(
        self,
        config: GnutellaConfig,
        serve: ServeConfig | None = None,
        *,
        engine: str = "fast",
        tracer: Any = None,
        registry: MetricsRegistry | None = None,
    ) -> None:
        if engine not in ("fast", "fast-reference"):
            raise ValueError(
                f"serving requires an atomic-query engine (fast/fast-reference), got {engine!r}"
            )
        self.config = config
        self.serve = serve if serve is not None else ServeConfig()
        built = build_engine(config, engine)
        assert isinstance(built, FastGnutellaEngine)
        self.engine: FastGnutellaEngine = built
        self.tracer = tracer
        if tracer is not None:
            self.engine.attach_tracer(tracer)
        self.registry = registry if registry is not None else MetricsRegistry()
        self._requests = self.registry.counter("serve.requests")
        self._latency = self.registry.histogram(
            "serve.latency_seconds", bounds=LATENCY_BUCKETS
        )
        self._queue_depth = self.registry.gauge("serve.queue_depth")
        self.rolling = RollingTelemetry(
            self.serve.rolling_windows,
            slo_latency_s=self.serve.slo_latency_ms / 1000.0,
            slo_error_budget=self.serve.slo_error_budget,
        )
        self.access_log: AccessLogger | None = None
        self._admit_seq = 0
        self.counts = _ServeCounts()
        self.pacer = SimTimePacer(self.serve.time_rate)
        self._state: _ServerState | None = None
        self._draining = False
        #: Worker gate: tests clear it to hold the admission queue still
        #: (making overload and drain deterministic), then set it again.
        self.processing = asyncio.Event()
        self.processing.set()
        self._rr_next = 0

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    async def start(self) -> tuple[str, int]:
        """Warm up the world, start the worker + pacer, bind the socket.

        Returns the bound ``(host, port)``.
        """
        if self._state is not None:
            raise RuntimeError("server already started")
        if self.serve.access_log is not None and self.access_log is None:
            self.access_log = AccessLogger(
                self.serve.access_log, sample=self.serve.access_log_sample
            )
        self.engine.start()
        self.engine.advance(self.serve.warmup_sim_s)
        self.pacer.start(self.engine.sim.now)
        queue: asyncio.Queue[_Pending] = asyncio.Queue(maxsize=self.serve.max_queue)
        worker = asyncio.create_task(self._worker_loop(queue), name="serve-worker")
        pacer_task: asyncio.Task[None] | None = None
        if self.serve.time_rate > 0:
            pacer_task = asyncio.create_task(self._pacer_loop(), name="serve-pacer")
        server = await asyncio.get_running_loop().create_server(
            lambda: _Connection(self), host=self.serve.host, port=self.serve.port
        )
        self._state = _ServerState(
            queue=queue, worker=worker, server=server, pacer_task=pacer_task
        )
        sock = server.sockets[0]
        host, port = sock.getsockname()[:2]
        return str(host), int(port)

    async def shutdown(self) -> None:
        """Graceful drain: stop admitting, finish queued work, close.

        ``drain_timeout_s`` bounds the whole drain: the queued work, then the
        flush of replies already written. A connection still holding unsent
        bytes after that is aborted. The listener is awaited last: from
        Python 3.12.1 ``Server.wait_closed`` waits for every accepted
        connection, so it returns only once all of them are closed.
        """
        state = self._state
        if state is None:
            return
        self._draining = True
        loop = asyncio.get_running_loop()
        deadline = loop.time() + self.serve.drain_timeout_s
        state.server.close()
        if state.pacer_task is not None:
            state.pacer_task.cancel()
            try:
                await state.pacer_task
            except asyncio.CancelledError:
                pass
        try:
            await asyncio.wait_for(state.queue.join(), timeout=deadline - loop.time())
        except asyncio.TimeoutError:
            pass
        state.worker.cancel()
        try:
            await state.worker
        except asyncio.CancelledError:
            pass
        for conn in list(state.connections):
            conn._close()
        while state.connections and loop.time() < deadline:
            await asyncio.sleep(0.01)
        for conn in list(state.connections):
            conn.transport.abort()
        await state.server.wait_closed()
        # The worker only refreshes the gauge on dequeue; after a drain (or a
        # drain timeout that leaves requests queued) report the true depth.
        self._queue_depth.set(state.queue.qsize())
        if self.access_log is not None:
            self.access_log.close()
            self.access_log = None
        self._state = None

    async def serve_forever(self) -> None:
        """Block until cancelled; used by the ``repro-serve`` CLI."""
        state = self._state
        if state is None:
            raise RuntimeError("serve_forever() requires start()")
        await state.server.serve_forever()

    @property
    def queue_depth(self) -> int:
        state = self._state
        return state.queue.qsize() if state is not None else 0

    # ------------------------------------------------------------------
    # World advancement
    # ------------------------------------------------------------------
    def _advance_world(self) -> None:
        """Catch the simulation up to the pacer's current target."""
        if self.pacer.started:
            self.engine.advance(self.pacer.target())

    async def _pacer_loop(self) -> None:
        """Background tick so churn proceeds even with no traffic."""
        while True:
            await asyncio.sleep(self.serve.pacer_interval_s)
            self._advance_world()

    # ------------------------------------------------------------------
    # Request dispatch (called from _Connection.data_received)
    # ------------------------------------------------------------------
    def _dispatch(self, conn: _Connection, line: bytes) -> None:
        try:
            request = parse_request(line)
        except ProtocolError as exc:
            self.counts.bad_request += 1
            self._requests.inc(status=ERR_BAD_REQUEST)
            conn.send(error_response(exc.req_id, ERR_BAD_REQUEST, str(exc)))
            return
        if request.op == "ping":
            conn.send(
                {"id": request.req_id, "type": "pong", "sim_time": self.engine.sim.now}
            )
            return
        if request.op == "info":
            conn.send(self._info_response(request.req_id))
            return
        if request.op == "stats":
            now = asyncio.get_running_loop().time()
            self._refresh_telemetry(now)
            conn.send(
                {
                    "id": request.req_id,
                    "type": "stats",
                    "counts": self.counts.as_dict(),
                    "queue_depth": self.queue_depth,
                    "rolling": self.rolling.as_dict(now),
                    "metrics": self.registry.snapshot(),
                }
            )
            return
        if request.op == "metrics":
            self._refresh_telemetry(asyncio.get_running_loop().time())
            conn.send(
                {
                    "id": request.req_id,
                    "type": "metrics",
                    "content_type": CONTENT_TYPE,
                    "text": render_prometheus(self.registry.snapshot()),
                }
            )
            return
        self._admit_query(conn, request)

    def _refresh_telemetry(self, now: float) -> None:
        """Bring the scrape-time gauges (rolling windows, depth) up to date."""
        self.rolling.publish(self.registry, now)
        self._queue_depth.set(self.queue_depth)

    def _info_response(self, req_id: Any) -> dict[str, Any]:
        cfg = self.config
        return {
            "id": req_id,
            "type": "info",
            "n_users": cfg.n_users,
            "n_items": cfg.n_items,
            "n_categories": cfg.n_categories,
            "zipf_theta": cfg.zipf_theta,
            "max_hops": cfg.max_hops,
            "online": self.engine.online_count(),
            "sim_time": self.engine.sim.now,
            "horizon": cfg.horizon,
            "time_rate": self.serve.time_rate,
            "draining": self._draining,
        }

    def _admit_query(self, conn: _Connection, request: Request) -> None:
        state = self._state
        if state is None or self._draining:
            self.counts.shutting_down += 1
            self._requests.inc(status=ERR_SHUTTING_DOWN)
            conn.send(
                error_response(
                    request.req_id, ERR_SHUTTING_DOWN, "server is draining"
                )
            )
            return
        if request.item is not None and request.item >= self.config.n_items:
            self.counts.bad_request += 1
            self._requests.inc(status=ERR_BAD_REQUEST)
            conn.send(
                error_response(
                    request.req_id,
                    ERR_BAD_REQUEST,
                    f"item {request.item} out of range [0, {self.config.n_items})",
                )
            )
            return
        loop = asyncio.get_running_loop()
        timeout_ms = (
            request.timeout_ms
            if request.timeout_ms is not None
            else self.serve.default_timeout_ms
        )
        self._admit_seq += 1
        pending = _Pending(
            conn=conn,
            request=request,
            deadline=loop.time() + timeout_ms / 1000.0,
            enqueued_at=loop.time(),
            trace_id=f"t-{self._admit_seq:08x}",
        )
        try:
            state.queue.put_nowait(pending)
        except asyncio.QueueFull:
            self.counts.overload += 1
            self._requests.inc(status=ERR_OVERLOAD)
            conn.send(
                error_response(
                    request.req_id,
                    ERR_OVERLOAD,
                    f"admission queue full ({self.serve.max_queue}); retry later",
                )
            )
            return
        self.counts.admitted += 1
        self._queue_depth.set(state.queue.qsize())

    # ------------------------------------------------------------------
    # The single engine worker
    # ------------------------------------------------------------------
    async def _worker_loop(self, queue: asyncio.Queue[_Pending]) -> None:
        while True:
            pending = await queue.get()
            try:
                await self.processing.wait()
                self._execute(pending)
            except Exception as exc:  # keep serving after a bad request
                self.counts.internal += 1
                self._requests.inc(status=ERR_INTERNAL)
                pending.conn.send(
                    error_response(pending.request.req_id, ERR_INTERNAL, repr(exc))
                )
            finally:
                queue.task_done()
                self._queue_depth.set(queue.qsize())

    def _finish(
        self,
        pending: _Pending,
        outcome: str,
        *,
        dequeued: float,
        finished: float,
        node: int | None = None,
        ok: bool | None = None,
    ) -> None:
        """Terminal bookkeeping shared by every outcome of one admission.

        Feeds the rolling windows with the *end-to-end* latency (queue wait
        plus service — what the client experienced) unless ``ok`` is ``None``
        (a cancelled request has no user-visible outcome to judge; the
        latency objective itself is applied inside the windows), and writes
        the sampled access-log line. Pure observation: no engine state is
        touched.
        """
        if ok is not None:
            self.rolling.observe(finished, finished - pending.enqueued_at, ok=ok)
        if self.access_log is not None:
            request = pending.request
            self.access_log.log(
                {
                    "trace_id": pending.trace_id,
                    "op": request.op,
                    "initiator": node,
                    "item": request.item,
                    "deadline_s": pending.deadline - pending.enqueued_at,
                    "queue_wait_s": dequeued - pending.enqueued_at,
                    "service_s": finished - dequeued,
                    "outcome": outcome,
                }
            )

    def _execute(self, pending: _Pending) -> None:
        conn, request = pending.conn, pending.request
        loop = asyncio.get_running_loop()
        started = loop.time()
        if not conn.alive:
            # Client went away while the request queued: cancel, don't run.
            self.counts.cancelled += 1
            self._requests.inc(status="cancelled")
            self._finish(pending, "cancelled", dequeued=started, finished=started)
            return
        if started > pending.deadline:
            self.counts.timeout += 1
            self._requests.inc(status=ERR_TIMEOUT)
            conn.send(
                error_response(
                    request.req_id, ERR_TIMEOUT, "deadline expired while queued"
                )
            )
            self._finish(
                pending, ERR_TIMEOUT, dequeued=started, finished=started, ok=False
            )
            return
        self._advance_world()
        node = self._pick_initiator(request.node)
        if node is None:
            self.counts.node_offline += 1
            self._requests.inc(status=ERR_NODE_OFFLINE)
            message = (
                f"node {request.node} is offline"
                if request.node is not None
                else "no peers online"
            )
            conn.send(error_response(request.req_id, ERR_NODE_OFFLINE, message))
            self._finish(
                pending,
                ERR_NODE_OFFLINE,
                dequeued=started,
                finished=loop.time(),
                ok=False,
            )
            return
        assert request.item is not None
        outcome = self.engine.serve_query(node, request.item)
        ranked = sorted(outcome.results, key=lambda r: r.delay)
        for rank, result in enumerate(ranked):
            conn.send(
                {
                    "id": request.req_id,
                    "type": "result",
                    "rank": rank,
                    "responder": int(result.responder),
                    "hops": result.hops,
                    "delay_ms": result.delay * 1e3,
                }
            )
        finished = loop.time()
        latency = finished - started
        conn.send(
            {
                "id": request.req_id,
                "type": "done",
                "status": "ok",
                "node": int(node),
                "item": request.item,
                "results": len(ranked),
                "messages": outcome.messages,
                "nodes_contacted": outcome.nodes_contacted,
                "sim_time": self.engine.sim.now,
                "queue_ms": (started - pending.enqueued_at) * 1e3,
                "latency_ms": latency * 1e3,
                "trace_id": pending.trace_id,
            }
        )
        self.counts.ok += 1
        self._requests.inc(status="ok")
        self._latency.observe(latency)
        self._finish(
            pending, "ok", dequeued=started, finished=finished, node=int(node), ok=True
        )
        if self.tracer is not None and self.tracer.enabled:
            # The span sits at the simulated instant the query executed;
            # its duration is the measured *wall* processing time (the
            # one wall quantity in an otherwise simulated-time trace).
            self.tracer.complete(
                "serve",
                "serve",
                self.engine.sim.now,
                latency,
                pid=PID_SERVE,
                tid=int(node),
                args={
                    "item": request.item,
                    "results": len(ranked),
                    "messages": outcome.messages,
                    "queue_ms": (started - pending.enqueued_at) * 1e3,
                },
            )

    def _pick_initiator(self, requested: int | None) -> NodeId | None:
        """The query's initiating peer: the client's choice, or round-robin.

        Explicit nodes must be online (``None`` otherwise). Auto-selection
        scans the peer table round-robin for an online peer, spreading
        serve load across the population the way real users would.
        """
        online = self.engine.arrays.online
        if requested is not None:
            if requested < len(online) and online[requested]:
                return NodeId(requested)
            return None
        n = len(online)
        for offset in range(n):
            idx = (self._rr_next + offset) % n
            if online[idx]:
                self._rr_next = idx + 1
                return NodeId(idx)
        return None
