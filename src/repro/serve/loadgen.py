"""Load generation against a live ``repro.serve`` server.

Two modes, the standard pair from serving-benchmark practice:

* **closed loop** — N connections, each issuing its next query the moment
  the previous one finishes. Measures the service's sustainable throughput
  at concurrency N; latency here includes no queueing *by construction*
  beyond what N concurrent requests create.
* **open loop** — queries arrive on a fixed-spacing schedule at a
  configured offered QPS, regardless of completions (up to an in-flight
  cap, beyond which arrivals are counted ``dropped`` rather than silently
  deferred — deferring would turn the open loop back into a closed one and
  hide saturation). Open-loop latency includes real queueing delay, which
  is why it, not the closed loop, exposes the saturation knee. Spacing is
  deterministic rather than Poisson so short sweep steps offer exactly
  ``qps * duration`` arrivals — the achieved/offered health criterion then
  measures the *server*, not arrival-process variance.

The **saturation sweep** steps offered QPS over a monotone ascending axis
and runs one short open-loop trial per step; the knee is the last step
that still met the health criteria (achieved ≥ 90% of offered, error+
timeout fraction ≤ 1%). Latency percentiles are nearest-rank over every
completed request's wall latency.

Query mix: items are drawn Zipf-skewed the same way the simulated
workload's catalog is organized — uniform category, Zipf(theta) rank
within the category — using the world parameters the server reports over
the ``info`` op, so the generator needs no out-of-band configuration.
"""

from __future__ import annotations

import asyncio
from dataclasses import dataclass, field
from typing import Any

import numpy as np

from repro.serve.protocol import ERR_TIMEOUT, LineSplitter, decode_line, encode_line
from repro.workload.zipf import ZipfSampler

__all__ = [
    "LatencySummary",
    "LoadgenConfig",
    "LoadReport",
    "ServeClient",
    "SweepReport",
    "ZipfQueryMix",
    "percentile",
    "run_closed_loop",
    "run_open_loop",
    "saturation_sweep",
]

REPORT_SCHEMA = "repro.serve/report/v1"
SWEEP_SCHEMA = "repro.serve/sweep/v1"

#: A sweep step is healthy while it achieves at least this share of the
#: offered rate...
KNEE_ACHIEVED_FRACTION = 0.90
#: ...and at most this share of requests error, time out, or get dropped.
KNEE_ERROR_FRACTION = 0.01


# ----------------------------------------------------------------------
# Client
# ----------------------------------------------------------------------
@dataclass(slots=True)
class QueryReply:
    """Everything one query produced, as the client saw it."""

    status: str  # "ok" or a protocol error code
    latency_s: float
    results: list[dict[str, Any]] = field(default_factory=list)
    done: dict[str, Any] = field(default_factory=dict)


class _PendingQuery:
    __slots__ = ("future", "results")

    def __init__(self, future: asyncio.Future[dict[str, Any]]) -> None:
        self.future = future
        self.results: list[dict[str, Any]] = []


def _expire(future: asyncio.Future[dict[str, Any]]) -> None:
    """Guard timer: a terminal line that never came becomes a timeout."""
    if not future.done():
        future.set_exception(asyncio.TimeoutError())


class ServeClient(asyncio.Protocol):
    """One connection to a serve front end, with request multiplexing.

    Request ids are connection-local integers. The client is the
    connection's protocol: the event loop hands it the reply bytes and it
    routes every line to the request that asked for it, so any number of
    coroutines may issue queries over one connection concurrently (the
    open-loop generator relies on this). Writes are not drained: each
    request's bytes wait no longer than its own reply, so the buffer is
    bounded by the caller's in-flight count.
    """

    _transport: asyncio.Transport

    def __init__(self) -> None:
        self._lines = LineSplitter()
        self._pending: dict[int, _PendingQuery] = {}
        self._next_id = 0
        #: Resolved by connection_lost; close() waits for it.
        self._lost: asyncio.Future[None] = asyncio.get_running_loop().create_future()

    @classmethod
    async def connect(cls, host: str, port: int) -> "ServeClient":
        _, client = await asyncio.get_running_loop().create_connection(cls, host, port)
        return client

    def connection_made(self, transport: asyncio.BaseTransport) -> None:
        assert isinstance(transport, asyncio.Transport)
        self._transport = transport

    def data_received(self, data: bytes) -> None:
        for line in self._lines.feed(data):
            try:
                payload = decode_line(line)
            except ValueError:
                self._transport.close()
                return
            req_id = payload.get("id")
            pending = self._pending.get(req_id) if isinstance(req_id, int) else None
            if pending is None:
                continue
            if payload.get("type") == "result":
                pending.results.append(payload)
            elif not pending.future.done():
                pending.future.set_result(payload)
        if self._lines.overflowed:
            self._transport.close()

    def connection_lost(self, exc: Exception | None) -> None:
        for pending in self._pending.values():
            if not pending.future.done():
                pending.future.set_exception(ConnectionError("connection closed"))
        self._lost.set_result(None)

    async def _roundtrip(
        self, request: dict[str, Any], guard_s: float
    ) -> tuple[dict[str, Any], _PendingQuery]:
        """Send one request; its terminal line, or ``TimeoutError`` after ``guard_s``."""
        # Closing starts the moment either side hangs up (the server's end
        # of stream closes the transport): refuse rather than wait out the
        # guard for a reply that cannot come.
        if self._transport.is_closing():
            raise ConnectionError("connection closed")
        req_id = self._next_id
        self._next_id += 1
        request["id"] = req_id
        loop = asyncio.get_running_loop()
        pending = _PendingQuery(loop.create_future())
        self._pending[req_id] = pending
        guard = loop.call_later(guard_s, _expire, pending.future)
        try:
            self._transport.write(encode_line(request))
            terminal = await pending.future
        finally:
            guard.cancel()
            self._pending.pop(req_id, None)
        return terminal, pending

    async def query(
        self,
        item: int,
        *,
        node: int | None = None,
        timeout_ms: float | None = None,
    ) -> QueryReply:
        """Issue one query; returns when its terminal line arrives.

        A wall-clock guard slightly above the server-side deadline converts
        a lost terminal line into a ``timeout`` reply instead of a hang.
        """
        request: dict[str, Any] = {"op": "query", "item": item}
        if node is not None:
            request["node"] = node
        if timeout_ms is not None:
            request["timeout_ms"] = timeout_ms
        loop = asyncio.get_running_loop()
        started = loop.time()
        guard_s = (timeout_ms / 1000.0 if timeout_ms is not None else 5.0) + 5.0
        try:
            terminal, pending = await self._roundtrip(request, guard_s)
        except asyncio.TimeoutError:
            return QueryReply(status=ERR_TIMEOUT, latency_s=loop.time() - started)
        latency = loop.time() - started
        if terminal.get("type") == "error":
            return QueryReply(
                status=str(terminal.get("error", "internal")),
                latency_s=latency,
                done=terminal,
            )
        return QueryReply(
            status="ok", latency_s=latency, results=pending.results, done=terminal
        )

    async def _simple(self, op: str) -> dict[str, Any]:
        terminal, _pending = await self._roundtrip({"op": op}, 10.0)
        return terminal

    async def info(self) -> dict[str, Any]:
        return await self._simple("info")

    async def ping(self) -> dict[str, Any]:
        return await self._simple("ping")

    async def stats(self) -> dict[str, Any]:
        return await self._simple("stats")

    async def metrics(self) -> dict[str, Any]:
        """One Prometheus exposition scrape (``text`` holds the document)."""
        return await self._simple("metrics")

    async def close(self) -> None:
        self._transport.close()
        await self._lost


# ----------------------------------------------------------------------
# Query mix
# ----------------------------------------------------------------------
class ZipfQueryMix:
    """Item ids drawn the way the simulated catalog is popular.

    The catalog's layout (``repro.workload.catalog``) assigns category
    ``c`` the contiguous ids ``[c * ipc, (c+1) * ipc)`` with rank equal to
    the offset; drawing a uniform category and a Zipf(theta) rank inside
    it reproduces the within-category popularity skew of the simulated
    workload without needing any per-user preference state.
    """

    def __init__(self, n_items: int, n_categories: int, theta: float, seed: int) -> None:
        if n_items <= 0 or n_categories <= 0:
            raise ValueError("n_items and n_categories must be positive")
        self.items_per_category = n_items // n_categories
        self.n_categories = n_categories
        self._rank = ZipfSampler(max(self.items_per_category, 1), theta)
        self._rng = np.random.default_rng(seed)

    def next_item(self) -> int:
        category = int(self._rng.integers(self.n_categories))
        rank = int(self._rank.sample(self._rng))
        return category * self.items_per_category + rank


# ----------------------------------------------------------------------
# Reports
# ----------------------------------------------------------------------
def percentile(sorted_samples: list[float], q: float) -> float:
    """Nearest-rank percentile (q in [0, 1]) over pre-sorted samples."""
    if not sorted_samples:
        return 0.0
    rank = int(np.ceil(q * len(sorted_samples)))
    idx = min(len(sorted_samples) - 1, max(0, rank - 1))
    return sorted_samples[idx]


@dataclass(frozen=True, slots=True)
class LatencySummary:
    """The latency tail of one trial, milliseconds."""

    p50_ms: float
    p95_ms: float
    p99_ms: float
    p999_ms: float
    mean_ms: float
    max_ms: float

    @classmethod
    def from_samples(cls, samples_s: list[float]) -> "LatencySummary":
        if not samples_s:
            return cls(0.0, 0.0, 0.0, 0.0, 0.0, 0.0)
        ordered = sorted(samples_s)
        return cls(
            p50_ms=percentile(ordered, 0.50) * 1e3,
            p95_ms=percentile(ordered, 0.95) * 1e3,
            p99_ms=percentile(ordered, 0.99) * 1e3,
            p999_ms=percentile(ordered, 0.999) * 1e3,
            mean_ms=float(np.mean(ordered)) * 1e3,
            max_ms=ordered[-1] * 1e3,
        )

    def as_dict(self) -> dict[str, float]:
        return {
            "p50_ms": self.p50_ms,
            "p95_ms": self.p95_ms,
            "p99_ms": self.p99_ms,
            "p999_ms": self.p999_ms,
            "mean_ms": self.mean_ms,
            "max_ms": self.max_ms,
        }


@dataclass(frozen=True, slots=True)
class LoadReport:
    """One load-generation trial, ready for JSON and ``repro-report``."""

    mode: str  # "closed" | "open"
    connections: int
    duration_s: float
    offered_qps: float | None
    requests: int
    ok: int
    errors: dict[str, int]
    dropped: int
    achieved_qps: float
    latency: LatencySummary
    hit_fraction: float
    sim_time_start: float
    sim_time_end: float

    @property
    def error_count(self) -> int:
        return sum(self.errors.values())

    def as_dict(self) -> dict[str, Any]:
        return {
            "schema": REPORT_SCHEMA,
            "mode": self.mode,
            "connections": self.connections,
            "duration_s": self.duration_s,
            "offered_qps": self.offered_qps,
            "requests": self.requests,
            "ok": self.ok,
            "errors": dict(self.errors),
            "error_count": self.error_count,
            "dropped": self.dropped,
            "achieved_qps": self.achieved_qps,
            "latency": self.latency.as_dict(),
            "hit_fraction": self.hit_fraction,
            "sim_time_start": self.sim_time_start,
            "sim_time_end": self.sim_time_end,
        }


@dataclass(frozen=True, slots=True)
class SweepReport:
    """A saturation sweep: ascending offered-QPS steps plus the knee."""

    steps: tuple[LoadReport, ...]
    knee_qps: float | None
    degraded_at_qps: float | None

    def as_dict(self) -> dict[str, Any]:
        return {
            "schema": SWEEP_SCHEMA,
            "steps": [step.as_dict() for step in self.steps],
            "offered_qps_axis": [step.offered_qps for step in self.steps],
            "knee_qps": self.knee_qps,
            "degraded_at_qps": self.degraded_at_qps,
        }


# ----------------------------------------------------------------------
# Generators
# ----------------------------------------------------------------------
@dataclass(frozen=True, slots=True)
class LoadgenConfig:
    """Knobs shared by both load-generation modes."""

    host: str = "127.0.0.1"
    port: int = 0
    connections: int = 4
    duration_s: float = 5.0
    #: Open loop only: offered arrival rate.
    qps: float = 100.0
    #: Open loop only: arrivals beyond this many in flight are dropped.
    max_inflight: int = 512
    timeout_ms: float = 1000.0
    seed: int = 0
    #: Zipf skew of the query mix; ``None`` uses the server's own theta.
    zipf_theta: float | None = None


@dataclass(slots=True)
class _Tally:
    """Shared mutable trial state for the driver coroutines."""

    latencies: list[float] = field(default_factory=list)
    ok: int = 0
    hits: int = 0
    errors: dict[str, int] = field(default_factory=dict)

    def record(self, reply: QueryReply) -> None:
        self.latencies.append(reply.latency_s)
        if reply.status == "ok":
            self.ok += 1
            if reply.results:
                self.hits += 1
        else:
            self.errors[reply.status] = self.errors.get(reply.status, 0) + 1


async def _connect_pool(config: LoadgenConfig) -> list[ServeClient]:
    return [
        await ServeClient.connect(config.host, config.port)
        for _ in range(config.connections)
    ]


async def _close_pool(clients: list[ServeClient]) -> None:
    for client in clients:
        await client.close()


def _mix_for(config: LoadgenConfig, info: dict[str, Any]) -> ZipfQueryMix:
    theta = config.zipf_theta if config.zipf_theta is not None else float(info["zipf_theta"])
    return ZipfQueryMix(
        n_items=int(info["n_items"]),
        n_categories=int(info["n_categories"]),
        theta=theta,
        seed=config.seed,
    )


def _report(
    mode: str,
    config: LoadgenConfig,
    offered_qps: float | None,
    tally: _Tally,
    dropped: int,
    elapsed_s: float,
    rate_window_s: float,
    sim_start: float,
    sim_end: float,
) -> LoadReport:
    requests = len(tally.latencies)
    return LoadReport(
        mode=mode,
        connections=config.connections,
        duration_s=elapsed_s,
        offered_qps=offered_qps,
        requests=requests,
        ok=tally.ok,
        errors=dict(sorted(tally.errors.items())),
        dropped=dropped,
        # Completions over the *arrival window*: the open loop's trailing
        # straggler wait is measurement overhead, not service time.
        achieved_qps=tally.ok / rate_window_s if rate_window_s > 0 else 0.0,
        latency=LatencySummary.from_samples(tally.latencies),
        hit_fraction=tally.hits / tally.ok if tally.ok else 0.0,
        sim_time_start=sim_start,
        sim_time_end=sim_end,
    )


async def run_closed_loop(config: LoadgenConfig) -> LoadReport:
    """N connections, zero think time: each finishes one query, issues the next."""
    clients = await _connect_pool(config)
    try:
        info = await clients[0].info()
        mix = _mix_for(config, info)
        tally = _Tally()
        loop = asyncio.get_running_loop()
        deadline = loop.time() + config.duration_s
        started = loop.time()

        async def drive(client: ServeClient) -> None:
            while loop.time() < deadline:
                item = mix.next_item()
                reply = await client.query(item, timeout_ms=config.timeout_ms)
                tally.record(reply)

        await asyncio.gather(*(drive(client) for client in clients))
        elapsed = loop.time() - started
        end_info = await clients[0].info()
        return _report(
            "closed",
            config,
            None,
            tally,
            0,
            elapsed,
            elapsed,
            float(info["sim_time"]),
            float(end_info["sim_time"]),
        )
    finally:
        await _close_pool(clients)


async def run_open_loop(config: LoadgenConfig) -> LoadReport:
    """Fixed-spacing arrivals at ``config.qps``, independent of completions."""
    if config.qps <= 0:
        raise ValueError(f"open loop needs qps > 0, got {config.qps}")
    clients = await _connect_pool(config)
    try:
        info = await clients[0].info()
        mix = _mix_for(config, info)
        tally = _Tally()
        dropped = 0
        inflight: set[asyncio.Task[None]] = set()
        loop = asyncio.get_running_loop()
        started = loop.time()
        spacing = 1.0 / config.qps
        n_arrivals = max(1, int(config.qps * config.duration_s))

        async def one(client: ServeClient, item: int) -> None:
            reply = await client.query(item, timeout_ms=config.timeout_ms)
            tally.record(reply)

        for arrival_index in range(n_arrivals):
            delay = started + arrival_index * spacing - loop.time()
            if delay > 0:
                await asyncio.sleep(delay)
            if len(inflight) >= config.max_inflight:
                dropped += 1
                continue
            client = clients[arrival_index % len(clients)]
            task = asyncio.create_task(one(client, mix.next_item()))
            inflight.add(task)
            task.add_done_callback(inflight.discard)
        if inflight:
            await asyncio.wait(inflight, timeout=config.timeout_ms / 1000.0 + 10.0)
        elapsed = loop.time() - started
        end_info = await clients[0].info()
        return _report(
            "open",
            config,
            config.qps,
            tally,
            dropped,
            elapsed,
            max(config.duration_s, n_arrivals * spacing),
            float(info["sim_time"]),
            float(end_info["sim_time"]),
        )
    finally:
        await _close_pool(clients)


def _step_degraded(step: LoadReport) -> bool:
    """Did this sweep step blow past the health criteria?"""
    offered = step.offered_qps or 0.0
    if offered <= 0:
        return False
    if step.achieved_qps < KNEE_ACHIEVED_FRACTION * offered:
        return True
    attempted = step.requests + step.dropped
    if attempted == 0:
        return True
    bad = step.error_count + step.dropped
    return bad / attempted > KNEE_ERROR_FRACTION


async def saturation_sweep(
    config: LoadgenConfig,
    *,
    start_qps: float = 50.0,
    factor: float = 2.0,
    max_steps: int = 6,
    step_duration_s: float | None = None,
) -> SweepReport:
    """Step offered QPS up a monotone geometric axis until degradation.

    Stops early at the first degraded step (running further would only
    melt the queue for no extra information). ``knee_qps`` is the last
    healthy offered rate, ``degraded_at_qps`` the first unhealthy one
    (``None`` when the whole axis stayed healthy).
    """
    if start_qps <= 0 or factor <= 1.0 or max_steps < 1:
        raise ValueError("need start_qps > 0, factor > 1, max_steps >= 1")
    steps: list[LoadReport] = []
    knee: float | None = None
    degraded_at: float | None = None
    qps = start_qps
    for _ in range(max_steps):
        step_config = LoadgenConfig(
            host=config.host,
            port=config.port,
            connections=config.connections,
            duration_s=step_duration_s if step_duration_s is not None else config.duration_s,
            qps=qps,
            max_inflight=config.max_inflight,
            timeout_ms=config.timeout_ms,
            seed=config.seed,
            zipf_theta=config.zipf_theta,
        )
        step = await run_open_loop(step_config)
        steps.append(step)
        if _step_degraded(step):
            degraded_at = qps
            break
        knee = qps
        qps *= factor
    return SweepReport(steps=tuple(steps), knee_qps=knee, degraded_at_qps=degraded_at)
