"""The four workloads: their inputs, how a world is built, the timed section.

A :class:`Spec` is everything that fixes the work. ``spec_for`` builds the
four official ones from ``(seed, seconds)``; the tests pass tiny ones
directly. Work is *fixed*, not time-boxed: ``seconds`` chooses the horizon or
request count through the committed rates below, so that two commits given
the same arguments do the same work and a faster commit simply finishes
sooner. (A time-boxed simulation would let a faster commit reach later, and
differently priced, simulated hours.)
"""

# repro-lint: disable-file=R002 -- the benchmark is a wall-clock instrument

from __future__ import annotations

import asyncio
import gc
import math
import time
from contextlib import contextmanager
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Any, Iterator

from repro.bench.scale import scale_config
from repro.experiments.common import preset_config
from repro.gnutella import simulation
from repro.gnutella.config import GnutellaConfig
from repro.serve.loadgen import ServeClient, ZipfQueryMix, percentile
from repro.serve.server import QueryServer, ServeConfig
from repro.types import HOUR, NodeId

from benchmarks.e2e.estimate import highest_supported_percentile, peak_rss_mb, slice_walls
from benchmarks.e2e.spans import Patches, SpanLog, analyse, install_run

__all__ = [
    "SLICES",
    "WORKLOADS",
    "Spec",
    "build_world",
    "serve_repetitions",
    "sim_repetition",
    "spec_for",
]

#: Slices per timed section; each is timed in every repetition. About 20 ms
#: each: the host's slow bursts last tens to hundreds of milliseconds, and 18
#: repetitions of one world read 1.6 % apart (six at a time) cut into 20
#: slices, 1.3 % cut into 100 or 200.
SLICES = 100
#: Closed loop: this many callers, zero think time (= ``nproc`` on the host).
CONNECTIONS = 2
#: Every n-th reply is checked against a direct ``engine.serve_query``.
ORACLE_EVERY = 500
#: Second connection's wire ids start here, so ids are unique per request.
ID_STRIDE = 1_000_000_000

#: Simulated hours one budget second buys, measured on the unmodified code in
#: this host at full speed (README, "Workloads").
SIM_HOURS_PER_SECOND = {"sim_paper": 1.7, "sim_flood_ttl4": 1.45, "scale_20k": 0.11}
#: Closed-loop requests one budget second buys.
REQUESTS_PER_SECOND = 7500

WORKLOADS = ("sim_paper", "sim_flood_ttl4", "scale_20k", "serve_frozen")


@dataclass(frozen=True)
class Spec:
    """One workload's fixed inputs and its repetition plan."""

    name: str
    config: GnutellaConfig
    #: Fresh processes, each building the world once.
    setups: int
    #: Identical repetitions of the timed section per built world: a
    #: simulation's each in a fork of the process that built it, the serving
    #: ones one after the other against the one started server.
    forks: int
    #: Timed closed-loop requests (a multiple of :data:`SLICES`); 0 for a simulation.
    requests: int = 0
    warmup_requests: int = 0
    warmup_sim_s: float = 0.0

    def __post_init__(self) -> None:
        if self.requests % SLICES:
            raise ValueError(f"requests must be a multiple of {SLICES}, got {self.requests}")

    @property
    def serving(self) -> bool:
        return self.requests > 0


def spec_for(name: str, seed: int, seconds: float) -> Spec:
    """The official workload ``name`` for ``--seed`` and ``--seconds``."""
    # One 27 s build is all scale_20k can afford; the others build three times.
    setups, forks = (1, 4) if name == "scale_20k" else (3, 2)
    per_repetition = seconds / (setups * forks)
    if name == "serve_frozen":
        requests = max(1, round(REQUESTS_PER_SECOND * per_repetition / SLICES)) * SLICES
        return Spec(
            name,
            preset_config("paper", seed).as_dynamic(),
            setups,
            forks,
            requests=requests,
            warmup_requests=2000,
            warmup_sim_s=HOUR,
        )
    if name == "sim_paper":
        base = preset_config("paper", seed, max_hops=2).as_dynamic()
    elif name == "sim_flood_ttl4":
        base = preset_config("paper", seed, max_hops=4).as_static()
    elif name == "scale_20k":
        base = scale_config(20_000, seed)
    else:
        raise ValueError(f"unknown workload {name!r}; choose from {WORKLOADS}")
    horizon = SIM_HOURS_PER_SECOND[name] * per_repetition * HOUR
    return Spec(name, replace(base, horizon=horizon, warmup_hours=0), setups, forks)


# ----------------------------------------------------------------------
# Building the world (set-up)
# ----------------------------------------------------------------------
@dataclass
class World:
    engine: Any
    server: QueryServer | None = None
    #: Warm-up then timed items, generated before any clock starts.
    items: list[int] | None = None


def build_world(spec: Spec) -> World:
    """Everything a timed section needs, built once per fresh process."""
    if not spec.serving:
        return World(simulation.build_engine(spec.config))
    config = spec.config
    server = QueryServer(config, ServeConfig(time_rate=0.0, warmup_sim_s=spec.warmup_sim_s))
    mix = ZipfQueryMix(config.n_items, config.n_categories, config.zipf_theta, config.seed)
    items = [mix.next_item() for _ in range(spec.warmup_requests + spec.requests)]
    return World(server.engine, server, items)


# ----------------------------------------------------------------------
# The timed section
# ----------------------------------------------------------------------
@contextmanager
def _repetition(
    world: World, trace: bool, spans_path: Path | None, since: float
) -> Iterator[tuple["_Section", dict]]:
    """One repetition of the timed section; with ``trace`` under the run-phase wrappers.

    The caller times its work inside the yielded section and puts its checks
    into the yielded report, which on the way out gains the slice wall
    times, what passed between ``since`` and the section's start, the world's
    statistics and, when traced, the span analysis. Every wrapper is removed
    before the block ends.
    """
    log, patches = (SpanLog(), Patches()) if trace else (None, None)
    if log is not None:
        install_run(log, patches)
    section = _Section(log, world.engine)
    report: dict[str, Any] = {}
    try:
        yield section, report
    finally:
        if patches is not None:
            patches.restore()
    report.update(section.readings)
    report["slices"] = slice_walls(section.marks)
    report["pretimed_s"] = section.marks[0] - since
    report["stats"] = _world_stats(world.engine)
    report["rss_mb"] = peak_rss_mb()
    if log is not None:
        trace_report = report["trace"] = analyse(log, section.start, section.stop, spans_path)
        trace_report["counts"] = section.counts
        # Every event the kernel dispatched must have opened a span of its
        # own, or its time would pass for the kernel's.
        spanned = trace_report["children"].get("sim.kernel_self", 0)
        if spanned != report["events_timed"]:
            report["problems"].append(
                f"{report['events_timed']} kernel events ran, {spanned} inside a handler span"
            )


class _Section:
    """The timed work: its slice marks, the root span, and the CPU, gen-2,
    event and count readings taken at its two ends."""

    def __init__(self, log: SpanLog | None, engine: Any) -> None:
        self.log = log
        self.sim = engine.sim
        self.marks: list[float] = []
        self.readings: dict[str, Any] = {}

    def _read(self) -> tuple[float, int, int, int]:
        return (
            time.process_time(),
            gc.get_stats()[2]["collections"],
            self.sim.events_executed,
            self.sim.pending,
        )

    def __enter__(self) -> "_Section":
        self._before = self._read()
        if self.log is not None:
            self._counts = dict(self.log.counts)
            self.start = len(self.log.events)
            self.log.begin("run")
        self.mark()
        return self

    def mark(self) -> None:
        self.marks.append(time.perf_counter())

    def __exit__(self, *exc: Any) -> None:
        log = self.log
        if log is not None:
            log.end()
            self.stop = len(log.events)
            self.counts = {k: v - self._counts[k] for k, v in log.counts.items()}
        cpu, gen2, events, pending = (b - a for a, b in zip(self._before, self._read()))
        # Nothing in these workloads cancels an event, so what was scheduled
        # is what ran plus the growth of the queue.
        self.readings = {
            "cpu_s": cpu,
            "gc_gen2": gen2,
            "events_timed": events,
            "schedule_n": events + pending,
        }


def _world_stats(engine: Any) -> dict[str, int]:
    """Simulated statistics: exact counts, identical in every repetition."""
    m = engine.metrics
    return {
        "events": engine.sim.events_executed,
        "queries": m.total_queries,
        "hits": m.total_hits,
        "messages": int(m.messages_total()),
        "reconfigurations": m.reconfigurations,
        "logins": m.logins,
        "logoffs": m.logoffs,
    }


def sim_repetition(spec: Spec, world: World, trace: bool, spans_path: Path | None) -> dict:
    """Run the simulation to its horizon. It consumes the world: call it in a fork."""
    engine, horizon = world.engine, spec.config.horizon
    with _repetition(world, trace, spans_path, time.perf_counter()) as (section, report):
        with section:
            engine.start()
            for i in range(1, SLICES + 1):
                engine.advance(horizon * i / SLICES)
                section.mark()
        m = engine.metrics
        problems = []
        if not math.isclose(engine.sim.now, horizon):
            problems.append(f"clock stopped at {engine.sim.now!r}, horizon is {horizon!r}")
        if not 0 < m.total_hits <= m.total_queries:
            problems.append(f"need 0 < hits <= queries, got {m.total_hits} / {m.total_queries}")
        report.update(attempted=m.total_queries, failed=0, problems=problems)
    return report


def serve_repetitions(
    spec: Spec, world: World, traced: list[bool], spans_paths: list[Path | None]
) -> list[dict]:
    """Start the server once, warm it up, then one closed loop over the same
    timed items per entry of ``traced``. The frozen world answers every
    repetition alike, so they need no fork."""
    return asyncio.run(_serve(spec, world, traced, spans_paths))


async def _serve(
    spec: Spec, world: World, traced: list[bool], spans_paths: list[Path | None]
) -> list[dict]:
    server, items = world.server, world.items
    assert server is not None and items is not None
    since = time.perf_counter()
    host, port = await server.start()
    start_s = time.perf_counter() - since
    clients = [await ServeClient.connect(host, port) for _ in range(CONNECTIONS)]
    reps = []
    try:
        for index, client in enumerate(clients):
            # Connection-local ids would collide across the two callers.
            client._next_id = index * ID_STRIDE
        warm = _ClosedLoop(items[: spec.warmup_requests], None)
        await warm.run(clients)
        for trace, spans_path in zip(traced, spans_paths):
            gc.collect()  # every repetition starts from a collected heap
            with _repetition(world, trace, spans_path, since) as (section, report):
                loop = _ClosedLoop(items[spec.warmup_requests :], section)
                with section:
                    await loop.run(clients)
                report.update(_serve_report(world.engine, loop))
            report["start_s"] = start_s
            reps.append(report)
            since = time.perf_counter()
    finally:
        for client in clients:
            await client.close()
        await server.shutdown()
    # The warm-up requests count as operations of the first repetition, whose
    # ``pretimed_s`` holds the start of the server and the warm-up.
    reps[0]["attempted"] += len(warm.items)
    reps[0]["failed"] += warm.failed
    return reps


def _serve_report(engine: Any, loop: "_ClosedLoop") -> dict:
    mismatches = sum(not _matches_oracle(engine, reply) for reply in loop.sampled)
    problems = [] if not mismatches else [f"{mismatches} sampled replies differ from the oracle"]
    latencies = sorted(loop.latencies)
    n = len(latencies)
    supported = highest_supported_percentile(n)

    def percentile_us(q: float) -> float:
        """0 when fewer than ten samples lie beyond ``q``: not a number to quote."""
        return percentile(latencies, q) * 1e6 if q <= supported else 0.0

    return dict(
        attempted=n,
        failed=loop.failed + mismatches,
        problems=problems,
        serve={
            "samples": n,
            "oracle_checked": len(loop.sampled),
            "mean_us": sum(latencies) / n * 1e6,
            "p50_us": percentile_us(0.5),
            "p99_us": percentile_us(0.99),
            "p999_us": percentile_us(0.999),
            "max_us": latencies[-1] * 1e6,
            "queue_wait_us": loop.queue_ms / n * 1e3,
            "service_us": loop.service_ms / n * 1e3,
            "hit_fraction": loop.hits / n,
        },
    )


class _ClosedLoop:
    """Each caller sends its next request when the previous reply arrives."""

    def __init__(self, items: list[int], section: _Section | None) -> None:
        self.items = items
        self.section = section
        self.per_slice = len(items) // SLICES if section is not None else 0
        self.cursor = 0
        self.done = 0
        self.failed = 0
        self.hits = 0
        self.queue_ms = 0.0
        self.service_ms = 0.0
        self.latencies: list[float] = []
        self.sampled: list[Any] = []

    async def run(self, clients: list[ServeClient]) -> None:
        await asyncio.gather(*(self._caller(client) for client in clients))

    async def _caller(self, client: ServeClient) -> None:
        items, n = self.items, len(self.items)
        while self.cursor < n:
            index = self.cursor
            self.cursor += 1
            reply = await client.query(items[index])
            self.latencies.append(reply.latency_s)
            if reply.status == "ok":
                self.queue_ms += reply.done["queue_ms"]
                self.service_ms += reply.done["latency_ms"]
                if reply.results:
                    self.hits += 1
                if index % ORACLE_EVERY == 0:
                    self.sampled.append(reply)
            else:
                self.failed += 1
            self.done += 1
            if self.per_slice and self.done % self.per_slice == 0:
                self.section.mark()


def _matches_oracle(engine: Any, reply: Any) -> bool:
    """The frozen world must answer the same query the same way, directly."""
    done = reply.done
    outcome = engine.serve_query(NodeId(done["node"]), done["item"])
    return (
        done["results"] == len(outcome.results) == len(reply.results)
        and done["messages"] == outcome.messages
        and done["nodes_contacted"] == outcome.nodes_contacted
    )
