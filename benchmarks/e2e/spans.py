"""Layer spans taken from outside: wrappers, the event log, self-time analysis.

Nothing under ``src/`` is edited and the engine's own ``.perf``/``.profile``
hooks stay unset (ROADMAP item 4 will replace them). The traced pass assigns
wrappers over the public functions of each layer — module attributes where
``fast.py`` or the server binds a function by name, class attributes
everywhere else, never instance attributes (:func:`install_run` says why) —
and :class:`Patches` puts every one back.

A span is ``(name, start, end, parent)``. While the program runs only a flat
log is appended to — a span's name id (an ``int``) then its start time, a
bare ``float`` for the end of the innermost open span, :data:`TAG` then a
request id — and the tree and the self times (duration minus the part
covered by child spans) are rebuilt by :func:`analyse` after the clock has
stopped. Hot-path wrappers
carry the wrapped function's own positional signature: generic
``*args, **kwargs`` closures allocate a tuple and a dict per call, which at
paper scale drove enough extra gen-2 collections to slow an 8 h TTL-4 run by
40 % in the prototype.
"""

# repro-lint: disable-file=R002 -- the benchmark is a wall-clock instrument

from __future__ import annotations

import json
from pathlib import Path
from time import perf_counter
from types import SimpleNamespace
from typing import Any, Callable

__all__ = ["TAG", "Patches", "SpanLog", "analyse", "install_run", "install_setup"]

#: Log entry that announces a request id for the innermost open span.
TAG = None

#: Kernel callbacks: ``FastGnutellaEngine`` method -> span name.
HANDLER_SPANS = {
    "_fire_query": "gnutella.fire_query",
    "_toggle": "gnutella.toggle",
    "_login": "gnutella.login",
    "_refill_evicted": "gnutella.refill_evicted",
}

#: Server-side spans that never see the wire id take it from the server's
#: ``encode_line`` span of the same request: ``_execute`` runs serve_query,
#: the encodes and the telemetry calls back to back with no ``await``.
_SERVER_ENCODE = ("serve.encode", "serve.encode_done")


class SpanLog:
    """The flat begin/end log plus the counts taken at the same boundaries."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.events: list[Any] = []
        self.counts = {"search_messages": 0, "search_nodes_contacted": 0}

    def span_id(self, name: str) -> int:
        if name not in self.names:
            self.names.append(name)
        return self.names.index(name)

    def begin(self, name: str) -> None:
        self.events.append(self.span_id(name))
        self.events.append(perf_counter())

    def end(self) -> None:
        self.events.append(perf_counter())


class Patches:
    """Attribute assignments that can all be undone."""

    def __init__(self) -> None:
        self._undo: list[tuple[Any, str, bool, Any]] = []

    def set(self, owner: Any, name: str, value: Any) -> None:
        had = name in vars(owner)
        self._undo.append((owner, name, had, vars(owner).get(name)))
        setattr(owner, name, value)

    def restore(self) -> None:
        while self._undo:
            owner, name, had, old = self._undo.pop()
            if had:
                setattr(owner, name, old)
            else:
                delattr(owner, name)


# ----------------------------------------------------------------------
# Wrappers
# ----------------------------------------------------------------------
def _cold(log: SpanLog, name: str, fn: Callable[..., Any]) -> Callable[..., Any]:
    """Generic wrapper, for set-up functions called a handful of times."""
    nid, ev, pc = log.span_id(name), log.events.append, perf_counter

    def traced(*args: Any, **kwargs: Any) -> Any:
        ev(nid)
        ev(pc())
        try:
            return fn(*args, **kwargs)
        finally:
            ev(pc())

    return traced


def _hot(log: SpanLog, name: str, fn: Callable[..., Any], arity: int) -> Callable[..., Any]:
    """Fixed-arity positional wrapper for a per-event function.

    ``arity`` counts ``self`` when ``fn`` is a plain function taken from a class.
    """
    nid, ev, pc = log.span_id(name), log.events.append, perf_counter

    def traced1(a: Any) -> Any:
        ev(nid)
        ev(pc())
        try:
            return fn(a)
        finally:
            ev(pc())

    def traced2(a: Any, b: Any) -> Any:
        ev(nid)
        ev(pc())
        try:
            return fn(a, b)
        finally:
            ev(pc())

    def traced3(a: Any, b: Any, c: Any) -> Any:
        ev(nid)
        ev(pc())
        try:
            return fn(a, b, c)
        finally:
            ev(pc())

    def traced6(a: Any, b: Any, c: Any, d: Any, e: Any, f: Any) -> Any:
        ev(nid)
        ev(pc())
        try:
            return fn(a, b, c, d, e, f)
        finally:
            ev(pc())

    return {1: traced1, 2: traced2, 3: traced3, 6: traced6}[arity]


def install_setup(log: SpanLog, patches: Patches) -> None:
    """Span the world-building calls, by the names the engine binds them under."""
    from repro.gnutella import fast, simulation
    from repro.net.latency import LatencyModel
    from repro.serve import server

    for module, attr, name in (
        (fast, "MusicCatalog", "workload.catalog"),
        (fast, "generate_libraries", "workload.libraries"),
        (fast, "QueryModel", "workload.query_model"),
        (fast, "BandwidthModel", "net.bandwidth"),
        (fast, "PeerArrays", "core.peer_arrays"),
        (fast, "HolderIndex", "core.holder_index"),
        (simulation, "build_engine", "gnutella.setup_self"),
        (server, "build_engine", "gnutella.setup_self"),
    ):
        patches.set(module, attr, _cold(log, name, getattr(module, attr)))
    # The stand-ins are plain functions: the build only ever calls these
    # names, it never tests isinstance against them. fast.py uses
    # SessionSchedule for its ``generate`` alone, once per user.
    generate = _cold(log, "workload.churn_schedule", fast.SessionSchedule.generate)
    patches.set(fast, "SessionSchedule", SimpleNamespace(generate=generate))
    patches.set(LatencyModel, "delay_rows", _cold(log, "net.delay_rows", LatencyModel.delay_rows))


def install_run(log: SpanLog, patches: Patches) -> None:
    """Span the per-event and per-request calls of every layer.

    Class attributes throughout, also where an instance attribute would do:
    an instance ``__dict__`` that grows keys its class never declared loses
    CPython's shared-key layout, which slowed *every* attribute read on the
    engine, protocol and kernel objects and cost more than the spans did.
    """
    from repro.core.fastpath import FloodFastPath
    from repro.gnutella.bootstrap import BootstrapServer
    from repro.gnutella.fast import FastGnutellaEngine
    from repro.gnutella.metrics import SimulationMetrics
    from repro.gnutella.protocol import GnutellaProtocol
    from repro.obs.registry import LabeledCounter, LabeledHistogram
    from repro.obs.telemetry.rolling import RollingTelemetry
    from repro.serve import loadgen, server
    from repro.sim.kernel import Simulator
    from repro.workload.queries import QueryModel

    ev, pc, counts = log.events.append, perf_counter, log.counts

    for owner, attr, name, arity in (
        (QueryModel, "next_interarrival", "workload.next_interarrival", 2),
        (FastGnutellaEngine, "serve_query", "core.serve_query", 3),
        (GnutellaProtocol, "fill_random", "gnutella.fill_random", 3),
        (GnutellaProtocol, "sever_all", "gnutella.sever_all", 2),
        (BootstrapServer, "join", "gnutella.bootstrap", 2),
        (BootstrapServer, "leave", "gnutella.bootstrap", 2),
        (SimulationMetrics, "record_query", "gnutella.record_query", 6),
    ):
        patches.set(owner, attr, _hot(log, name, vars(owner)[attr], arity))

    # The remaining hot functions have defaults their callers rely on.
    sample_item, nid_item = QueryModel.sample_item, log.span_id("workload.sample_item")

    def traced_sample_item(self: Any, user: Any, rng: Any, library: Any = None) -> Any:
        ev(nid_item)
        ev(pc())
        try:
            return sample_item(self, user, rng, library)
        finally:
            ev(pc())

    patches.set(QueryModel, "sample_item", traced_sample_item)

    search, nid_search = FloodFastPath.search, log.span_id("core.search")

    def traced_search(
        self: Any, initiator: Any, item: Any, issued_at: float = 0.0, max_hops: Any = None
    ) -> Any:
        ev(nid_search)
        ev(pc())
        try:
            outcome = search(self, initiator, item, issued_at, max_hops)
        finally:
            ev(pc())
        counts["search_messages"] += outcome.messages
        counts["search_nodes_contacted"] += outcome.nodes_contacted
        return outcome

    patches.set(FloodFastPath, "search", traced_search)

    reconfigure, nid_reconf = GnutellaProtocol.reconfigure, log.span_id("gnutella.reconfigure")

    def traced_reconfigure(
        self: Any,
        node: Any,
        max_swaps: Any = 1,
        swap_margin: float = 0.0,
        stats_decay: float = 1.0,
    ) -> Any:
        ev(nid_reconf)
        ev(pc())
        try:
            return reconfigure(self, node, max_swaps, swap_margin, stats_decay)
        finally:
            ev(pc())

    patches.set(GnutellaProtocol, "reconfigure", traced_reconfigure)

    sample, nid_boot = BootstrapServer.sample, log.span_id("gnutella.bootstrap")

    def traced_sample(self: Any, rng: Any, k: int, exclude: Any = ()) -> Any:
        ev(nid_boot)
        ev(pc())
        try:
            return sample(self, rng, k, exclude)
        finally:
            ev(pc())

    patches.set(BootstrapServer, "sample", traced_sample)

    # sim: the run loop, and the callbacks it dispatches. Wrapping
    # ``Simulator.schedule`` instead would catch any callback by name, but
    # costs a second Python frame and an ``*args`` repack per event (2.3 us
    # against 0.9 us); the traced section checks that no event ran unspanned.
    # ``_login`` is also called by ``_toggle``: those calls nest, so
    # ``gnutella.login`` is all log-in work and ``gnutella.toggle`` the rest.
    run, nid_run = Simulator.run, log.span_id("sim.kernel_self")

    def traced_run(self: Any, until: Any = None) -> None:
        ev(nid_run)
        ev(pc())
        try:
            run(self, until)
        finally:
            ev(pc())

    patches.set(Simulator, "run", traced_run)
    for attr, name in HANDLER_SPANS.items():
        handler = vars(FastGnutellaEngine)[attr]
        patches.set(
            FastGnutellaEngine, attr, _hot(log, name, handler, handler.__code__.co_argcount)
        )

    # serve: both ends of the codec, each span tagged with the wire id
    parse, nid_decode = server.parse_request, log.span_id("serve.decode")

    def traced_parse(line: Any) -> Any:
        ev(nid_decode)
        ev(pc())
        try:
            request = parse(line)
            ev(TAG)
            ev(request.req_id)
            return request
        finally:
            ev(pc())

    patches.set(server, "parse_request", traced_parse)
    encode, nid_enc, nid_done = (
        server.encode_line,
        log.span_id("serve.encode"),
        log.span_id("serve.encode_done"),
    )

    def traced_encode(payload: Any) -> bytes:
        ev(nid_done if payload.get("type") == "done" else nid_enc)
        ev(pc())
        try:
            ev(TAG)
            ev(payload.get("id"))
            return encode(payload)
        finally:
            ev(pc())

    patches.set(server, "encode_line", traced_encode)
    client_encode, client_decode = loadgen.encode_line, loadgen.decode_line
    nid_client = log.span_id("serve.client_codec")

    def traced_client_encode(payload: Any) -> bytes:
        ev(nid_client)
        ev(pc())
        try:
            ev(TAG)
            ev(payload.get("id"))
            return client_encode(payload)
        finally:
            ev(pc())

    def traced_client_decode(line: Any) -> Any:
        ev(nid_client)
        ev(pc())
        try:
            payload = client_decode(line)
            ev(TAG)
            ev(payload.get("id"))
            return payload
        finally:
            ev(pc())

    patches.set(loadgen, "encode_line", traced_client_encode)
    patches.set(loadgen, "decode_line", traced_client_decode)

    # obs: slotted classes, so the class attribute is the only seam
    nid_obs = log.span_id("obs.telemetry")
    inc, hist_observe, roll_observe = (
        LabeledCounter.inc,
        LabeledHistogram.observe,
        RollingTelemetry.observe,
    )

    def traced_inc(self: Any, amount: float = 1.0, **labels: Any) -> None:
        ev(nid_obs)
        ev(pc())
        try:
            inc(self, amount, **labels)
        finally:
            ev(pc())

    def traced_hist_observe(self: Any, value: float, **labels: Any) -> None:
        ev(nid_obs)
        ev(pc())
        try:
            hist_observe(self, value, **labels)
        finally:
            ev(pc())

    def traced_roll_observe(self: Any, t: float, latency_s: float, ok: bool = True) -> None:
        ev(nid_obs)
        ev(pc())
        try:
            roll_observe(self, t, latency_s, ok)
        finally:
            ev(pc())

    patches.set(LabeledCounter, "inc", traced_inc)
    patches.set(LabeledHistogram, "observe", traced_hist_observe)
    patches.set(RollingTelemetry, "observe", traced_roll_observe)


# ----------------------------------------------------------------------
# Analysis
# ----------------------------------------------------------------------
def analyse(
    log: SpanLog, start: int = 0, stop: int | None = None, spans_path: Path | None = None
) -> dict[str, Any]:
    """Rebuild the span tree from ``log.events[start:stop]``.

    Returns per-name ``self_s`` (duration minus children), ``total_s``
    (inclusive), ``n`` (calls) and ``children`` (direct child spans), plus
    ``spans`` (how many). With
    ``spans_path`` every span is written there as one JSON line
    ``[name, start, end, parent, request_id]``, times relative to the first.
    The range must be balanced: every begin in it has its end in it.
    """
    events, names = log.events, log.names
    spans: list[list[Any]] = []  # [name id, start, end, parent, request id]
    covered: list[float] = []  # time covered by each span's direct children
    stack: list[int] = []
    self_s = [0.0] * len(names)
    total_s = [0.0] * len(names)
    calls = [0] * len(names)
    children = [0] * len(names)  # direct child spans, by the parent's name
    k, stop = start, len(events) if stop is None else stop
    while k < stop:
        entry = events[k]
        if entry.__class__ is float:  # the innermost open span ends
            index = stack.pop()
            span = spans[index]
            span[2] = entry
            duration = entry - span[1]
            self_s[span[0]] += duration - covered[index]
            total_s[span[0]] += duration
            calls[span[0]] += 1
            if stack:
                covered[stack[-1]] += duration
            k += 1
            continue
        value = events[k + 1]
        if entry is TAG:
            spans[stack[-1]][4] = value
        else:
            if stack:
                children[spans[stack[-1]][0]] += 1
            spans.append([entry, value, value, stack[-1] if stack else -1, None])
            covered.append(0.0)
            stack.append(len(spans) - 1)
        k += 2
    if stack:
        raise ValueError(f"unbalanced span log: {len(stack)} span(s) never ended")
    if spans_path is not None:
        _propagate_request_ids(spans, names)
        origin = spans[0][1] if spans else 0.0
        spans_path.parent.mkdir(parents=True, exist_ok=True)
        with spans_path.open("w", encoding="utf-8") as out:
            out.writelines(
                json.dumps([names[nid], t0 - origin, t1 - origin, parent, rid]) + "\n"
                for nid, t0, t1, parent, rid in spans
            )
    return {
        "self_s": dict(zip(names, self_s)),
        "total_s": dict(zip(names, total_s)),
        "n": dict(zip(names, calls)),
        "children": dict(zip(names, children)),
        "spans": len(spans),
    }


def _propagate_request_ids(spans: list[list[Any]], names: list[str]) -> None:
    """Give id-blind server spans the id of their request's encode span."""
    if "core.serve_query" not in names:
        return
    encodes = {names.index(n) for n in _SERVER_ENCODE if n in names}
    serve_query = names.index("core.serve_query")
    telemetry = names.index("obs.telemetry") if "obs.telemetry" in names else -1
    waiting: list[list[Any]] = []
    last_rid = None
    for span in spans:
        nid = span[0]
        if nid in encodes:
            last_rid = span[4]
            for blind in waiting:
                blind[4] = last_rid
            waiting.clear()
        elif nid == serve_query:
            waiting.append(span)
        elif nid == telemetry:
            span[4] = last_rid
    for span in spans:  # a parent always precedes its children
        if span[4] is None and span[3] >= 0:
            span[4] = spans[span[3]][4]
