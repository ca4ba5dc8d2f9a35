"""The tracer: structured spans and instant events over simulated time.

A :class:`Tracer` buffers :class:`TraceEvent` records in memory while a
simulation runs. Engines emit three families of events:

* **query lifecycle** (``cat="query"``): one complete span per query —
  issue to last reply — containing per-hop propagation children, a ``hit``
  instant per result at its one-way discovery delay, and a ``reply``
  instant at the round-trip arrival;
* **protocol** (``cat="protocol"``): ``reconfigure`` / ``invite`` /
  ``evict`` instants, each tagged with the acting node — the raw material
  for watching a reconfiguration wave propagate;
* **churn** (``cat="churn"``): ``login`` / ``logoff`` instants.

Timestamps are *simulated seconds* at the emitting call site, stored as
trace **microseconds** (the Chrome trace-event unit — see
:mod:`repro.obs.chrome`). Track identity follows the trace-event model:
``pid`` selects the family lane (:data:`PID_QUERY` ...), ``tid`` is the
acting node, so Perfetto renders one row per peer per family.

The default tracer everywhere is :data:`NULL_TRACER`, whose methods are
no-ops; engines guard emission with ``if tracer.enabled`` so a disabled run
pays one attribute check per *query* (never per node or per hop). Tracing
is pure observation — no RNG draws, no kernel events, no reordering — which
is what keeps traced and untraced event-stream digests bit-identical
(test-enforced by ``tests/gnutella/test_trace_digest.py``).
"""

from __future__ import annotations

import json
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Iterable, Iterator, Mapping, Sequence

from repro.types import QueryOutcome

__all__ = [
    "NULL_TRACER",
    "NullTracer",
    "PID_CHURN",
    "PID_PROTOCOL",
    "PID_QUERY",
    "PID_SERVE",
    "PROCESS_NAMES",
    "TraceEvent",
    "Tracer",
    "emit_flood_query",
    "read_jsonl",
]

#: Trace-event process lanes: one pid per event family so viewers group
#: query spans, protocol actions, and churn into separate track groups.
PID_QUERY = 1
PID_PROTOCOL = 2
PID_CHURN = 3
PID_SERVE = 4
PROCESS_NAMES: dict[int, str] = {
    PID_QUERY: "queries",
    PID_PROTOCOL: "protocol",
    PID_CHURN: "churn",
    PID_SERVE: "serve",
}

#: Seconds -> trace microseconds (the Chrome trace-event time unit).
US = 1e6


@dataclass(frozen=True, slots=True)
class TraceEvent:
    """One trace record, already in trace-event vocabulary.

    ``ph`` is the trace-event phase: ``"X"`` for complete spans (with
    ``dur``), ``"i"`` for instant events. ``ts``/``dur`` are microseconds
    of simulated time.
    """

    name: str
    cat: str
    ph: str
    ts: float
    pid: int
    tid: int
    dur: float | None = None
    args: Mapping[str, Any] = field(default_factory=dict)

    def as_dict(self) -> dict[str, Any]:
        """JSON-ready rendering (the JSONL line / Chrome event body)."""
        out: dict[str, Any] = {
            "name": self.name,
            "cat": self.cat,
            "ph": self.ph,
            "ts": self.ts,
            "pid": self.pid,
            "tid": self.tid,
        }
        if self.ph == "X":
            out["dur"] = 0.0 if self.dur is None else self.dur
        if self.ph == "i":
            out["s"] = "t"  # instant scope: thread
        if self.args:
            out["args"] = dict(self.args)
        return out


class Tracer:
    """In-memory trace buffer with instant/span emission and JSONL export."""

    __slots__ = ("events", "enabled")

    def __init__(self) -> None:
        #: Buffered events, in emission order.
        self.events: list[TraceEvent] = []
        #: Always ``True`` — the emission guard engines check.
        self.enabled = True

    # ------------------------------------------------------------------
    # Emission (timestamps in simulated seconds)
    # ------------------------------------------------------------------
    def instant(
        self,
        name: str,
        cat: str,
        t: float,
        *,
        pid: int = PID_QUERY,
        tid: int = 0,
        args: Mapping[str, Any] | None = None,
    ) -> None:
        """Record an instant event at simulated time ``t`` seconds."""
        self.events.append(
            TraceEvent(name, cat, "i", t * US, pid, tid, None, dict(args or {}))
        )

    def complete(
        self,
        name: str,
        cat: str,
        t: float,
        duration: float,
        *,
        pid: int = PID_QUERY,
        tid: int = 0,
        args: Mapping[str, Any] | None = None,
    ) -> None:
        """Record a complete span ``[t, t + duration]`` (simulated seconds)."""
        self.events.append(
            TraceEvent(
                name, cat, "X", t * US, pid, tid, duration * US, dict(args or {})
            )
        )

    # ------------------------------------------------------------------
    # Introspection and export
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self.events)

    def by_category(self, cat: str) -> list[TraceEvent]:
        """All buffered events in category ``cat``, in emission order."""
        return [ev for ev in self.events if ev.cat == cat]

    def summary(self) -> dict[str, Any]:
        """Headline counts: totals, per-category, per-(category, name)."""
        per_cat: dict[str, int] = {}
        per_name: dict[str, int] = {}
        spans = 0
        for ev in self.events:
            per_cat[ev.cat] = per_cat.get(ev.cat, 0) + 1
            key = f"{ev.cat}/{ev.name}"
            per_name[key] = per_name.get(key, 0) + 1
            if ev.ph == "X":
                spans += 1
        return {
            "events": len(self.events),
            "spans": spans,
            "by_category": dict(sorted(per_cat.items())),
            "by_name": dict(sorted(per_name.items())),
        }

    def write_jsonl(self, path: str | Path) -> Path:
        """Write one JSON object per line; returns the resolved path."""
        target = Path(path)
        if target.parent != Path(""):
            target.parent.mkdir(parents=True, exist_ok=True)
        with target.open("w", encoding="utf-8") as fh:
            for ev in self.events:
                fh.write(json.dumps(ev.as_dict(), sort_keys=True) + "\n")
        return target

    @contextmanager
    def flushed(self, path: str | Path) -> Iterator["Tracer"]:
        """Guarantee the trace reaches ``path`` even if the body raises.

        Wrap the engine run in this so a mid-run crash still leaves a valid,
        parseable JSONL file holding every event emitted up to the failure
        (JSONL is prefix-valid by construction; the buffer is written whole
        on exit, success or exception). The exception propagates unchanged.
        """
        try:
            yield self
        finally:
            self.write_jsonl(path)


class NullTracer:
    """The no-op default: same surface as :class:`Tracer`, zero cost.

    ``enabled`` is ``False`` so instrumented hot paths skip even argument
    construction; the methods still exist (and discard) so un-guarded call
    sites stay correct.
    """

    __slots__ = ()

    enabled = False
    events: tuple[TraceEvent, ...] = ()

    def instant(self, *args: Any, **kwargs: Any) -> None:
        """Discard."""

    def complete(self, *args: Any, **kwargs: Any) -> None:
        """Discard."""

    def __len__(self) -> int:
        return 0


#: The shared no-op tracer every engine starts with.
NULL_TRACER = NullTracer()


def read_jsonl(path: str | Path) -> list[dict[str, Any]]:
    """Load a JSONL trace back into a list of event dicts."""
    events: list[dict[str, Any]] = []
    with Path(path).open("r", encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if line:
                events.append(json.loads(line))
    return events


def emit_flood_query(
    tracer: Tracer,
    outcome: QueryOutcome,
    level_ends: Sequence[int] | None = None,
) -> None:
    """Emit the span + children for one *atomic* query outcome.

    The fast engines execute a query instantaneously at its issue time; the
    only measured durations inside it are the per-result delays. The span
    therefore runs from issue to the last round-trip reply (a nominal 1 ms
    when nothing was found, so empty queries stay visible), ``hit`` instants
    sit at each result's one-way discovery delay and ``reply`` instants at
    its round-trip arrival — all measured values.

    Per-hop propagation children come from ``level_ends`` (the flood fast
    path's cumulative contacted-count per hop level,
    :attr:`repro.core.fastpath.FloodFastPath.last_level_ends`). Hop counts
    in ``args`` are measured; the hops' *placement* inside the span is
    schematic (evenly spread), because an atomic query has no per-hop
    timestamps — the detailed engine is the one that traces real per-hop
    times.
    """
    issued = outcome.issued_at
    max_delay = max((r.delay for r in outcome.results), default=0.0)
    duration = max(max_delay, 1e-3)
    tid = int(outcome.initiator)
    tracer.complete(
        "query",
        "query",
        issued,
        duration,
        pid=PID_QUERY,
        tid=tid,
        args={
            "item": int(outcome.item),
            "messages": outcome.messages,
            "nodes_contacted": outcome.nodes_contacted,
            "results": len(outcome.results),
            "hit": outcome.hit,
        },
    )
    if level_ends:
        previous = 0
        n_levels = len(level_ends)
        for hop, cumulative in enumerate(level_ends, start=1):
            contacted = cumulative - previous
            previous = cumulative
            tracer.instant(
                f"hop{hop}",
                "query",
                issued + duration * hop / (n_levels + 1),
                pid=PID_QUERY,
                tid=tid,
                args={"hop": hop, "contacted": contacted, "cumulative": cumulative},
            )
    else:
        tracer.instant(
            "propagation",
            "query",
            issued + duration * 0.5,
            pid=PID_QUERY,
            tid=tid,
            args={
                "messages": outcome.messages,
                "nodes_contacted": outcome.nodes_contacted,
            },
        )
    for result in outcome.results:
        tracer.instant(
            "hit",
            "query",
            issued + result.delay * 0.5,
            pid=PID_QUERY,
            tid=tid,
            args={"responder": int(result.responder), "hops": result.hops},
        )
        tracer.instant(
            "reply",
            "query",
            issued + result.delay,
            pid=PID_QUERY,
            tid=tid,
            args={"responder": int(result.responder), "delay_ms": result.delay * 1e3},
        )


def _iter_event_dicts(
    events: Iterable[TraceEvent | Mapping[str, Any]],
) -> Iterable[dict[str, Any]]:
    """Normalize mixed :class:`TraceEvent` / dict streams to dicts."""
    for ev in events:
        yield ev.as_dict() if isinstance(ev, TraceEvent) else dict(ev)
