"""Tests for the tracer: buffering, export, query emission."""

import pytest

from repro.obs.trace import (
    NULL_TRACER,
    PID_CHURN,
    PID_QUERY,
    Tracer,
    emit_flood_query,
    read_jsonl,
)
from repro.types import NodeId, QueryOutcome, QueryResult


def _outcome(n_results: int = 2, issued_at: float = 100.0) -> QueryOutcome:
    results = tuple(
        QueryResult(responder=NodeId(10 + i), item=7, hops=i + 1, delay=0.1 * (i + 1))
        for i in range(n_results)
    )
    return QueryOutcome(
        initiator=NodeId(3),
        item=7,
        issued_at=issued_at,
        results=results,
        messages=12,
        nodes_contacted=9,
    )


class TestTracer:
    def test_instant_converts_seconds_to_microseconds(self):
        tracer = Tracer()
        tracer.instant("login", "churn", 2.5, pid=PID_CHURN, tid=4)
        (ev,) = tracer.events
        assert ev.ph == "i"
        assert ev.ts == pytest.approx(2.5e6)
        assert (ev.pid, ev.tid) == (PID_CHURN, 4)

    def test_complete_span_carries_duration(self):
        tracer = Tracer()
        tracer.complete("query", "query", 1.0, 0.25, tid=2)
        (ev,) = tracer.events
        assert ev.ph == "X"
        assert ev.dur == pytest.approx(0.25e6)

    def test_as_dict_shapes(self):
        tracer = Tracer()
        tracer.complete("q", "query", 0.0, 1.0)
        tracer.instant("i", "query", 0.5)
        span, instant = (ev.as_dict() for ev in tracer.events)
        assert "dur" in span and "s" not in span
        assert instant["s"] == "t" and "dur" not in instant

    def test_by_category_and_summary(self):
        tracer = Tracer()
        tracer.instant("login", "churn", 0.0)
        tracer.complete("query", "query", 0.0, 1.0)
        assert len(tracer.by_category("churn")) == 1
        summary = tracer.summary()
        assert summary["events"] == 2
        assert summary["spans"] == 1
        assert summary["by_name"]["churn/login"] == 1

    def test_jsonl_roundtrip(self, tmp_path):
        tracer = Tracer()
        tracer.instant("login", "churn", 1.0, tid=5, args={"x": 1})
        tracer.complete("query", "query", 2.0, 0.5, tid=6)
        path = tracer.write_jsonl(tmp_path / "trace.jsonl")
        events = read_jsonl(path)
        assert len(events) == 2
        assert events[0]["name"] == "login"
        assert events[0]["args"] == {"x": 1}
        assert events[1]["dur"] == pytest.approx(0.5e6)


class TestNullTracer:
    def test_disabled_and_inert(self):
        assert NULL_TRACER.enabled is False
        NULL_TRACER.instant("x", "query", 0.0)
        NULL_TRACER.complete("x", "query", 0.0, 1.0)
        assert len(NULL_TRACER) == 0
        assert NULL_TRACER.events == ()


class TestEmitFloodQuery:
    def test_span_covers_issue_to_last_reply(self):
        tracer = Tracer()
        emit_flood_query(tracer, _outcome())
        span = next(ev for ev in tracer.events if ev.ph == "X")
        assert span.name == "query"
        assert span.ts == pytest.approx(100.0e6)
        assert span.dur == pytest.approx(0.2e6)  # max result delay
        assert span.args["hit"] is True
        assert span.args["messages"] == 12

    def test_empty_query_gets_nominal_duration(self):
        tracer = Tracer()
        emit_flood_query(tracer, _outcome(n_results=0))
        span = next(ev for ev in tracer.events if ev.ph == "X")
        assert span.dur == pytest.approx(1e-3 * 1e6)
        assert span.args["hit"] is False

    def test_level_ends_become_hop_children_inside_span(self):
        tracer = Tracer()
        emit_flood_query(tracer, _outcome(), level_ends=[4, 9])
        span = next(ev for ev in tracer.events if ev.ph == "X")
        hops = [ev for ev in tracer.events if ev.name.startswith("hop")]
        assert [h.args["contacted"] for h in hops] == [4, 5]
        assert [h.args["cumulative"] for h in hops] == [4, 9]
        for hop in hops:
            assert span.ts < hop.ts < span.ts + span.dur
            assert hop.tid == span.tid

    def test_without_level_ends_single_propagation_instant(self):
        tracer = Tracer()
        emit_flood_query(tracer, _outcome())
        names = [ev.name for ev in tracer.events]
        assert "propagation" in names
        assert not any(n.startswith("hop") for n in names)

    def test_hit_and_reply_instants_per_result(self):
        tracer = Tracer()
        emit_flood_query(tracer, _outcome(n_results=2))
        hits = [ev for ev in tracer.events if ev.name == "hit"]
        replies = [ev for ev in tracer.events if ev.name == "reply"]
        assert len(hits) == len(replies) == 2
        # hit at one-way delay, reply at round trip
        assert hits[0].ts == pytest.approx((100.0 + 0.05) * 1e6)
        assert replies[0].ts == pytest.approx((100.0 + 0.1) * 1e6)
        assert all(ev.pid == PID_QUERY for ev in hits + replies)
