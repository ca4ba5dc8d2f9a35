"""Record directories and crash safety: the trace (and topology stream)
must reach disk as valid, parseable JSONL even when the run dies mid-way."""

import json

import pytest

from repro.gnutella.config import GnutellaConfig
from repro.gnutella.fast import FastGnutellaEngine
from repro.obs.record import record_run
from repro.obs.trace import Tracer, read_jsonl

HOUR = 3600.0


def _config(**overrides):
    base = dict(
        n_users=40, n_items=2000, horizon=4 * HOUR, warmup_hours=0, dynamic=True
    )
    base.update(overrides)
    return GnutellaConfig(**base)


def test_record_run_dir_layout_and_summary(tmp_path):
    out = tmp_path / "run"
    summary = record_run(_config(), record_dir=out, topology_interval=HOUR).summary()
    assert sorted(p.name for p in out.iterdir()) == [
        "metrics.json",
        "summary.json",
        "topology.jsonl",
        "trace.jsonl",
    ]
    on_disk = json.loads((out / "summary.json").read_text())
    assert on_disk == summary
    assert summary["files"] == [
        "metrics.json",
        "summary.json",
        "topology.jsonl",
        "trace.jsonl",
    ]
    assert summary["engine"] == "fast"
    assert summary["run"]["total_queries"] > 0
    assert summary["convergence"] is not None
    assert len(summary["series"]["hours"]) == len(summary["series"]["recall"])
    assert len(summary["event_digest"]) == 64
    # Streams parse line by line.
    assert len(read_jsonl(out / "trace.jsonl")) == summary["trace"]["events"]
    snapshots = read_jsonl(out / "topology.jsonl")
    assert len(snapshots) == 3
    # The metrics registry picked up the topology series.
    metrics = json.loads((out / "metrics.json").read_text())
    assert "topology.churn" in metrics


def test_record_run_dir_without_topology_interval(tmp_path):
    out = tmp_path / "run"
    summary = record_run(
        _config(horizon=2 * HOUR), record_dir=out, hash_events=False
    ).summary()
    assert summary["event_digest"] is None
    assert not (out / "topology.jsonl").exists()
    assert "topology.jsonl" not in summary["files"]


def test_record_run_attaches_snapshotter():
    recorded = record_run(_config(horizon=2 * HOUR), topology_interval=HOUR)
    assert recorded.topology is not None
    assert len(recorded.topology.snapshots) == 1
    # Without a record directory nothing reaches disk.
    assert recorded.summary()["files"] == []


def test_tracer_flushed_writes_on_exception(tmp_path):
    tracer = Tracer()
    tracer.instant("before", "test", 1.0)
    path = tmp_path / "partial.jsonl"
    with pytest.raises(RuntimeError, match="boom"):
        with tracer.flushed(path):
            tracer.instant("during", "test", 2.0)
            raise RuntimeError("boom")
    events = read_jsonl(path)
    assert [ev["name"] for ev in events] == ["before", "during"]


class _Boom(RuntimeError):
    pass


def _crash_at(engine, time):
    """Schedule a mid-run failure inside the engine's event stream."""

    def boom() -> None:
        raise _Boom(f"injected crash at t={time}")

    engine.sim.schedule(time, boom)


def test_mid_run_crash_leaves_valid_trace_prefix(tmp_path, monkeypatch):
    """A simulation dying halfway through trace recording still leaves a
    parseable JSONL trace of everything up to the failure."""
    out = tmp_path / "crash-trace"
    original_run = FastGnutellaEngine.run

    def crashing_run(self):
        _crash_at(self, 2 * HOUR)
        return original_run(self)

    monkeypatch.setattr(FastGnutellaEngine, "run", crashing_run)
    with pytest.raises(_Boom):
        record_run(_config(), record_dir=out)
    trace_path = out / "trace.jsonl"
    assert trace_path.is_file()
    events = read_jsonl(trace_path)
    assert len(events) > 0
    # Everything on disk predates the crash instant (trace ts is in µs).
    assert all(ev["ts"] <= 2 * HOUR * 1e6 for ev in events)


def test_record_run_dir_crash_still_writes_trace_and_topology(
    tmp_path, monkeypatch
):
    out = tmp_path / "crashed"
    original_run = FastGnutellaEngine.run

    def crashing_run(self):
        _crash_at(self, 2 * HOUR + 1.0)
        return original_run(self)

    monkeypatch.setattr(FastGnutellaEngine, "run", crashing_run)
    with pytest.raises(_Boom):
        record_run(_config(), record_dir=out, topology_interval=HOUR)
    # summary.json never materialized (the run died), but both streams did,
    # holding everything up to the failure.
    assert not (out / "summary.json").exists()
    events = read_jsonl(out / "trace.jsonl")
    assert len(events) > 0
    snapshots = read_jsonl(out / "topology.jsonl")
    assert len(snapshots) == 2  # the 1h and 2h snapshots fired before t=2h+1
