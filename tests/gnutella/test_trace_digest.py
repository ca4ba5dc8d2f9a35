"""Tracing must be pure observation: traced and untraced event-stream
digests are bit-identical, and the recorded trace is a valid Chrome
document with per-hop query structure — the PR's two acceptance gates."""

import pytest

from repro.errors import ConfigurationError
from repro.gnutella.config import GnutellaConfig
from repro.gnutella.simulation import build_engine, simulate
from repro.obs.chrome import to_chrome, validate_chrome
from repro.obs.record import record_run
from repro.obs.trace import Tracer


def _config(**overrides) -> GnutellaConfig:
    base = dict(
        n_users=40,
        n_items=2000,
        horizon=4 * 3600.0,
        warmup_hours=0,
        dynamic=True,
    )
    base.update(overrides)
    return GnutellaConfig(**base)


@pytest.mark.parametrize("engine", ["fast", "fast-reference", "detailed"])
def test_traced_run_digest_matches_untraced(engine):
    config = _config(n_users=25, n_items=1000, horizon=2 * 3600.0)
    untraced = simulate(config, engine, hash_events=True).event_digest
    recorded = record_run(config, engine)
    assert recorded.event_digest == untraced
    assert len(recorded.tracer.events) > 0


def test_trace_has_query_span_with_hop_children():
    recorded = record_run(_config(), "fast")
    spans = [
        ev
        for ev in recorded.tracer.events
        if ev.ph == "X" and ev.name == "query" and ev.args.get("hit")
    ]
    assert spans, "expected at least one hit query span"
    hops = [ev for ev in recorded.tracer.events if ev.name.startswith("hop")]
    assert hops, "expected per-hop child events"
    span = spans[0]
    children = [
        h
        for h in hops
        if h.tid == span.tid and span.ts <= h.ts <= span.ts + span.dur
    ]
    assert children, "query span should contain per-hop children"


def test_trace_exports_as_valid_chrome_document():
    recorded = record_run(_config(horizon=2 * 3600.0), "fast")
    assert validate_chrome(to_chrome(recorded.tracer.events)) == []


def test_detailed_engine_traces_real_hop_times():
    config = _config(n_users=25, n_items=1000, horizon=2 * 3600.0)
    recorded = record_run(config, "detailed")
    spans = [ev for ev in recorded.tracer.events if ev.ph == "X"]
    hops = [ev for ev in recorded.tracer.events if ev.name.startswith("hop")]
    assert spans and hops
    # hop instants carry the real message arrival time (inside some span's
    # window) and the measured hop count.
    assert all(ev.args["hop"] >= 1 for ev in hops)


def test_attach_tracer_after_run_is_rejected():
    config = _config(n_users=20, n_items=500, horizon=3600.0)
    eng = build_engine(config, "fast")
    eng.run()
    with pytest.raises(ConfigurationError):
        eng.attach_tracer(Tracer())


def test_record_run_profiles_phases_and_binds_metrics():
    recorded = record_run(_config(horizon=2 * 3600.0), "fast")
    # Phases are taken around the engine only; nothing inside it is timed.
    assert set(recorded.timers.as_dict()) == {
        "engine.setup",
        "engine.run",
        "engine.teardown",
    }
    snapshot = recorded.registry.snapshot()
    assert snapshot["sim.total_queries"]["value"] == (
        recorded.result.metrics.total_queries
    )
    summary = recorded.summary()
    assert summary["trace"]["events"] == len(recorded.tracer.events)
    assert summary["event_digest"] == recorded.event_digest


@pytest.mark.parametrize("engine", ["fast", "fast-reference", "detailed"])
def test_snapshotted_run_digest_matches_plain(engine):
    """The topology snapshotter is pure observation: a snapshotted run's
    event-stream digest is bit-identical to a plain run's, on every
    engine."""
    config = _config(n_users=25, n_items=1000, horizon=2 * 3600.0)
    plain = simulate(config, engine, hash_events=True).event_digest
    recorded = record_run(config, engine, topology_interval=3600.0)
    assert recorded.event_digest == plain
    assert recorded.topology is not None
    assert len(recorded.topology.snapshots) >= 1
    # And the snapshots actually saw the overlay, not an empty world.
    assert all(s.n_online > 0 for s in recorded.topology.snapshots)
