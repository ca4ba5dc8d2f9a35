"""Telemetry neutrality: the live-telemetry plane is pure observation.

Same gate style as ``tests/gnutella/test_trace_digest.py``: a run with the
exposition sidecar, rolling windows, and access logging all enabled must
produce an event-stream digest bit-identical to a plain run's, on every
engine.
"""

import json
import urllib.request

import pytest

from repro.gnutella.config import GnutellaConfig
from repro.gnutella.simulation import simulate
from repro.obs.record import record_run
from repro.obs.telemetry.accesslog import ACCESS_LOG_SCHEMA
from repro.obs.telemetry.exposition import parse_prometheus


def _config(**overrides) -> GnutellaConfig:
    base = dict(
        n_users=25,
        n_items=1000,
        horizon=2 * 3600.0,
        warmup_hours=0,
        dynamic=True,
    )
    base.update(overrides)
    return GnutellaConfig(**base)


@pytest.mark.parametrize("engine", ["fast", "fast-reference", "detailed"])
def test_telemetered_run_digest_matches_plain(engine, tmp_path):
    config = _config()
    plain = simulate(config, engine, hash_events=True).event_digest
    recorded = record_run(
        config,
        engine,
        telemetry_port=0,
        access_log=tmp_path / "access.jsonl",
        access_log_sample=0.5,
    )
    assert recorded.event_digest == plain
    # And the plane actually observed the run, not an empty world.
    snapshot = recorded.registry.snapshot()
    queries = snapshot["telemetry.queries"]["values"]
    assert sum(queries.values()) > 0
    assert recorded.telemetry_port not in (None, 0)
    assert recorded.access_log_lines is not None


def test_live_telemetry_populates_rolling_and_histogram():
    recorded = record_run(_config(), "fast", telemetry_port=0)
    snapshot = recorded.registry.snapshot()
    hist = snapshot["telemetry.query_seconds"]["values"][""]
    assert hist["count"] > 0
    assert hist["sum"] >= 0.0
    # Rolling gauges published under the default serve prefix, keyed by
    # simulated seconds (windows stay meaningful without a wall clock).
    rolling = snapshot["serve.rolling_qps"]["values"]
    assert any("window=" in label for label in rolling)


def test_sidecar_scrape_during_run_is_parseable():
    """The exposition sidecar serves a valid document while bound."""
    from repro.obs.telemetry.exposition import render_prometheus
    from repro.obs.telemetry.httpd import TelemetrySidecar

    recorded = record_run(_config(), "fast", telemetry_port=0)
    # The run's sidecar is torn down with the run; re-serve its registry
    # to exercise the exact scrape path repro-top uses.
    with TelemetrySidecar(
        lambda: render_prometheus(recorded.registry.snapshot())
    ) as sidecar:
        with urllib.request.urlopen(sidecar.url, timeout=5.0) as response:
            parsed = parse_prometheus(response.read().decode("utf-8"))
    assert "telemetry_queries" in parsed
    assert "telemetry_query_seconds_bucket" in parsed


def test_access_log_lines_are_schema_valid(tmp_path):
    log_path = tmp_path / "access.jsonl"
    recorded = record_run(_config(), "fast", access_log=log_path)
    lines = [json.loads(line) for line in log_path.read_text().splitlines()]
    assert len(lines) == recorded.access_log_lines > 0
    for line in lines:
        assert line["schema"] == ACCESS_LOG_SCHEMA
        assert line["op"] == "query"
        assert line["trace_id"].startswith("q-")
        assert line["outcome"] in ("hit", "miss")
        assert line["service_s"] >= 0.0


def test_sampled_access_log_is_a_stable_subset(tmp_path):
    """Hash-based sampling: a sampled run logs a subset of the full run's
    trace ids, identically on every repetition."""
    config = _config()
    full = tmp_path / "full.jsonl"
    half_a = tmp_path / "half-a.jsonl"
    half_b = tmp_path / "half-b.jsonl"
    record_run(config, "fast", access_log=full, access_log_sample=1.0)
    record_run(config, "fast", access_log=half_a, access_log_sample=0.5)
    record_run(config, "fast", access_log=half_b, access_log_sample=0.5)

    def ids(path):
        return [json.loads(line)["trace_id"] for line in path.read_text().splitlines()]

    assert ids(half_a) == ids(half_b)
    assert set(ids(half_a)) <= set(ids(full))
    assert 0 < len(ids(half_a)) < len(ids(full))


def test_record_run_dir_writes_telemetry_block_and_access_log(tmp_path):
    out = tmp_path / "record"
    summary = record_run(
        _config(),
        "fast",
        record_dir=out,
        telemetry_port=0,
        access_log="access.jsonl",
    ).summary()
    telemetry = summary["telemetry"]
    assert telemetry["port"] not in (None, 0)
    assert telemetry["access_log"] == str(out / "access.jsonl")
    assert telemetry["access_log_lines"] > 0
    assert "access.jsonl" in summary["files"]
    # The relative access-log path landed inside the record directory.
    assert (out / "access.jsonl").exists()
    assert len((out / "access.jsonl").read_text().splitlines()) == (
        telemetry["access_log_lines"]
    )
