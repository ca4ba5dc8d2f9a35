"""``repro-report``: self-contained HTML from record directories and run
manifests — no external references, convergence in the headline, charts
drawn from the recorded series."""

import json

import pytest

from repro.errors import ConfigurationError
from repro.gnutella.config import GnutellaConfig
from repro.obs.record import record_run
from repro.obs.report import main, render_report, write_report

HOUR = 3600.0


@pytest.fixture(scope="module")
def record_dir(tmp_path_factory):
    config = GnutellaConfig(
        n_users=40, n_items=2000, horizon=4 * HOUR, warmup_hours=0, dynamic=True
    )
    out = tmp_path_factory.mktemp("rec") / "run"
    record_run(config, record_dir=out, topology_interval=HOUR)
    return out


def test_record_report_is_self_contained(record_dir):
    html_text = render_report(record_dir)
    assert "http://" not in html_text
    assert "https://" not in html_text
    assert "<script" not in html_text
    assert "<link" not in html_text
    assert "src=" not in html_text


def test_record_report_has_charts_and_convergence(record_dir):
    html_text = render_report(record_dir)
    assert html_text.startswith("<!DOCTYPE html>")
    assert "time to convergence" in html_text
    assert "Convergence detector" in html_text
    assert "<svg" in html_text and "polyline" in html_text
    # Topology was recorded, so degree bars and the churn chart render.
    assert "degree distribution" in html_text
    assert "neighbor churn" in html_text
    assert "Wall-clock phases" in html_text
    assert "Event-stream digest" in html_text


def test_write_report_and_cli_on_record_dir(record_dir, capsys):
    out = record_dir / "report.html"
    assert write_report(record_dir, out) == out
    assert out.stat().st_size > 1000
    assert main([str(record_dir)]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["kind"] == "record"
    assert payload["report"] == str(record_dir / "report.html")


def test_manifest_report(tmp_path, capsys):
    manifest = {
        "schema": "repro.orchestrate/manifest/v1",
        "version": "0.0-test",
        "grid": {"preset": "tiny", "seeds": [0, 1]},
        "jobs": 2,
        "tasks": [
            {
                "task_id": "fig1/seed=0/static",
                "engine": "fast",
                "cache_hit": False,
                "result_digest": "a" * 64,
                "error": None,
                "convergence": {"converged": True, "time": 2.0},
            },
            {
                "task_id": "fig1/seed=0/dynamic",
                "engine": "fast",
                "cache_hit": True,
                "result_digest": "b" * 64,
                "error": None,
                "convergence": {"converged": False, "time": None},
            },
        ],
        "obs": {"phases": {"engine.run": {"seconds": 1.25, "count": 2}}},
        "cache": {"hits": 1, "executed": 1, "errors": 0},
    }
    path = tmp_path / "manifest.json"
    path.write_text(json.dumps(manifest))
    html_text = render_report(path)
    assert "http://" not in html_text and "https://" not in html_text
    assert "repro grid report" in html_text
    assert "fig1/seed=0/static" in html_text
    assert "2 h" in html_text  # converged task
    assert "did not converge" in html_text  # the other one
    assert "engine.run" in html_text
    assert main([str(path)]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["kind"] == "manifest"
    assert payload["report"] == str(tmp_path / "manifest.report.html")


def test_report_rejects_non_manifest_json(tmp_path):
    path = tmp_path / "other.json"
    path.write_text(json.dumps({"hello": "world"}))
    with pytest.raises(ConfigurationError):
        render_report(path)
    assert main([str(path)]) == 1


def test_report_rejects_missing_source(tmp_path):
    with pytest.raises(ConfigurationError):
        render_report(tmp_path / "nope")
    assert main([str(tmp_path / "nope")]) == 1


def test_report_rejects_dir_without_summary(tmp_path):
    (tmp_path / "empty").mkdir()
    with pytest.raises(ConfigurationError):
        render_report(tmp_path / "empty")


@pytest.fixture(scope="module")
def trial_report_dict():
    from repro.serve.loadgen import LatencySummary, LoadReport

    return LoadReport(
        mode="closed",
        connections=4,
        duration_s=2.0,
        offered_qps=None,
        requests=1000,
        ok=995,
        errors={"timeout": 5},
        dropped=0,
        achieved_qps=497.5,
        latency=LatencySummary.from_samples([0.001 * (i % 20 + 1) for i in range(200)]),
        hit_fraction=0.8,
        sim_time_start=7200.0,
        sim_time_end=7200.0,
    ).as_dict()


def test_serving_trial_report(tmp_path, trial_report_dict):
    path = tmp_path / "load.json"
    path.write_text(json.dumps(trial_report_dict))
    html_text = render_report(path)
    assert html_text.startswith("<!DOCTYPE html>")
    assert "serving report" in html_text
    assert "Latency tail" in html_text
    assert "<svg" in html_text
    assert "timeout" in html_text  # the error table names the error kind
    # Self-contained like every other report.
    assert "http://" not in html_text and "<script" not in html_text


def test_serving_sweep_report(tmp_path, trial_report_dict):
    from repro.serve.loadgen import SWEEP_SCHEMA

    steps = []
    for qps in (50.0, 100.0, 200.0):
        step = dict(trial_report_dict)
        step["mode"] = "open"
        step["offered_qps"] = qps
        step["achieved_qps"] = qps
        steps.append(step)
    sweep = {
        "schema": SWEEP_SCHEMA,
        "steps": steps,
        "offered_qps_axis": [50.0, 100.0, 200.0],
        "knee_qps": 200.0,
        "degraded_at_qps": None,
    }
    path = tmp_path / "sweep.json"
    path.write_text(json.dumps(sweep))
    html_text = render_report(path)
    assert "saturation sweep" in html_text
    assert "knee" in html_text.lower()
    assert "polyline" in html_text  # offered-vs-achieved line chart
    assert html_text.count("<svg") >= 2  # throughput + p99 charts
