"""Tests for the ``repro-bench`` CLI (snapshot writing, digest-gate exit code).

The heavy benchmark bodies are stubbed out — their correctness is covered by
``tests/core``/``tests/gnutella`` and by the bench CI job — so these tests
pin down only the CLI contract: argument handling, the ``BENCH_<rev>.json``
snapshot schema, and the non-zero exit status on a digest mismatch.
"""

import json

import pytest

from repro.bench import cli
from repro.bench.kernels import KernelReport
from repro.bench.macro import DigestGateReport, FigureReport


def _fake_kernels(log=None):
    report = KernelReport()
    report.event_queue = {"events": 10.0, "seconds": 0.1, "events_per_sec": 100.0}
    report.flood_search = {
        "n_users": 300.0,
        "max_hops": 2.0,
        "queries": 2000.0,
        "fastpath_us_per_query": 7.0,
        "reference_us_per_query": 16.0,
        "speedup": 16.0 / 7.0,
    }
    report.delay_matrix = {"n_users": 600.0, "seconds": 0.02}
    return report


def _fake_gate(match):
    def gate(preset="smoke", seed=0, log=None):
        return DigestGateReport(
            preset=preset,
            seed=seed,
            fast_digest="a" * 64,
            reference_digest=("a" if match else "b") * 64,
        )

    return gate


def _fake_figure(preset="smoke", seed=0):
    return FigureReport(
        preset=preset,
        seed=seed,
        max_hops=2,
        seconds=1.5,
        static_hits=10,
        dynamic_hits=12,
        static_messages=100,
        dynamic_messages=90,
    )


@pytest.fixture
def stubbed_cli(monkeypatch):
    monkeypatch.setattr(cli, "run_kernels", _fake_kernels)
    monkeypatch.setattr(cli, "digest_gate", _fake_gate(match=True))
    monkeypatch.setattr(cli, "figure_smoke", _fake_figure)
    monkeypatch.setattr(cli, "_git_rev", lambda: "abc1234")
    return cli


def test_writes_snapshot(stubbed_cli, tmp_path, capsys):
    status = stubbed_cli.main(["--skip-figures", "--output-dir", str(tmp_path)])
    assert status == 0
    out_path = tmp_path / "BENCH_abc1234.json"
    snapshot = json.loads(out_path.read_text())
    assert snapshot["schema"] == 1
    assert snapshot["rev"] == "abc1234"
    assert snapshot["preset"] == "smoke"
    assert snapshot["kernels"]["flood_search_default"]["speedup"] > 2.0
    assert snapshot["digest_gate"]["match"] is True
    assert "figures" not in snapshot
    assert "bit-identical" in capsys.readouterr().out


def test_output_dir_created_if_missing(stubbed_cli, tmp_path):
    target = tmp_path / "nested" / "dir"
    status = stubbed_cli.main(["--skip-figures", "--output-dir", str(target)])
    assert status == 0
    assert (target / "BENCH_abc1234.json").is_file()


def test_figures_included_by_default(stubbed_cli, tmp_path):
    status = stubbed_cli.main(["--smoke", "--output-dir", str(tmp_path)])
    assert status == 0
    snapshot = json.loads((tmp_path / "BENCH_abc1234.json").read_text())
    assert snapshot["figures"]["figure1"]["static_hits"] == 10


def test_smoke_flag_overrides_preset(stubbed_cli, tmp_path):
    stubbed_cli.main(
        ["--smoke", "--preset", "paper", "--skip-figures", "--output-dir", str(tmp_path)]
    )
    snapshot = json.loads((tmp_path / "BENCH_abc1234.json").read_text())
    assert snapshot["preset"] == "smoke"


def test_digest_mismatch_fails(stubbed_cli, monkeypatch, tmp_path, capsys):
    monkeypatch.setattr(cli, "digest_gate", _fake_gate(match=False))
    status = stubbed_cli.main(["--skip-figures", "--output-dir", str(tmp_path)])
    assert status == 1
    assert "FAIL" in capsys.readouterr().out
    # The snapshot is still written so the mismatch can be inspected.
    snapshot = json.loads((tmp_path / "BENCH_abc1234.json").read_text())
    assert snapshot["digest_gate"]["match"] is False


def test_seed_passthrough(stubbed_cli, monkeypatch, tmp_path):
    seen = {}

    def gate(preset="smoke", seed=0, log=None):
        seen["seed"] = seed
        return _fake_gate(match=True)(preset=preset, seed=seed)

    monkeypatch.setattr(cli, "digest_gate", gate)
    stubbed_cli.main(["--skip-figures", "--seed", "42", "--output-dir", str(tmp_path)])
    assert seen["seed"] == 42


def test_host_provenance_always_in_snapshot(stubbed_cli, monkeypatch, tmp_path):
    fake_host = {"cpu": "Test CPU", "cores": 4, "platform": "TestOS-1.0"}
    monkeypatch.setattr(cli, "host_provenance", lambda: fake_host)
    stubbed_cli.main(["--skip-figures", "--output-dir", str(tmp_path)])
    snapshot = json.loads((tmp_path / "BENCH_abc1234.json").read_text())
    assert snapshot["host"] == fake_host

