"""``repro-bench compare``: the kernel-timing regression gate. An injected
2x slowdown must fail the gate; parameter mismatches are skipped, not
misjudged; the legacy flag interface keeps working next to the subcommand."""

import copy
import json
from pathlib import Path

import pytest

from repro.bench.compare import DEFAULT_THRESHOLD, compare_snapshots
from repro.bench.compare import main as compare_main
from repro.errors import ConfigurationError


@pytest.fixture()
def baseline():
    return {
        "rev": "aaaa111",
        "kernels": {
            "flood_search_default": {
                "fastpath_us_per_query": 7.0,
                "reference_us_per_query": 16.0,
                "speedup": 2.3,
                "n_users": 300.0,
                "queries": 2000.0,
            },
            "event_queue": {
                "events": 20000.0,
                "events_per_sec": 115000.0,
                "seconds": 0.17,
            },
        },
    }


def test_identical_snapshots_pass(baseline):
    report = compare_snapshots(baseline, baseline)
    assert report.ok
    assert report.regressions == ()
    assert len(report.deltas) == 5  # 3 flood metrics + 2 event_queue metrics
    assert report.skipped == ()
    assert report.threshold == DEFAULT_THRESHOLD


def test_injected_2x_slowdown_fails(baseline):
    slow = copy.deepcopy(baseline)
    slow["rev"] = "bbbb222"
    slow["kernels"]["flood_search_default"]["fastpath_us_per_query"] *= 2.0
    report = compare_snapshots(baseline, slow)
    assert not report.ok
    (regression,) = report.regressions
    assert regression.kernel == "flood_search_default"
    assert regression.metric == "fastpath_us_per_query"
    assert regression.ratio == pytest.approx(2.0)
    assert report.as_dict()["ok"] is False


def test_throughput_drop_is_a_regression(baseline):
    slower = copy.deepcopy(baseline)
    slower["kernels"]["event_queue"]["events_per_sec"] = 50000.0
    report = compare_snapshots(baseline, slower)
    assert not report.ok
    (regression,) = report.regressions
    assert regression.metric == "events_per_sec"
    assert regression.direction == "higher"


def test_small_jitter_within_threshold_passes(baseline):
    noisy = copy.deepcopy(baseline)
    noisy["kernels"]["event_queue"]["seconds"] *= 1.10  # 10% < 15%
    assert compare_snapshots(baseline, noisy).ok


def test_threshold_is_adjustable(baseline):
    noisy = copy.deepcopy(baseline)
    noisy["kernels"]["event_queue"]["seconds"] *= 1.30
    assert not compare_snapshots(baseline, noisy).ok
    assert compare_snapshots(baseline, noisy, threshold=0.5).ok
    with pytest.raises(ConfigurationError):
        compare_snapshots(baseline, noisy, threshold=-0.1)


def test_parameter_mismatch_skips_kernel(baseline):
    bigger = copy.deepcopy(baseline)
    bigger["kernels"]["flood_search_default"]["n_users"] = 600.0
    bigger["kernels"]["flood_search_default"]["fastpath_us_per_query"] = 99.0
    report = compare_snapshots(baseline, bigger)
    assert report.ok  # the 99 us timing was never judged
    assert any("parameters differ" in note for note in report.skipped)
    assert all(d.kernel != "flood_search_default" for d in report.deltas)


def test_missing_and_new_kernels_are_noted(baseline):
    pruned = copy.deepcopy(baseline)
    del pruned["kernels"]["event_queue"]
    pruned["kernels"]["brand_new"] = {"seconds": 1.0}
    report = compare_snapshots(baseline, pruned)
    assert report.ok
    assert any("missing from new" in note for note in report.skipped)
    assert any("is new" in note for note in report.skipped)


def _write(tmp_path, name, document):
    path = tmp_path / name
    path.write_text(json.dumps(document))
    return str(path)


def test_cli_exit_codes_and_output(tmp_path, baseline, capsys):
    slow = copy.deepcopy(baseline)
    slow["kernels"]["flood_search_default"]["fastpath_us_per_query"] *= 2.0
    old = _write(tmp_path, "old.json", baseline)
    new = _write(tmp_path, "new.json", slow)
    assert compare_main([old, old]) == 0
    capsys.readouterr()
    assert compare_main([old, new]) == 1
    captured = capsys.readouterr()
    assert "REGRESSION" in captured.err
    payload = json.loads(captured.out)
    assert payload["ok"] is False
    assert payload["regressions"][0]["metric"] == "fastpath_us_per_query"
    # Loosening the threshold past 2x lets it pass.
    assert compare_main([old, new, "--threshold", "1.5"]) == 0


def test_cli_rejects_non_snapshot_input(tmp_path, capsys):
    bogus = _write(tmp_path, "bogus.json", {"not": "a snapshot"})
    assert compare_main([bogus, bogus]) == 2
    assert "error" in capsys.readouterr().err


def test_repro_bench_dispatches_compare_subcommand(tmp_path, baseline, capsys):
    from repro.bench.cli import main as bench_main

    slow = copy.deepcopy(baseline)
    slow["kernels"]["event_queue"]["seconds"] *= 3.0
    old = _write(tmp_path, "old.json", baseline)
    new = _write(tmp_path, "new.json", slow)
    assert bench_main(["compare", old, old]) == 0
    capsys.readouterr()
    assert bench_main(["compare", old, new]) == 1


_COMMITTED_BASELINE = Path(__file__).resolve().parents[2] / "BENCH_e3f1347.json"


def test_committed_baseline_compares_against_itself():
    snapshot = json.loads(_COMMITTED_BASELINE.read_text())
    report = compare_snapshots(snapshot, snapshot)
    assert report.ok
    assert len(report.deltas) >= 4


def test_committed_baseline_against_snapshot_without_profile_data(tmp_path, capsys):
    # The committed baseline still carries a ``profile`` block and per-tier
    # ``event_types`` tables; snapshots written now carry neither. Both are
    # ignored, exactly as CI's ``repro-bench compare`` step sees them.
    snapshot = json.loads(_COMMITTED_BASELINE.read_text())
    assert "profile" in snapshot
    assert any("event_types" in tier for tier in snapshot["scale"].values())
    current = copy.deepcopy(snapshot)
    del current["profile"]
    for tier in current["scale"].values():
        tier.pop("event_types", None)
    report = compare_snapshots(snapshot, current)
    assert report.ok
    assert not any("profile" in note for note in report.skipped)
    old = _write(tmp_path, "old.json", snapshot)
    new = _write(tmp_path, "new.json", current)
    assert compare_main([old, new]) == 0
    captured = capsys.readouterr()
    assert json.loads(captured.out)["ok"] is True
    assert "profile" not in captured.out + captured.err


@pytest.fixture()
def baseline_with_serving(baseline):
    snapshot = copy.deepcopy(baseline)
    snapshot["serving"] = {
        "closed_loop": {
            "connections": 4.0,
            "trial_duration": 1.5,
            "n_users": 40.0,
            "requests_per_sec": 5000.0,
            "p50_seconds": 0.0002,
            "p95_seconds": 0.0005,
            "p99_seconds": 0.001,
        }
    }
    return snapshot


def test_serving_section_judged_like_kernels(baseline_with_serving):
    report = compare_snapshots(baseline_with_serving, baseline_with_serving)
    assert report.ok
    serving_deltas = [d for d in report.deltas if d.kernel.startswith("serving:")]
    assert len(serving_deltas) == 4  # requests_per_sec + three latency tails


def test_serving_throughput_drop_is_a_regression(baseline_with_serving):
    slow = copy.deepcopy(baseline_with_serving)
    slow["serving"]["closed_loop"]["requests_per_sec"] = 2000.0
    report = compare_snapshots(baseline_with_serving, slow)
    assert not report.ok
    (regression,) = report.regressions
    assert regression.kernel == "serving:closed_loop"
    assert regression.metric == "requests_per_sec"
    assert regression.direction == "higher"


def test_serving_tail_inflation_is_a_regression(baseline_with_serving):
    slow = copy.deepcopy(baseline_with_serving)
    slow["serving"]["closed_loop"]["p99_seconds"] *= 3.0
    report = compare_snapshots(baseline_with_serving, slow)
    assert not report.ok
    assert any(r.metric == "p99_seconds" for r in report.regressions)


def test_serving_param_change_skips_not_misjudges(baseline_with_serving):
    changed = copy.deepcopy(baseline_with_serving)
    changed["serving"]["closed_loop"]["connections"] = 16.0
    changed["serving"]["closed_loop"]["requests_per_sec"] = 1.0
    report = compare_snapshots(baseline_with_serving, changed)
    assert report.ok
    assert any(
        "serving section 'closed_loop'" in note and "parameters differ" in note
        for note in report.skipped
    )


def test_serving_section_new_in_new_snapshot_is_noted(baseline, baseline_with_serving):
    # Old snapshots predate the serving bench: comparing must not fail.
    report = compare_snapshots(baseline, baseline_with_serving)
    assert report.ok
    assert any(
        "serving section 'closed_loop'" in note and "is new" in note
        for note in report.skipped
    )


def test_serving_section_absent_from_both_is_fine(baseline):
    assert compare_snapshots(baseline, baseline).ok


class TestHostWarning:
    def _hosted(self, baseline, cpu="Xeon", cores=8, plat="Linux-x86_64"):
        snapshot = copy.deepcopy(baseline)
        snapshot["host"] = {"cpu": cpu, "cores": cores, "platform": plat}
        return snapshot

    def test_same_host_no_warning(self, baseline):
        a = self._hosted(baseline)
        report = compare_snapshots(a, a)
        assert report.host_warning is None
        assert report.as_dict()["host_warning"] is None

    def test_differing_cpu_warns_but_still_judges(self, baseline):
        old = self._hosted(baseline, cpu="Xeon")
        new = self._hosted(baseline, cpu="EPYC")
        new["kernels"]["event_queue"]["seconds"] *= 2.0
        report = compare_snapshots(old, new)
        assert report.host_warning is not None
        assert "'Xeon' vs 'EPYC'" in report.host_warning
        assert not report.ok  # warned, not excused

    def test_missing_host_blocks_compare_silently(self, baseline):
        # Pre-provenance snapshots have no host block: no warning.
        hosted = self._hosted(baseline)
        assert compare_snapshots(baseline, hosted).host_warning is None
        assert compare_snapshots(hosted, baseline).host_warning is None
        assert compare_snapshots(baseline, baseline).host_warning is None

    def test_cli_prints_host_warning(self, tmp_path, baseline, capsys):
        old = self._hosted(baseline, cores=8)
        new = self._hosted(baseline, cores=64)
        assert compare_main(
            [_write(tmp_path, "old.json", old), _write(tmp_path, "new.json", new)]
        ) == 0
        assert "WARNING" in capsys.readouterr().err
