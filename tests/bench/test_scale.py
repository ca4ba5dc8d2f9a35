"""Scale tiers: tiny-population end-to-end run, and the compare judging of
the snapshot's ``scale`` block (including the peak-RSS memory column)."""

import copy
import types

import pytest

from repro.bench.compare import compare_snapshots
from repro.bench.scale import (
    DEFAULT_SCALE_TIERS,
    run_scale_tier,
    run_scale_tiers,
    scale_config,
)
from repro.errors import ConfigurationError


class TestScaleConfig:
    def test_catalog_scales_with_population(self):
        cfg = scale_config(400, seed=3)
        assert cfg.n_users == 400
        assert cfg.n_items == 20 * 400
        assert cfg.dynamic
        assert cfg.seed == 3
        assert cfg.warmup_hours == 0

    def test_too_small_rejected(self):
        with pytest.raises(ConfigurationError):
            scale_config(1)

    def test_default_tiers(self):
        assert DEFAULT_SCALE_TIERS == (10_000, 50_000)


class TestRunScaleTier:
    def test_tiny_tier_reports_everything(self):
        report = run_scale_tier(120, seed=1, digest_check=True)
        assert report.n_users == 120
        assert report.events_executed > 0
        assert report.events_per_sec > 0
        assert report.queries > 0
        assert report.run_seconds > 0
        assert report.wall_seconds >= report.run_seconds
        assert report.peak_rss_mb > 0
        assert report.digest_match is True
        assert report.fast_digest
        d = report.as_dict()
        assert d["digest_match"] is True
        assert d["events_per_sec"] == report.events_per_sec

    def test_zero_run_time_logs_zero_rate(self, monkeypatch):
        # A clock too coarse to see the run: the log line divides like the
        # report does, by the guarded value.
        monkeypatch.setattr(
            "repro.bench.scale.time", types.SimpleNamespace(perf_counter=lambda: 0.0)
        )
        logs = []
        report = run_scale_tier(120, seed=1, log=logs.append)
        assert report.run_seconds == 0.0
        assert report.events_per_sec == 0.0
        assert "(0/s)" in logs[0]

    def test_digest_skip_omits_gate_fields(self):
        report = run_scale_tier(120, seed=1, digest_check=False)
        assert report.digest_match is None
        d = report.as_dict()
        assert "digest_match" not in d and "fast_digest" not in d

    def test_run_scale_tiers_sorted_ascending_and_keyed(self):
        logs = []
        reports = run_scale_tiers(
            [150, 120], seed=1, digest_max_users=130, log=logs.append
        )
        assert list(reports) == ["120", "150"]
        assert reports["120"].digest_match is True
        assert reports["150"].digest_match is None  # above digest_max_users
        assert any("scale 120" in line for line in logs)

    def test_empty_tiers_rejected(self):
        with pytest.raises(ConfigurationError):
            run_scale_tiers([])


@pytest.fixture()
def scale_baseline():
    return {
        "rev": "aaaa111",
        "kernels": {},
        "scale": {
            "10000": {
                "n_users": 10000,
                "n_items": 200000,
                "horizon_hours": 2.0,
                "setup_seconds": 7.0,
                "run_seconds": 6.0,
                "wall_seconds": 13.0,
                "events_executed": 100000,
                "events_per_sec": 16000.0,
                "queries": 80000,
                "hits": 6400,
                "peak_rss_mb": 180.0,
                "digest_match": True,
                "fast_digest": "abc",
            }
        },
    }


class TestCompareScaleBlock:
    def test_identical_pass(self, scale_baseline):
        report = compare_snapshots(scale_baseline, scale_baseline)
        assert report.ok
        judged = {d.metric for d in report.deltas if d.kernel == "scale:10000"}
        assert judged == {
            "setup_seconds",
            "run_seconds",
            "wall_seconds",
            "events_per_sec",
            "peak_rss_mb",
        }

    def test_rss_growth_is_a_regression(self, scale_baseline):
        fat = copy.deepcopy(scale_baseline)
        fat["scale"]["10000"]["peak_rss_mb"] = 400.0
        report = compare_snapshots(scale_baseline, fat)
        assert not report.ok
        (regression,) = report.regressions
        assert regression.kernel == "scale:10000"
        assert regression.metric == "peak_rss_mb"
        assert regression.direction == "lower"

    def test_throughput_drop_is_a_regression(self, scale_baseline):
        slow = copy.deepcopy(scale_baseline)
        slow["scale"]["10000"]["events_per_sec"] = 8000.0
        report = compare_snapshots(scale_baseline, slow)
        assert not report.ok
        assert report.regressions[0].metric == "events_per_sec"

    def test_behaviour_change_skips_tier(self, scale_baseline):
        diverged = copy.deepcopy(scale_baseline)
        diverged["scale"]["10000"]["queries"] = 79999
        report = compare_snapshots(scale_baseline, diverged)
        assert report.ok  # skipped, not judged
        assert any("scale tier '10000'" in note for note in report.skipped)

    def test_new_tier_noted_not_judged(self, scale_baseline):
        grown = copy.deepcopy(scale_baseline)
        grown["scale"]["100000"] = dict(grown["scale"]["10000"], n_users=100000)
        report = compare_snapshots(scale_baseline, grown)
        assert report.ok
        assert any("100000" in note and "new" in note for note in report.skipped)

    def test_event_type_table_is_invisible_to_the_comparator(self, scale_baseline):
        # The nested per-event-type table (the committed BENCH_e3f1347.json
        # still carries one per tier; tiers no longer write it) is neither a
        # judged metric nor a workload parameter: its presence, absence, or
        # drift must not change any verdict.
        enriched = copy.deepcopy(scale_baseline)
        enriched["scale"]["10000"]["event_types"] = {
            "fastpath.search": {
                "events": 80000, "seconds": 2.0, "events_per_sec": 40000.0
            }
        }
        assert compare_snapshots(scale_baseline, enriched).ok
        assert compare_snapshots(enriched, scale_baseline).ok
        drifted = copy.deepcopy(enriched)
        drifted["scale"]["10000"]["event_types"]["fastpath.search"]["seconds"] = 99.0
        report = compare_snapshots(enriched, drifted)
        assert report.ok
        assert report.skipped == ()
