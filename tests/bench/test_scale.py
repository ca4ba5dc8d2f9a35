"""Scale tiers: the tier configuration and a tiny-population end-to-end run."""

import json
import types

import pytest

from repro.bench.scale import (
    DEFAULT_SCALE_TIERS,
    main,
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
        report = run_scale_tier(120, seed=1)
        assert report.n_users == 120
        assert report.events_executed > 0
        assert report.events_per_sec > 0
        assert report.queries > 0
        assert report.run_seconds > 0
        assert report.wall_seconds >= report.run_seconds
        assert report.peak_rss_mb > 0

    def test_zero_run_time_logs_zero_rate(self, monkeypatch, capsys):
        # A clock too coarse to see the run: the printed row carries the
        # guarded rate, not a ZeroDivisionError.
        monkeypatch.setattr(
            "repro.bench.scale.time", types.SimpleNamespace(perf_counter=lambda: 0.0)
        )
        assert main(["120"]) == 0
        row = json.loads(capsys.readouterr().out)
        assert row["run_seconds"] == 0.0
        assert row["events_per_sec"] == 0.0

    def test_run_scale_tiers_sorted_ascending_and_keyed(self):
        reports = run_scale_tiers([150, 120, 150], seed=1)
        assert list(reports) == ["120", "150"]
        assert reports["150"].n_users == 150

    def test_empty_tiers_rejected(self):
        with pytest.raises(ConfigurationError):
            run_scale_tiers([])

