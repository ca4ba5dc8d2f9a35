"""Tests for the figure runners (smoke scale)."""

import pytest

from repro.analysis import compare_runs
from repro.errors import ConfigurationError
from repro.experiments import figure1, figure2, figure3a, figure3b, preset_config
from repro.experiments.common import PRESETS, paired_run


class TestPresets:
    def test_known_presets(self):
        assert {"paper", "scaled", "smoke"} <= set(PRESETS)

    def test_paper_preset_matches_section_42(self):
        cfg = PRESETS["paper"]
        assert cfg.n_users == 2000
        assert cfg.n_items == 200_000
        assert cfg.horizon == 4 * 24 * 3600.0
        assert cfg.warmup_hours == 12

    def test_preset_config_overrides(self):
        cfg = preset_config("smoke", seed=9, max_hops=4)
        assert cfg.seed == 9
        assert cfg.max_hops == 4

    def test_unknown_preset(self):
        with pytest.raises(ConfigurationError):
            preset_config("gigantic")


class TestPairedRun:
    def test_returns_both_schemes(self):
        static, dynamic = paired_run(preset_config("smoke", seed=1))
        assert not static.config.dynamic
        assert dynamic.config.dynamic
        assert static.metrics.total_queries == dynamic.metrics.total_queries

    def test_compare_runs_rows(self):
        static, dynamic = paired_run(preset_config("smoke", seed=1))
        rows = compare_runs(static, dynamic)
        metrics = [r.metric for r in rows]
        assert "total hits" in metrics
        assert all(isinstance(r.format(), str) for r in rows)


@pytest.fixture(scope="module")
def fig1_result():
    return figure1.run(preset="smoke", seed=0)


class TestFigure1:
    def test_series_shapes(self, fig1_result):
        r = fig1_result
        n = len(r.hours)
        assert n == r.static.config.horizon_hours - r.static.config.warmup_hours
        for series in (r.static_hits, r.dynamic_hits, r.static_messages,
                       r.dynamic_messages):
            assert len(series) == n

    def test_dynamic_wins_hits(self, fig1_result):
        assert fig1_result.dynamic_hits.sum() > fig1_result.static_hits.sum()

    def test_report_prints(self, fig1_result, capsys):
        figure1.print_report(fig1_result)
        out = capsys.readouterr().out
        assert "panel (a)" in out and "panel (b)" in out
        assert "Dynamic_Gnutella" in out


class TestFigure2:
    def test_uses_ttl4(self):
        r = figure2.run(preset="smoke", seed=0)
        assert r.max_hops == 4
        assert r.static.config.max_hops == 4

    def test_report_prints(self, capsys):
        figure2.print_report(figure2.run(preset="smoke", seed=0))
        assert "hops = 4" in capsys.readouterr().out


class TestFigure3a:
    def test_sweep_and_shape(self, capsys):
        r = figure3a.run(preset="smoke", seed=0, hops_sweep=(1, 2))
        assert r.hops == (1, 2)
        assert r.static_delay_ms[0] < r.static_delay_ms[1]
        figure3a.print_report(r)
        assert "hops=1" in capsys.readouterr().out


class TestFigure3b:
    def test_sweep_and_baseline(self, capsys):
        r = figure3b.run(preset="smoke", seed=0, thresholds=(2, 16))
        assert r.thresholds == (2, 16)
        assert r.static_hits > 0
        assert max(r.dynamic_hits) > r.static_hits
        assert r.best_threshold in (2, 16)
        figure3b.print_report(r)
        assert "static baseline hits" in capsys.readouterr().out

