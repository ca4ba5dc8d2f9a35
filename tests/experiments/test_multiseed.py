"""Tests for multi-seed replication."""

import pytest

from repro.errors import ConfigurationError
from repro.experiments import multiseed
from repro.experiments.multiseed import MetricReplication


class TestMetricReplication:
    def test_ci_shrinks_with_agreement(self):
        tight = MetricReplication("m", (10.0, 10.1, 9.9), (12.0, 12.1, 11.9), True)
        loose = MetricReplication("m", (5.0, 15.0, 10.0), (12.0, 12.1, 11.9), True)
        assert tight.static_mean_ci[1] < loose.static_mean_ci[1]

    def test_single_sample_zero_halfwidth(self):
        m = MetricReplication("m", (10.0,), (12.0,), True)
        assert m.static_mean_ci == (10.0, 0.0)

    def test_identical_samples_zero_halfwidth(self):
        m = MetricReplication("m", (10.0, 10.0), (12.0, 12.0), True)
        assert m.static_mean_ci == (10.0, 0.0)

    def test_win_fraction_higher_better(self):
        m = MetricReplication("m", (10.0, 10.0), (12.0, 8.0), True)
        assert m.dynamic_win_fraction == 0.5

    def test_win_fraction_lower_better(self):
        m = MetricReplication("m", (10.0, 10.0), (8.0, 9.0), False)
        assert m.dynamic_win_fraction == 1.0


class TestRun:
    def test_needs_two_seeds(self):
        with pytest.raises(ConfigurationError):
            multiseed.run(preset="smoke", seeds=(0,))

    def test_replication_structure(self):
        result = multiseed.run(preset="smoke", seeds=(0, 1))
        assert result.seeds == (0, 1)
        names = [m.metric for m in result.metrics]
        assert "total hits" in names
        for metric in result.metrics:
            assert len(metric.static_samples) == 2
            assert len(metric.dynamic_samples) == 2

    def test_report_prints(self, capsys):
        result = multiseed.run(preset="smoke", seeds=(0, 1))
        multiseed.print_report(result)
        out = capsys.readouterr().out
        assert "replication across 2 seeds" in out
        assert "wins" in out


class TestCliIntegration:
    def test_replicate_figure_choice(self):
        from repro.orchestrate.cli import build_parser

        args = build_parser().parse_args(["replicate", "--preset", "smoke"])
        assert args.figures == "replicate"

    def test_json_flag(self, tmp_path, capsys):
        from repro.orchestrate.cli import main

        target = tmp_path / "fig1.json"
        assert main(["fig1", "--preset", "smoke", "--json", str(target)]) == 0
        assert target.exists()
        assert "json written" in capsys.readouterr().out

    def test_all_excludes_replicate(self, capsys):
        from repro.orchestrate.cli import main

        assert main(["all", "--preset", "smoke"]) == 0
        out = capsys.readouterr().out
        assert "replication across" not in out
        assert "Figure 3(b)" in out
