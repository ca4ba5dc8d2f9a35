"""The repro-experiments CLI: argument parsing and end-to-end smoke."""

import json

import pytest

from repro.errors import ConfigurationError
from repro.orchestrate.cli import (
    CACHE_DIR_ENV,
    build_parser,
    default_cache_dir,
    main,
    parse_figures,
    parse_overrides,
    parse_seeds,
)

from .conftest import TINY_ARGS


class TestParseFigures:
    def test_all_excludes_replicate(self):
        assert parse_figures("all") == ("fig1", "fig2", "fig3a", "fig3b")

    def test_comma_list(self):
        assert parse_figures("fig1, fig3b") == ("fig1", "fig3b")

    def test_unknown_rejected(self):
        with pytest.raises(ConfigurationError):
            parse_figures("fig9")

    def test_empty_rejected(self):
        with pytest.raises(ConfigurationError):
            parse_figures(",")


class TestParseSeeds:
    def test_comma_list(self):
        assert parse_seeds("0,5,7") == (0, 5, 7)

    def test_range(self):
        assert parse_seeds("0-3") == (0, 1, 2, 3)

    def test_mixed(self):
        assert parse_seeds("9,0-2") == (9, 0, 1, 2)

    def test_negative_seed(self):
        assert parse_seeds("-1") == (-1,)

    def test_duplicates_rejected(self):
        with pytest.raises(ConfigurationError):
            parse_seeds("1,1")
        with pytest.raises(ConfigurationError):
            parse_seeds("0-2,1")

    def test_empty_and_malformed_rejected(self):
        with pytest.raises(ConfigurationError):
            parse_seeds("")
        with pytest.raises(ConfigurationError):
            parse_seeds("two")
        with pytest.raises(ConfigurationError):
            parse_seeds("3-1")


class TestParseOverrides:
    def test_literals_and_strings(self):
        overrides = parse_overrides(
            ["n_users=60", "horizon=14400.0", "benefit=hit-count", "dynamic=True"]
        )
        assert overrides == {
            "n_users": 60,
            "horizon": 14400.0,
            "benefit": "hit-count",
            "dynamic": True,
        }

    def test_missing_equals_rejected(self):
        with pytest.raises(ConfigurationError):
            parse_overrides(["n_users"])
        with pytest.raises(ConfigurationError):
            parse_overrides(["=60"])

    def test_empty_is_empty(self):
        assert parse_overrides([]) == {}


class TestDefaultCacheDir:
    def test_env_override(self, monkeypatch):
        monkeypatch.setenv(CACHE_DIR_ENV, "/tmp/somewhere")
        assert str(default_cache_dir()) == "/tmp/somewhere"

    def test_fallback(self, monkeypatch):
        monkeypatch.delenv(CACHE_DIR_ENV, raising=False)
        assert str(default_cache_dir()) == ".repro-cache"


class TestParser:
    def test_parser_choices(self):
        parser = build_parser()
        args = parser.parse_args(["fig1", "--preset", "smoke", "--seed", "3"])
        assert args.figures == "fig1"
        assert args.preset == "smoke"
        assert parse_seeds(args.seed) == (3,)
        assert args.jobs == 1
        assert args.replicates == 5
        assert not args.no_cache


class TestMain:
    def test_bad_arguments_exit_2(self, capsys):
        assert main(["fig9"]) == 2
        assert "unknown figure" in capsys.readouterr().err
        assert main(["fig1", "--seed", "nope"]) == 2

    def test_smoke_grid_end_to_end(self, tmp_path, capsys):
        manifest_path = tmp_path / "manifest.json"
        json_path = tmp_path / "out.json"
        code = main(
            [
                "fig1",
                "--preset",
                "smoke",
                "--seed",
                "0",
                *TINY_ARGS,
                "--cache-dir",
                str(tmp_path / "cache"),
                "--manifest",
                str(manifest_path),
                "--json",
                str(json_path),
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "panel (a)" in out  # figure report printed
        assert "manifest written" in out
        manifest = json.loads(manifest_path.read_text())
        assert manifest["grid"]["figures"] == ["fig1"]
        assert len(manifest["tasks"]) == 2
        assert json_path.is_file()

    def test_multi_figure_json_gets_suffixes(self, tmp_path):
        code = main(
            [
                "fig1,fig2",
                "--preset",
                "smoke",
                "--seed",
                "0",
                "--quiet",
                *TINY_ARGS,
                "--cache-dir",
                str(tmp_path / "cache"),
                "--json",
                str(tmp_path / "out.json"),
            ]
        )
        assert code == 0
        written = sorted(p.name for p in tmp_path.glob("out-*.json"))
        assert written == ["out-fig1-smoke-seed0.json", "out-fig2-smoke-seed0.json"]

    def test_quiet_silences_reports(self, tmp_path, capsys):
        code = main(
            [
                "fig1",
                "--preset",
                "smoke",
                "--seed",
                "0",
                "--quiet",
                *TINY_ARGS,
                "--cache-dir",
                str(tmp_path / "cache"),
            ]
        )
        assert code == 0
        captured = capsys.readouterr()
        assert captured.out == ""

    def test_main_runs_single_figure(self, capsys):
        code = main(["fig1", "--preset", "smoke", "--no-cache"])
        assert code == 0
        captured = capsys.readouterr()
        assert "Figure 1" in captured.out
        assert "orchestrated 2 task(s)" in captured.err

    def test_main_rejects_unknown(self, capsys):
        assert main(["fig9"]) == 2
        with pytest.raises(SystemExit):
            main(["fig1", "--figures", "fig1"])

    def test_main_uses_cache_dir(self, tmp_path, capsys):
        cache_dir = tmp_path / "cache"
        argv = ["fig1", "--preset", "smoke", "--cache-dir", str(cache_dir)]
        assert main(argv) == 0
        stored = list(cache_dir.glob("*/*.pkl"))
        assert len(stored) == 2  # the static/dynamic pair was memoized
        capsys.readouterr()
        # Re-running the same figure is served entirely from the cache.
        assert main(argv) == 0
        assert "Figure 1" in capsys.readouterr().out
        assert len(list(cache_dir.glob("*/*.pkl"))) == 2

    def test_replicates_flag_sets_seed_count(self, capsys):
        code = main(
            ["replicate", "--preset", "smoke", "--replicates", "3", "--no-cache"]
        )
        assert code == 0
        assert "replication across 3 seeds" in capsys.readouterr().out

    def test_manifest_written(self, tmp_path, capsys):
        manifest_path = tmp_path / "manifest.json"
        code = main(
            [
                "fig1",
                "--preset",
                "smoke",
                "--no-cache",
                "--manifest",
                str(manifest_path),
            ]
        )
        assert code == 0
        manifest = json.loads(manifest_path.read_text())
        assert manifest["grid"]["figures"] == ["fig1"]
        assert manifest["cache"]["enabled"] is False
        assert len(manifest["tasks"]) == 2

    def test_failed_figure_reports_nonzero_without_crashing(
        self, monkeypatch, capsys
    ):
        """One broken figure must not abort the rest of an 'all' run."""
        from repro.experiments import figure1

        def explode(results, **kwargs):
            raise RuntimeError("panel machinery broke")

        monkeypatch.setattr(figure1, "assemble", explode)
        code = main(["all", "--preset", "smoke", "--no-cache"])
        captured = capsys.readouterr()
        assert code == 1
        assert "fig1/smoke/seed=0 FAILED" in captured.err
        assert "panel machinery broke" in captured.err
        # The sibling figures still rendered their reports.
        assert "Figure 3(b)" in captured.out or "static baseline hits" in captured.out
