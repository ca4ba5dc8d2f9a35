"""End-to-end coverage of the REPRO_SANITIZE environment hook: through
:func:`run_simulation`, the precedence of an explicit argument over the
environment, and every task a figure run executes."""

import pytest

import repro.lint.sanitize as sanitize_mod
from repro.gnutella.config import GnutellaConfig
from repro.gnutella.simulation import run_simulation

HOUR = 3600.0


def _config(**overrides):
    base = dict(
        n_users=30, n_items=1500, horizon=2 * HOUR, warmup_hours=0, dynamic=True
    )
    base.update(overrides)
    return GnutellaConfig(**base)


@pytest.fixture(autouse=True)
def _clean_env(monkeypatch):
    monkeypatch.delenv("REPRO_SANITIZE", raising=False)


def _spy_installer(monkeypatch):
    """Record install_consistency_checks calls without losing its effect."""
    calls = []
    original = sanitize_mod.install_consistency_checks

    def spy(engine, *args, **kwargs):
        calls.append(engine)
        return original(engine, *args, **kwargs)

    monkeypatch.setattr(sanitize_mod, "install_consistency_checks", spy)
    return calls


def test_repro_sanitize_env_installs_checks(monkeypatch):
    calls = _spy_installer(monkeypatch)
    run_simulation(_config())
    assert calls == []  # default: hook disabled
    monkeypatch.setenv("REPRO_SANITIZE", "1")
    run_simulation(_config())
    assert len(calls) == 1


def test_explicit_sanitize_argument_beats_env(monkeypatch):
    monkeypatch.setenv("REPRO_SANITIZE", "1")
    calls = _spy_installer(monkeypatch)
    run_simulation(_config(), sanitize=False)
    assert calls == []


def test_env_hooks_preserve_results(monkeypatch):
    """The sanitizer only observes: it must not move the simulation."""
    config = _config()
    plain = run_simulation(config)
    monkeypatch.setenv("REPRO_SANITIZE", "1")
    hooked = run_simulation(config)
    assert hooked.metrics.total_queries == plain.metrics.total_queries
    assert hooked.metrics.total_hits == plain.metrics.total_hits
    assert hooked.convergence == plain.convergence


def test_repro_sanitize_reaches_figure_runs(monkeypatch, tmp_path, capsys):
    """Every executed figure task is sanitized; cache hits execute nothing."""
    from repro.orchestrate.cli import main

    calls = _spy_installer(monkeypatch)
    cached = ["fig1", "--preset", "smoke", "--cache-dir", str(tmp_path / "cache")]
    assert main(cached) == 0
    assert calls == []  # unset: no checks on either run of the pair
    monkeypatch.setenv("REPRO_SANITIZE", "1")
    assert main(cached) == 0
    assert calls == []  # both tasks served from the cache
    assert main(["fig1", "--preset", "smoke", "--no-cache"]) == 0
    assert len(calls) == 2  # the static and the dynamic run
    capsys.readouterr()
