"""One fresh process of a workload run: warm up, build the world once, time it repeatedly.

Noise hygiene lives here. Nothing is timed before the imports and one
smoke-preset simulation have run; the world is built exactly once per process
(that build *is* the set-up measurement); and each repetition of a
simulation's timed section runs in a ``fork`` of the built world, so
repetitions start from the same state, do identical work, and can be compared
slice by slice. The fork's copy-on-write faults are part of every repetition
alike. Serving leaves its frozen world as it found it, so its repetitions
follow one another against the one started server.
"""

# repro-lint: disable-file=R002 -- the benchmark is a wall-clock instrument

from __future__ import annotations

import json
import os
import sys
import time
import traceback
from pathlib import Path
from typing import Any, Callable

from repro.bench.host import host_provenance
from repro.experiments.common import preset_config
from repro.lint.sanitize import run_hashed

from benchmarks.e2e.estimate import canary_ms, peak_rss_mb
from benchmarks.e2e.spans import Patches, SpanLog, analyse, install_setup
from benchmarks.e2e.workloads import Spec, build_world, serve_repetitions, sim_repetition

__all__ = ["TRACED_FORKS", "in_fork", "run_process"]

#: A traced process alternates untraced and traced repetitions over one world,
#: so the two differ in the wrappers alone: three of each, in turn.
TRACED_FORKS = 6


def in_fork(work: Callable[[], Any]) -> Any:
    """Run ``work`` in a forked copy of this process; return its JSON-able result."""
    sys.stdout.flush()
    sys.stderr.flush()
    read_fd, write_fd = os.pipe()
    pid = os.fork()
    if pid == 0:
        status = 1
        try:
            os.close(read_fd)
            payload = json.dumps(work()).encode()
            with os.fdopen(write_fd, "wb") as out:
                out.write(payload)
            status = 0
        except BaseException:  # the fork must never return into the caller's stack
            traceback.print_exc()
        finally:
            os._exit(status)
    os.close(write_fd)
    with os.fdopen(read_fd, "rb") as pipe:
        payload = pipe.read()
    _, status = os.waitpid(pid, 0)
    if status != 0:
        raise RuntimeError(f"forked repetition exited with status {status}")
    return json.loads(payload)


def run_process(
    spec: Spec, index: int, trace: bool, phases: dict[str, float], out_dir: Path
) -> dict:
    """Everything one fresh process measures; ``phases`` arrives holding the
    interpreter start and import times the caller took."""
    started = time.perf_counter()
    smoke = preset_config("smoke", spec.config.seed)
    _, digest = run_hashed(smoke, "fast", sanitize=False)
    phases["warmup"] = time.perf_counter() - started
    report: dict[str, Any] = {"setups": spec.setups, "phases": phases, "host": host_provenance()}
    if trace:
        report["canary_before_ms"] = canary_ms()

    started = time.perf_counter()
    if trace:
        log, patches = SpanLog(), Patches()
        install_setup(log, patches)
        log.begin("setup")
        try:
            world = build_world(spec)
        finally:
            log.end()
            patches.restore()
        report["setup_trace"] = analyse(log)
    else:
        world = build_world(spec)
    phases["build"] = time.perf_counter() - started
    report["delay_rows_lazy"] = int(world.engine.latency.is_lazy)

    traced = [trace and k % 2 == 1 for k in range(TRACED_FORKS if trace else spec.forks)]
    stem = f"{spec.name}.seed{spec.config.seed}"
    paths = [out_dir / f"{stem}.rep{k}.spans.jsonl" if on else None for k, on in enumerate(traced)]
    if spec.serving:
        report["reps"] = serve_repetitions(spec, world, traced, paths)
    else:
        report["reps"] = [
            in_fork(lambda: sim_repetition(spec, world, on, path))
            for on, path in zip(traced, paths)
        ]
    phases["pretimed"] = report["reps"][0]["pretimed_s"]
    report["rss_mb"] = peak_rss_mb()
    if trace:
        report["canary_after_ms"] = canary_ms()
    if index == 0:
        # The warm-up run doubles as one half of the fast-path digest gate.
        _, reference = run_hashed(smoke, "fast-reference", sanitize=False)
        report["digest_match"] = digest == reference
    return report
