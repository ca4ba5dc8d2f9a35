"""Importing an engine loads only what a run needs.

Every simulation process — an experiment task, a benchmark child, a sanitized
run — pays for its imports before the first event. networkx, ``http.server``
and scipy are each tens of milliseconds that no plain run uses, so a fresh
interpreter must not load them through the engine's import chain. The repo
benchmark's child and workloads modules are entry points too: they import
``repro.bench.host`` and ``repro.bench.scale``, so deleting either fails here.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import repro

ENTRY_MODULES = (
    "repro.gnutella.simulation",
    "repro.experiments.common",
    "repro.lint.sanitize",
    "benchmarks.e2e.child",
    "benchmarks.e2e.workloads",
)
UNWANTED = ("networkx", "http.server", "scipy")


def test_engine_import_chain_leaves_out_unused_libraries():
    code = (
        "import importlib, json, sys\n"
        f"for name in {ENTRY_MODULES!r}:\n"
        "    importlib.import_module(name)\n"
        f"print(json.dumps([m for m in {UNWANTED!r} if m in sys.modules]))\n"
    )
    src = Path(repro.__file__).resolve().parent.parent
    root = src.parent  # benchmarks.e2e imports from the repository root
    result = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        env={"PYTHONPATH": os.pathsep.join((str(src), str(root))), "PATH": "/usr/bin:/bin"},
        timeout=120,
        check=True,
    )
    assert json.loads(result.stdout) == []
