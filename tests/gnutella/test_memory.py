"""The engine costs a bounded number of bytes, built and running.

Holdings are kept once: the generator's flat CSR (int32 item ids) and one
holder index regrouped from it, an owner column sorted by item plus one
overflow entry per recorded download. A query asks the index who holds its
item and keeps nothing: the flood kernel stamps the holders into one
per-node array it reuses. Peers are columns: the build makes no Python
object per peer (no view, no churn schedule, no secondary tuple), and a
benefit ledger appears only on a peer's first credit. These guards fail if
per-user set copies of the libraries come back (about 200 bytes per
(node, item) entry at 10,000 peers), if per-peer objects come back (they
took the build from 28 to 33 bytes per entry, and ran three idle full
collections in a 20,000-peer build), or if answering queries starts to
leave per-item state behind (a cached holder set per item asked about grew
a 10,000-peer run by ~13 MiB in its first quarter hour). Churn stays in its
columns: ``start()`` queues one transition per user, not the whole timeline
(which grew with the horizon, 15 MiB for the paper's four days).
"""

import json
import os
import subprocess
import sys
import tracemalloc
from dataclasses import replace
from pathlib import Path

import pytest

import repro

from repro.bench.scale import scale_config
from repro.experiments.common import preset_config
from repro.gnutella.config import GnutellaConfig
from repro.gnutella.fast import FastGnutellaEngine
from repro.types import HOUR

#: Traced peak of building the engine, in bytes per library entry: 20.6 at
#: 10,000 peers (27.6 while the holder index regrouped through an argsort
#: and a gather rather than one in-place sort of combined keys).
MAX_BYTES_PER_ENTRY = 22

#: Bytes a 10,000-peer run may add over its first quarter hour: events,
#: metrics and download overflow entries, ~0.9 MiB in all.
MAX_RUN_BYTES = 4 * 2**20

#: Bytes a 20,000-peer run may add over the scale tier's two hours.
MAX_LONG_RUN_BYTES = 16 * 2**20

#: Bytes 2,000 served queries for distinct items may leave allocated.
MAX_SERVE_BYTES = 64 * 2**10

#: Bytes ``start()`` may queue for the paper's 2,000 peers over four days:
#: 0.72 MiB, 3,007 events (15.0 MiB, 65,289 events, with the whole churn
#: timeline queued up front).
MAX_PAPER_START_BYTES = 2**20

#: Bytes ``start()`` may queue for 20,000 peers over 48 hours: 7.35 MiB
#: (76.3 MiB with the whole timeline queued).
MAX_LONG_START_BYTES = 10 * 2**20


def test_engine_build_memory_per_library_entry():
    # The 10k tier is above the lazy-delay threshold: no O(n^2) delay table
    # is built, so the peak is the world's per-node and per-entry state.
    config = scale_config(10_000, 0)
    tracemalloc.start()
    try:
        engine = FastGnutellaEngine(config)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert engine.latency.is_lazy, "expected the lazy delay regime"
    entries = engine.libraries.total_songs()
    assert entries > 400_000
    assert peak / entries <= MAX_BYTES_PER_ENTRY, (
        f"{peak / entries:.0f} B per library entry ({peak / 2**20:.1f} MiB traced peak)"
    )


#: Builds the benchmark's 20,000-peer world in a fresh interpreter after the
#: benchmark child's imports, counting full (generation-2) collections and the
#: per-peer views and ledgers the build leaves alive. A fresh process, since
#: whether a full collection runs depends on the long-lived heap.
BUILD_PROBE = """
import gc, json
import benchmarks.e2e.child  # the benchmark child's imports
from benchmarks.e2e.workloads import build_world, spec_for
from repro.core.soa import SoAPeer
from repro.core.statistics import StatsTable

def alive(kind):
    return sum(type(o) is kind for o in gc.get_objects())

before = alive(SoAPeer), alive(StatsTable)
full = []
gc.callbacks.append(lambda phase, info: full.append(1) if (phase, info["generation"]) == ("start", 2) else None)
world = build_world(spec_for("scale_20k", 0, 12))
gc.callbacks.clear()
print(json.dumps({
    "full_collections": len(full),
    "views": alive(SoAPeer) - before[0],
    "ledgers": alive(StatsTable) - before[1],
    "stored_ledgers": sum(s is not None for s in world.engine.arrays.stats),
}))
"""


def test_build_runs_no_full_collection_and_builds_nothing_per_peer():
    src = Path(repro.__file__).resolve().parent.parent
    result = subprocess.run(
        [sys.executable, "-c", BUILD_PROBE],
        capture_output=True,
        text=True,
        env={"PYTHONPATH": os.pathsep.join((str(src), str(src.parent))), "PATH": "/usr/bin:/bin"},
        timeout=300,
        check=True,
    )
    assert json.loads(result.stdout.splitlines()[-1]) == {
        "full_collections": 0,
        "views": 0,
        "ledgers": 0,
        "stored_ledgers": 0,
    }


def _run_bytes(config: GnutellaConfig) -> int:
    """Traced bytes still allocated after advancing ``config`` to its horizon."""
    engine = FastGnutellaEngine(config)
    engine.start()
    tracemalloc.start()
    try:
        engine.advance(config.horizon)
        added, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert engine.metrics.total_queries > 0
    return added


def test_run_memory_stays_flat():
    added = _run_bytes(replace(scale_config(10_000, 0), horizon=0.25 * HOUR))
    assert added <= MAX_RUN_BYTES, f"advance added {added / 2**20:.1f} MiB"


@pytest.mark.slow
def test_long_run_memory_stays_flat():
    """The scale tier's full horizon asks about tens of thousands of items."""
    added = _run_bytes(scale_config(20_000, 0))
    assert added <= MAX_LONG_RUN_BYTES, f"advance added {added / 2**20:.1f} MiB"


def _start_bytes(config: GnutellaConfig) -> int:
    """Traced bytes ``start()`` leaves allocated: the events it queues."""
    engine = FastGnutellaEngine(config)
    tracemalloc.start()
    try:
        engine.start()
        added, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return added


def test_start_queues_one_transition_per_user():
    config = preset_config("paper", seed=0)
    assert config.dynamic and config.horizon == 96 * HOUR
    added = _start_bytes(config)
    assert added <= MAX_PAPER_START_BYTES, f"start() queued {added / 2**20:.2f} MiB"


@pytest.mark.slow
def test_long_horizon_start_stays_small():
    added = _start_bytes(replace(scale_config(20_000, 0), horizon=48 * HOUR))
    assert added <= MAX_LONG_START_BYTES, f"start() queued {added / 2**20:.2f} MiB"


def test_serving_distinct_items_keeps_nothing():
    """A long-lived server answers an open-ended stream of items; each query
    leaves no holdings state behind."""
    config = GnutellaConfig(
        n_users=200, n_items=4000, horizon=2 * HOUR, warmup_hours=0, dynamic=True
    )
    engine = FastGnutellaEngine(config)
    engine.start()
    engine.advance(HOUR)
    online = [peer.node for peer in engine.peers if peer.online]
    # Warm the kernel's reusable buffers before tracing.
    for item in range(50):
        engine.serve_query(online[item % len(online)], item)
    tracemalloc.start()
    try:
        for k in range(2000):
            engine.serve_query(online[k % len(online)], 2000 + k)
        added, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert added <= MAX_SERVE_BYTES, f"2,000 served queries kept {added / 2**10:.0f} KiB"
