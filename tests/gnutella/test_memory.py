"""The engine's holdings cost a bounded number of bytes, built and running.

Holdings are kept once: the generator's flat CSR (int32 item ids) and one
holder index regrouped from it, an owner column sorted by item plus one
overflow entry per recorded download. A query asks the index who holds its
item and keeps nothing: the flood kernel stamps the holders into one
per-node array it reuses. These guards fail if per-user set copies of the
libraries come back (about 200 bytes per (node, item) entry at 10,000
peers), or if answering queries starts to leave per-item state behind (a
cached holder set per item asked about grew a 10,000-peer run by ~13 MiB
in its first quarter hour).
"""

import tracemalloc
from dataclasses import replace

import pytest

from repro.bench.scale import scale_config
from repro.gnutella.config import GnutellaConfig
from repro.gnutella.fast import FastGnutellaEngine
from repro.types import HOUR

#: Traced peak of building the engine, in bytes per library entry.
MAX_BYTES_PER_ENTRY = 100

#: Bytes a 10,000-peer run may add over its first quarter hour: events,
#: metrics and download overflow entries, ~0.9 MiB in all.
MAX_RUN_BYTES = 4 * 2**20

#: Bytes a 20,000-peer run may add over the scale tier's two hours.
MAX_LONG_RUN_BYTES = 16 * 2**20

#: Bytes 2,000 served queries for distinct items may leave allocated.
MAX_SERVE_BYTES = 64 * 2**10


def test_engine_build_memory_per_library_entry():
    # The 10k tier is above the lazy-delay threshold: no O(n^2) delay matrix
    # is built, so the peak is the world's per-node and per-entry state.
    config = scale_config(10_000, 0)
    tracemalloc.start()
    try:
        engine = FastGnutellaEngine(config)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert not isinstance(engine._delay_rows, list), "expected the lazy delay view"
    entries = engine.libraries.total_songs()
    assert entries > 400_000
    assert peak / entries <= MAX_BYTES_PER_ENTRY, (
        f"{peak / entries:.0f} B per library entry ({peak / 2**20:.1f} MiB traced peak)"
    )


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
