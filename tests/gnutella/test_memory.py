"""The engine's world costs a bounded number of bytes per library entry.

Holdings are kept once: the generator's flat CSR (int32 item ids) and one
holder index regrouped from it, whose per-item sets are built only when an
item is first asked about. A per-user set copy of the libraries costs about
200 bytes per (node, item) entry at 10,000 peers; this guard fails if such a
copy comes back.
"""

import tracemalloc

from repro.bench.scale import scale_config
from repro.gnutella.fast import FastGnutellaEngine

#: Traced peak of building the engine, in bytes per library entry.
MAX_BYTES_PER_ENTRY = 100


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
