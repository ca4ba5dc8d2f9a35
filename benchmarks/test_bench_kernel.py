"""Microbenchmarks of the simulation substrates.

These are classic pytest-benchmark measurements (repeated rounds): event
queue throughput, the search hot path and the latency cache. Regressions
here translate directly into slower figure regeneration.
"""

import numpy as np

from repro.core.search import generic_search
from repro.core.termination import TTLTermination
from repro.net.bandwidth import BandwidthModel
from repro.net.latency import LatencyModel
from repro.sim import Simulator


def test_bench_event_queue_throughput(benchmark):
    """Schedule and drain 20k no-op callbacks."""

    def run():
        sim = Simulator()
        rng = np.random.default_rng(0)
        delays = rng.random(20_000)
        noop = lambda: None  # noqa: E731
        for d in delays:
            sim.schedule(float(d), noop)
        sim.run()
        return sim.events_executed

    assert benchmark(run) == 20_000


class _GridView:
    """A 40x40 torus grid network, all items at the far corner."""

    def __init__(self, side=40):
        self.side = side

    def holds(self, node, item):
        return node == self.side * self.side - 1

    def neighbors(self, node):
        side = self.side
        r, c = divmod(node, side)
        return [
            ((r + 1) % side) * side + c,
            ((r - 1) % side) * side + c,
            r * side + (c + 1) % side,
            r * side + (c - 1) % side,
        ]

    def link_delay(self, a, b):
        return 0.05


def test_bench_search_flood_ttl6(benchmark):
    """One TTL-6 flood over a 1600-node grid (the query hot path)."""
    view = _GridView()
    term = TTLTermination(6)

    def run():
        return generic_search(view, 0, 7, term)

    outcome = benchmark(run)
    assert outcome.nodes_contacted > 50


def test_bench_fastpath_speedup_over_reference(benchmark):
    """ISSUE acceptance gate: fast path >= 2x the reference on the default config.

    One live overlay grown by a real engine run under the default flood
    configuration, then the same 2000-query workload driven through both the
    FloodFastPath kernel and generic_search, interleaved best-of-N so machine
    noise lands on both sides alike.
    """
    from repro.bench.kernels import KernelReport, _bench_flood_search

    report = KernelReport()

    def run():
        _bench_flood_search(report, rounds=5)
        return report.flood_search

    flood = benchmark.pedantic(run, rounds=1, iterations=1)
    assert flood["speedup"] >= 2.0, (
        f"fast path only {flood['speedup']:.2f}x the reference "
        f"({flood['fastpath_us_per_query']:.2f} vs "
        f"{flood['reference_us_per_query']:.2f} us/query)"
    )


def test_bench_latency_cache(benchmark):
    """First-touch sampling plus cached lookups over 500 nodes."""
    bw = BandwidthModel(500, np.random.default_rng(0))

    def run():
        latency = LatencyModel(bw, np.random.default_rng(1))
        total = 0.0
        for a in range(0, 500, 7):
            for b in range(0, 500, 11):
                if a != b:
                    total += latency.one_way_delay(a, b)
        return total

    assert benchmark(run) > 0
