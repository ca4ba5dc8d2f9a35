"""Load generator: statistics, query mix, and both loop modes end to end."""

import asyncio
import json

import numpy as np
import pytest

from repro.gnutella.config import GnutellaConfig
from repro.serve.loadgen import (
    KNEE_ACHIEVED_FRACTION,
    REPORT_SCHEMA,
    SWEEP_SCHEMA,
    LatencySummary,
    LoadgenConfig,
    LoadReport,
    ServeClient,
    ZipfQueryMix,
    percentile,
    run_closed_loop,
    run_open_loop,
    saturation_sweep,
)
from repro.serve.server import QueryServer, ServeConfig


class TestPercentile:
    def test_empty_is_zero(self):
        assert percentile([], 0.5) == 0.0

    def test_single_sample(self):
        assert percentile([7.0], 0.5) == 7.0
        assert percentile([7.0], 0.999) == 7.0

    def test_nearest_rank(self):
        samples = [float(i) for i in range(1, 101)]  # 1..100
        assert percentile(samples, 0.50) == 50.0
        assert percentile(samples, 0.95) == 95.0
        assert percentile(samples, 0.99) == 99.0
        assert percentile(samples, 1.0) == 100.0

    def test_monotone_in_q(self):
        rng = np.random.default_rng(0)
        samples = sorted(rng.exponential(1.0, size=500).tolist())
        values = [percentile(samples, q) for q in (0.5, 0.9, 0.95, 0.99, 0.999)]
        assert values == sorted(values)


class TestLatencySummary:
    def test_empty(self):
        summary = LatencySummary.from_samples([])
        assert summary.p50_ms == 0.0
        assert summary.max_ms == 0.0

    def test_converts_to_milliseconds(self):
        summary = LatencySummary.from_samples([0.001, 0.002, 0.100])
        assert summary.p50_ms == pytest.approx(2.0)
        assert summary.max_ms == pytest.approx(100.0)
        assert summary.mean_ms == pytest.approx(1000.0 * (0.103 / 3))

    def test_tail_ordering(self):
        rng = np.random.default_rng(1)
        summary = LatencySummary.from_samples(rng.lognormal(-5, 1, 2000).tolist())
        assert summary.p50_ms <= summary.p95_ms <= summary.p99_ms
        assert summary.p99_ms <= summary.p999_ms <= summary.max_ms

    def test_as_dict_keys(self):
        keys = set(LatencySummary.from_samples([0.01]).as_dict())
        assert keys == {"p50_ms", "p95_ms", "p99_ms", "p999_ms", "mean_ms", "max_ms"}


class TestZipfQueryMix:
    def test_items_stay_in_range(self):
        mix = ZipfQueryMix(n_items=1000, n_categories=20, theta=0.8, seed=3)
        draws = [mix.next_item() for _ in range(2000)]
        assert min(draws) >= 0
        assert max(draws) < 1000

    def test_deterministic_per_seed(self):
        a = ZipfQueryMix(500, 10, 0.7, seed=5)
        b = ZipfQueryMix(500, 10, 0.7, seed=5)
        assert [a.next_item() for _ in range(50)] == [b.next_item() for _ in range(50)]

    def test_skew_prefers_low_ranks(self):
        mix = ZipfQueryMix(n_items=1000, n_categories=10, theta=0.95, seed=0)
        ranks = [mix.next_item() % 100 for _ in range(5000)]
        top = sum(1 for r in ranks if r < 10)
        assert top / len(ranks) > 0.2  # far above the uniform 10%

    def test_rejects_empty_catalog(self):
        with pytest.raises(ValueError):
            ZipfQueryMix(0, 10, 0.8, seed=0)


def _world() -> GnutellaConfig:
    return GnutellaConfig(
        n_users=40,
        n_items=2000,
        horizon=24 * 3600.0,
        warmup_hours=0,
        dynamic=True,
    )


async def _server() -> tuple[QueryServer, str, int]:
    server = QueryServer(
        _world(), ServeConfig(time_rate=0.0, warmup_sim_s=2 * 3600.0)
    )
    host, port = await server.start()
    return server, host, port


class TestServeClient:
    def test_query_after_server_shutdown_raises_at_once(self):
        async def scenario():
            server, host, port = await _server()
            client = await ServeClient.connect(host, port)
            try:
                assert (await client.query(1, timeout_ms=100)).status == "ok"
                await server.shutdown()
                await asyncio.sleep(0.05)  # the client sees the server hang up
                loop = asyncio.get_running_loop()
                started = loop.time()
                # The guard is 5.1 s; a refusal must not wait for it.
                with pytest.raises(ConnectionError):
                    await asyncio.wait_for(client.query(2, timeout_ms=100), timeout=1.0)
                assert loop.time() - started < 1.0
                with pytest.raises(ConnectionError):
                    await client.ping()
            finally:
                await client.close()

        asyncio.run(scenario())

    def test_guard_turns_a_missing_reply_into_a_timeout(self):
        async def scenario():
            # A peer that reads requests and never answers.
            async def silent(reader, writer):
                await reader.read()
                writer.close()

            listener = await asyncio.start_server(silent, "127.0.0.1", 0)
            host, port = listener.sockets[0].getsockname()[:2]
            client = await ServeClient.connect(host, port)
            try:
                with pytest.raises(asyncio.TimeoutError):
                    await asyncio.wait_for(client._roundtrip({"op": "ping"}, 0.05), 2.0)
                assert not client._pending
            finally:
                await client.close()
                listener.close()
                await listener.wait_closed()

        asyncio.run(scenario())


class TestClosedLoop:
    def test_reports_throughput_and_tail(self):
        async def scenario():
            server, host, port = await _server()
            try:
                report = await run_closed_loop(
                    LoadgenConfig(host=host, port=port, connections=2, duration_s=0.5)
                )
            finally:
                await server.shutdown()
            assert report.mode == "closed"
            assert report.offered_qps is None
            assert report.requests > 0
            assert report.ok == report.requests
            assert report.error_count == 0
            assert report.achieved_qps > 0
            assert report.latency.p50_ms > 0
            assert report.latency.p50_ms <= report.latency.p95_ms <= report.latency.p99_ms
            assert 0.0 <= report.hit_fraction <= 1.0
            payload = report.as_dict()
            assert payload["schema"] == REPORT_SCHEMA
            json.dumps(payload)  # JSON-clean
            return report

        asyncio.run(scenario())


class TestOpenLoop:
    def test_achieves_offered_rate_when_healthy(self):
        async def scenario():
            server, host, port = await _server()
            try:
                report = await run_open_loop(
                    LoadgenConfig(
                        host=host, port=port, connections=2, duration_s=0.5, qps=200.0
                    )
                )
            finally:
                await server.shutdown()
            assert report.mode == "open"
            assert report.offered_qps == 200.0
            assert report.requests == 100  # exactly qps * duration arrivals
            assert report.dropped == 0
            assert report.achieved_qps >= KNEE_ACHIEVED_FRACTION * 200.0
            assert report.error_count == 0

        asyncio.run(scenario())

    def test_rejects_nonpositive_qps(self):
        with pytest.raises(ValueError):
            asyncio.run(run_open_loop(LoadgenConfig(qps=0.0)))

    def test_inflight_cap_counts_drops(self):
        async def scenario():
            server, host, port = await _server()
            server.processing.clear()  # stall: every arrival stays in flight
            try:
                report = await run_open_loop(
                    LoadgenConfig(
                        host=host,
                        port=port,
                        connections=1,
                        duration_s=0.2,
                        qps=100.0,
                        max_inflight=4,
                        timeout_ms=200.0,
                    )
                )
            finally:
                server.processing.set()
                await server.shutdown()
            assert report.dropped > 0
            assert report.requests + report.dropped == 20

        asyncio.run(scenario())


class TestSaturationSweep:
    def test_axis_is_monotone_with_knee(self):
        async def scenario():
            server, host, port = await _server()
            try:
                sweep = await saturation_sweep(
                    LoadgenConfig(host=host, port=port, connections=2),
                    start_qps=50.0,
                    factor=2.0,
                    max_steps=3,
                    step_duration_s=0.4,
                )
            finally:
                await server.shutdown()
            axis = [step.offered_qps for step in sweep.steps]
            assert axis == sorted(axis)
            assert len(set(axis)) == len(axis)  # strictly ascending
            if sweep.degraded_at_qps is None:
                assert sweep.knee_qps == axis[-1]
            else:
                assert sweep.degraded_at_qps == axis[-1]
            payload = sweep.as_dict()
            assert payload["schema"] == SWEEP_SCHEMA
            assert payload["offered_qps_axis"] == axis
            json.dumps(payload)

        asyncio.run(scenario())

    def test_degradation_stops_the_sweep(self):
        async def scenario():
            server, host, port = await _server()
            server.processing.clear()  # nothing completes: step one degrades
            try:
                sweep = await saturation_sweep(
                    LoadgenConfig(
                        host=host,
                        port=port,
                        connections=1,
                        max_inflight=8,
                        timeout_ms=150.0,
                    ),
                    start_qps=50.0,
                    max_steps=4,
                    step_duration_s=0.2,
                )
            finally:
                server.processing.set()
                await server.shutdown()
            assert len(sweep.steps) == 1
            assert sweep.knee_qps is None
            assert sweep.degraded_at_qps == 50.0

        asyncio.run(scenario())

    def test_rejects_bad_axis_parameters(self):
        for kwargs in (
            {"start_qps": 0.0},
            {"factor": 1.0},
            {"max_steps": 0},
        ):
            with pytest.raises(ValueError):
                asyncio.run(saturation_sweep(LoadgenConfig(), **kwargs))


class TestReportShape:
    def test_error_count_sums_error_kinds(self):
        report = LoadReport(
            mode="open",
            connections=1,
            duration_s=1.0,
            offered_qps=10.0,
            requests=10,
            ok=7,
            errors={"timeout": 2, "overload": 1},
            dropped=0,
            achieved_qps=7.0,
            latency=LatencySummary.from_samples([0.01]),
            hit_fraction=0.5,
            sim_time_start=0.0,
            sim_time_end=0.0,
        )
        assert report.error_count == 3
        assert report.as_dict()["error_count"] == 3
