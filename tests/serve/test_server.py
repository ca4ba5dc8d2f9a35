"""Server robustness: overload, disconnect cancellation, graceful drain.

These are the satellite-task guarantees: a full admission queue answers a
typed ``overload`` error instead of hanging, a client that disconnects
mid-stream has its queued query cancelled (never executed), and shutdown
drains in-flight requests before closing. The worker gate
(``QueryServer.processing``) makes each scenario deterministic: clearing
it holds the admission queue still while the test arranges the race.
"""

import asyncio
import json
import socket

import pytest

from repro.gnutella.config import GnutellaConfig
from repro.serve.loadgen import ServeClient
from repro.serve.protocol import MAX_LINE_BYTES, encode_line
from repro.serve.server import QueryServer, ServeConfig


def _config(**overrides) -> GnutellaConfig:
    base = dict(
        n_users=30,
        n_items=1000,
        horizon=12 * 3600.0,
        warmup_hours=0,
        dynamic=True,
    )
    base.update(overrides)
    return GnutellaConfig(**base)


def _serve_config(**overrides) -> ServeConfig:
    base = dict(time_rate=0.0, warmup_sim_s=1800.0, drain_timeout_s=5.0)
    base.update(overrides)
    return ServeConfig(**base)


async def _poll(predicate, timeout_s: float = 5.0) -> None:
    deadline = asyncio.get_running_loop().time() + timeout_s
    while not predicate():
        if asyncio.get_running_loop().time() > deadline:
            raise AssertionError("condition not reached in time")
        await asyncio.sleep(0.005)


class TestBasicServing:
    def test_query_roundtrip_ranked_results(self):
        async def scenario():
            server = QueryServer(_config(), _serve_config())
            host, port = await server.start()
            client = await ServeClient.connect(host, port)
            try:
                # Query enough popular items that at least one hits.
                hits = 0
                for item in range(40):
                    reply = await client.query(item)
                    assert reply.status == "ok"
                    assert reply.done["item"] == item
                    assert reply.done["results"] == len(reply.results)
                    delays = [r["delay_ms"] for r in reply.results]
                    assert delays == sorted(delays)
                    ranks = [r["rank"] for r in reply.results]
                    assert ranks == list(range(len(reply.results)))
                    hits += bool(reply.results)
                assert hits > 0, "no query hit anything; world too cold"
                assert server.counts.ok == 40
            finally:
                await client.close()
                await server.shutdown()

        asyncio.run(scenario())

    def test_info_ping_stats(self):
        async def scenario():
            server = QueryServer(_config(), _serve_config())
            host, port = await server.start()
            client = await ServeClient.connect(host, port)
            try:
                info = await client.info()
                assert info["n_users"] == 30
                assert info["n_items"] == 1000
                assert info["online"] > 0
                assert info["sim_time"] == 1800.0
                pong = await client.ping()
                assert pong["type"] == "pong"
                await client.query(3)
                stats = await client.stats()
                assert stats["counts"]["ok"] == 1
                snapshot = stats["metrics"]
                assert snapshot["serve.requests"]["values"]["status=ok"] == 1.0
            finally:
                await client.close()
                await server.shutdown()

        asyncio.run(scenario())

    def test_bad_request_keeps_connection_usable(self):
        async def scenario():
            server = QueryServer(_config(), _serve_config())
            host, port = await server.start()
            reader, writer = await asyncio.open_connection(host, port)
            try:
                writer.write(b"this is not json\n")
                writer.write(encode_line({"op": "query", "id": 1, "item": 99999}))
                writer.write(encode_line({"op": "ping", "id": 2}))
                await writer.drain()
                lines = [await reader.readline() for _ in range(3)]
                import json

                first, second, third = (json.loads(line) for line in lines)
                assert first["type"] == "error" and first["error"] == "bad_request"
                assert second["error"] == "bad_request"  # item out of range
                assert third["type"] == "pong"
                assert server.counts.bad_request == 2
            finally:
                writer.close()
                await server.shutdown()

        asyncio.run(scenario())

    def test_offline_node_is_a_typed_error(self):
        async def scenario():
            server = QueryServer(_config(), _serve_config())
            host, port = await server.start()
            offline = next(
                int(p.node) for p in server.engine.peers if not p.online
            )
            client = await ServeClient.connect(host, port)
            try:
                reply = await client.query(1, node=offline)
                assert reply.status == "node_offline"
                assert server.counts.node_offline == 1
            finally:
                await client.close()
                await server.shutdown()

        asyncio.run(scenario())

    def test_detailed_engine_rejected(self):
        with pytest.raises(ValueError):
            QueryServer(_config(), _serve_config(), engine="detailed")


def _padded_ping(req_id: int, size: int) -> bytes:
    """A ping line of exactly ``size`` bytes before its newline."""
    bare = encode_line({"op": "ping", "id": req_id, "pad": ""})[:-1]
    padded = bare[:-2] + b"x" * (size - len(bare)) + b'"}'
    assert len(padded) == size
    return padded + b"\n"


async def _read_lines(reader: asyncio.StreamReader, n: int) -> list[dict]:
    return [
        json.loads(await asyncio.wait_for(reader.readline(), timeout=5.0))
        for _ in range(n)
    ]


class TestFraming:
    def test_pipelined_burst_is_answered_in_order(self):
        async def scenario():
            server = QueryServer(_config(), _serve_config())
            host, port = await server.start()
            reader, writer = await asyncio.open_connection(host, port)
            try:
                writer.write(
                    b"".join(
                        encode_line({"op": "query", "id": i, "item": i % 40})
                        for i in range(50)
                    )
                )
                await writer.drain()
                terminals = []
                while len(terminals) < 50:
                    (line,) = await _read_lines(reader, 1)
                    if line["type"] != "result":
                        terminals.append(line)
                assert [t["id"] for t in terminals] == list(range(50))
                assert all(t["status"] == "ok" for t in terminals)
                assert server.counts.ok == 50
            finally:
                writer.close()
                await server.shutdown()

        asyncio.run(scenario())

    def test_line_cap_is_max_line_bytes(self):
        async def scenario():
            server = QueryServer(_config(), _serve_config())
            host, port = await server.start()
            reader, writer = await asyncio.open_connection(host, port)
            try:
                writer.write(_padded_ping(1, MAX_LINE_BYTES))
                await writer.drain()
                assert (await _read_lines(reader, 1))[0]["id"] == 1
                # Two short lines, then one byte over the cap: the short
                # ones are answered, then the server hangs up.
                writer.write(
                    encode_line({"op": "ping", "id": 2})
                    + encode_line({"op": "ping", "id": 3})
                    + _padded_ping(4, MAX_LINE_BYTES + 1)
                    + encode_line({"op": "ping", "id": 5})
                )
                await writer.drain()
                assert [r["id"] for r in await _read_lines(reader, 2)] == [2, 3]
                assert await asyncio.wait_for(reader.read(), timeout=5.0) == b""
                await _poll(lambda: not server._state.connections)
            finally:
                writer.close()
                await server.shutdown()

        asyncio.run(scenario())

    def test_unterminated_last_line_before_eof_is_answered(self):
        async def scenario():
            server = QueryServer(_config(), _serve_config())
            host, port = await server.start()
            reader, writer = await asyncio.open_connection(host, port)
            try:
                writer.write(encode_line({"op": "ping", "id": 1})[:-1])
                writer.write_eof()
                (pong,) = await _read_lines(reader, 1)
                assert pong["type"] == "pong" and pong["id"] == 1
                assert await asyncio.wait_for(reader.read(), timeout=5.0) == b""
            finally:
                writer.close()
                await server.shutdown()

        asyncio.run(scenario())

    def test_client_that_stops_reading_is_paused_until_it_reads(self):
        """Replies pile up, the server stops reading the client, and the
        client's own writes stall; once it reads, every request is answered."""

        async def scenario():
            server = QueryServer(_config(), _serve_config())
            host, port = await server.start()
            # Small kernel buffers (accepted sockets inherit the listener's)
            # so the stall shows after kilobytes rather than megabytes.
            for sock in server._state.server.sockets:
                sock.setsockopt(socket.SOL_SOCKET, socket.SO_SNDBUF, 8192)
                sock.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 8192)
            reader, writer = await asyncio.open_connection(host, port)
            sock = writer.get_extra_info("socket")
            sock.setsockopt(socket.SOL_SOCKET, socket.SO_SNDBUF, 8192)
            sock.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 8192)
            sent = 0
            try:
                burst = b"".join(
                    encode_line({"op": "ping", "id": i}) for i in range(1000)
                )
                while sent < 200_000:
                    writer.write(burst)
                    sent += 1000
                    try:
                        await asyncio.wait_for(writer.drain(), timeout=0.5)
                    except asyncio.TimeoutError:
                        break
                else:
                    raise AssertionError("server kept reading a client that never reads")
                answered = 0
                while answered < sent:
                    line = await asyncio.wait_for(reader.readline(), timeout=5.0)
                    assert json.loads(line)["type"] == "pong"
                    answered += 1
                await asyncio.wait_for(writer.drain(), timeout=5.0)
            finally:
                writer.close()
                await server.shutdown()

        asyncio.run(scenario())


class TestOverload:
    def test_full_queue_returns_typed_overload_not_a_hang(self):
        async def scenario():
            server = QueryServer(_config(), _serve_config(max_queue=4))
            host, port = await server.start()
            server.processing.clear()  # hold the worker still
            client = await ServeClient.connect(host, port)
            try:
                # Capacity while stalled is at most queue (4) + one request
                # in the worker's hand: six sends must overflow.
                pending = [
                    asyncio.create_task(client.query(i)) for i in range(6)
                ]
                # The typed error arrives while the worker is stalled —
                # admission control answers immediately, it does not hang.
                await asyncio.wait_for(
                    _poll(lambda: server.counts.overload >= 1), timeout=2.0
                )
                assert server.counts.ok == 0
                server.processing.set()
                replies = await asyncio.gather(*pending)
                statuses = [r.status for r in replies]
                assert "overload" in statuses
                assert statuses.count("ok") >= 4
                assert statuses.count("ok") + statuses.count("overload") == 6
                assert server.counts.overload == statuses.count("overload")
            finally:
                await client.close()
                await server.shutdown()

        asyncio.run(scenario())


class TestDisconnectCancellation:
    def test_disconnect_mid_stream_cancels_queued_query(self):
        async def scenario():
            server = QueryServer(_config(), _serve_config())
            host, port = await server.start()
            server.processing.clear()
            reader, writer = await asyncio.open_connection(host, port)
            writer.write(encode_line({"op": "query", "id": 1, "item": 3}))
            await writer.drain()
            await _poll(lambda: server.counts.admitted >= 1)
            # Abrupt client departure while the query is still queued.
            writer.close()
            await writer.wait_closed()
            await _poll(lambda: not any(c.alive for c in server._state.connections))
            ok_before = server.counts.ok
            server.processing.set()
            await _poll(lambda: server.counts.cancelled == 1)
            assert server.counts.ok == ok_before  # never executed
            await server.shutdown()

        asyncio.run(scenario())


class TestGracefulDrain:
    def test_shutdown_drains_in_flight_requests(self):
        async def scenario():
            server = QueryServer(_config(), _serve_config(max_queue=64))
            host, port = await server.start()
            server.processing.clear()
            client = await ServeClient.connect(host, port)
            pending = [asyncio.create_task(client.query(i)) for i in range(8)]
            await _poll(lambda: server.counts.admitted >= 8)
            shutdown = asyncio.create_task(server.shutdown())
            await asyncio.sleep(0.02)
            # Drain mode: already-queued work completes...
            server.processing.set()
            replies = await asyncio.gather(*pending)
            assert [r.status for r in replies] == ["ok"] * 8
            await asyncio.wait_for(shutdown, timeout=10.0)
            assert server.counts.ok == 8
            await client.close()

        asyncio.run(scenario())

    def test_new_queries_rejected_while_draining(self):
        async def scenario():
            server = QueryServer(_config(), _serve_config())
            host, port = await server.start()
            client = await ServeClient.connect(host, port)
            server.processing.clear()
            first = asyncio.create_task(client.query(1))
            await _poll(lambda: server.counts.admitted >= 1)
            shutdown = asyncio.create_task(server.shutdown())
            await asyncio.sleep(0.02)
            reply = await asyncio.wait_for(client.query(2), timeout=2.0)
            assert reply.status == "shutting_down"
            server.processing.set()
            assert (await first).status == "ok"
            await asyncio.wait_for(shutdown, timeout=10.0)
            await client.close()

        asyncio.run(scenario())


class TestDeadlines:
    def test_expired_deadline_answers_timeout(self):
        async def scenario():
            server = QueryServer(_config(), _serve_config())
            host, port = await server.start()
            server.processing.clear()
            client = await ServeClient.connect(host, port)
            try:
                task = asyncio.create_task(client.query(1, timeout_ms=30))
                await asyncio.sleep(0.1)  # let the deadline lapse in queue
                server.processing.set()
                reply = await task
                assert reply.status == "timeout"
                assert server.counts.timeout == 1
                assert server.counts.ok == 0
            finally:
                await client.close()
                await server.shutdown()

        asyncio.run(scenario())


class TestWorldAdvancement:
    def test_paced_server_advances_simulated_time(self):
        async def scenario():
            server = QueryServer(
                _config(),
                _serve_config(time_rate=36000.0, pacer_interval_s=0.01),
            )
            host, port = await server.start()
            client = await ServeClient.connect(host, port)
            try:
                start = (await client.info())["sim_time"]
                await asyncio.sleep(0.1)
                end = (await client.info())["sim_time"]
                assert end > start
            finally:
                await client.close()
                await server.shutdown()

        asyncio.run(scenario())

    def test_frozen_server_keeps_simulated_time_still(self):
        async def scenario():
            server = QueryServer(_config(), _serve_config(time_rate=0.0))
            host, port = await server.start()
            client = await ServeClient.connect(host, port)
            try:
                start = (await client.info())["sim_time"]
                await client.query(1)
                await asyncio.sleep(0.05)
                assert (await client.info())["sim_time"] == start
            finally:
                await client.close()
                await server.shutdown()

        asyncio.run(scenario())


class TestShutdown:
    def test_shutdown_returns_with_idle_and_stalled_clients_connected(self):
        """From Python 3.12.1 ``Server.wait_closed`` also waits for every
        accepted connection to close; shutdown must close them (and drop
        replies a client will never read) before it waits."""
        drain_timeout_s = 1.0

        async def scenario():
            server = QueryServer(
                _config(), _serve_config(drain_timeout_s=drain_timeout_s)
            )
            host, port = await server.start()
            listener = server._state.server

            async def wait_closed():
                # The Python >= 3.12.1 body, run against this listener.
                if listener._waiters is None:
                    return
                waiter = asyncio.get_running_loop().create_future()
                listener._waiters.append(waiter)
                await waiter

            listener.wait_closed = wait_closed
            for sock in listener.sockets:
                sock.setsockopt(socket.SOL_SOCKET, socket.SO_SNDBUF, 8192)
                sock.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 8192)
            idle = await ServeClient.connect(host, port)
            assert (await idle.ping())["type"] == "pong"
            # A client that sends pings and never reads their replies.
            _, writer = await asyncio.open_connection(host, port)
            sock = writer.get_extra_info("socket")
            sock.setsockopt(socket.SOL_SOCKET, socket.SO_SNDBUF, 8192)
            sock.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 8192)
            burst = b"".join(encode_line({"op": "ping", "id": i}) for i in range(1000))
            try:
                for _ in range(200):
                    writer.write(burst)
                    try:
                        await asyncio.wait_for(writer.drain(), timeout=0.5)
                    except asyncio.TimeoutError:
                        break
                else:
                    raise AssertionError("server kept reading a client that never reads")
                loop = asyncio.get_running_loop()
                began = loop.time()
                await asyncio.wait_for(server.shutdown(), timeout=drain_timeout_s + 1.0)
                assert loop.time() - began < drain_timeout_s + 1.0
                assert listener._active_count == 0
            finally:
                writer.transport.abort()
                await idle.close()

        asyncio.run(scenario())
