"""Persistent HTTP/1.1 connections on every service hop.

The shard daemon and the router serve keep-alive connections through one
request loop (``repro.service.http.HttpServer``), the router forwards over
a per-shard connection pool, and ``ServiceClient`` keeps one connection per
thread. Pinned here:

- the connection loop's states: pipelined requests answered in order;
  ``Connection: close``, HTTP/1.0, a 413, a head over the stream limit and
  a bad ``Content-Length`` each end the connection; a drain closes idle
  connections at once (Python 3.12.1's ``Server.wait_closed`` otherwise
  waits out :data:`READ_TIMEOUT` on each), and a request already received
  when the drain starts is still answered;
- stale connections: a pooled or kept connection the server closed is
  replaced and the request resent once, with no transport retry, no
  backoff sleep and no ``shard_down``;
- reuse as a number: twenty sequential calls through the router are one
  connection at the router and one router connection per shard, and
  threads sharing one client each keep a connection of their own.

The in-process tests run a shard daemon on the test's own event loop, as
tests/test_service_longpoll.py does, so ``python -X dev -m pytest`` shows a
leaked transport. The fleet tests boot a router over two ``serve`` shards
with ``repro.service.loadtest.Fleet``.
"""

from __future__ import annotations

import asyncio
import json
import signal
import socket
import sys
import threading
import time

import pytest

import repro.service.client as client_mod
from repro.service.client import ServiceClient
from repro.service.http import (
    MAX_BODY_BYTES,
    READ_TIMEOUT,
    ConnectionPool,
    HttpServer,
    fetch_json,
)
from repro.service.loadtest import Fleet, LoadTestConfig
from repro.service.protocol import JobSpec
from repro.service.router import HashRing

from test_service_e2e import TINY
from test_service_longpoll import _boot, _drain

HEALTHZ = b"GET /healthz HTTP/1.1\r\nHost: t\r\n\r\n"


async def _read_reply(reader: asyncio.StreamReader) -> tuple[int, dict[str, str], object]:
    head = await asyncio.wait_for(reader.readuntil(b"\r\n\r\n"), 10.0)
    status_line, *lines = head[:-4].decode("latin-1").split("\r\n")
    headers = {}
    for line in lines:
        name, _, value = line.partition(":")
        headers[name.strip().lower()] = value.strip()
    body = await asyncio.wait_for(reader.readexactly(int(headers["content-length"])), 10.0)
    return int(status_line.split()[1]), headers, json.loads(body)


async def _dropped(reader: asyncio.StreamReader) -> bool:
    """The server closed the connection (EOF or reset) without sending."""
    try:
        return await asyncio.wait_for(reader.read(1), 10.0) == b""
    except ConnectionResetError:
        return True


def _on_shard(scenario) -> None:
    """Run ``scenario(port)`` against an in-process shard, then drain it."""

    async def run() -> None:
        svc, task = await _boot()
        try:
            await scenario(svc.port)
        finally:
            await _drain(svc, task)

    asyncio.run(run())


async def _connect(port: int, data: bytes):
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    writer.write(data)
    await writer.drain()
    return reader, writer


class TestConnectionLoop:
    def test_pipelined_requests_answered_in_order(self):
        async def scenario(port):
            reader, writer = await _connect(
                port, HEALTHZ + b"GET /v1/jobs/nope HTTP/1.1\r\nHost: t\r\n\r\n"
            )
            status, headers, payload = await _read_reply(reader)
            assert status == 200 and payload["status"] == "ok"
            assert headers["connection"] == "keep-alive"
            status, headers, payload = await _read_reply(reader)
            assert status == 404 and "nope" in payload["error"]
            # Still open: a third request on the same connection is served.
            writer.write(HEALTHZ)
            status, _, _ = await _read_reply(reader)
            assert status == 200
            writer.close()

        _on_shard(scenario)

    @pytest.mark.parametrize(
        "request_bytes",
        [
            b"GET /healthz HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n",
            b"GET /healthz HTTP/1.0\r\n\r\n",
        ],
        ids=["connection-close", "http-1.0"],
    )
    def test_one_reply_then_eof(self, request_bytes):
        async def scenario(port):
            reader, writer = await _connect(port, request_bytes)
            status, headers, _ = await _read_reply(reader)
            assert status == 200 and headers["connection"] == "close"
            assert await asyncio.wait_for(reader.read(1), 10.0) == b""
            writer.close()

        _on_shard(scenario)

    def test_http10_keep_alive_persists(self):
        async def scenario(port):
            request = b"GET /healthz HTTP/1.0\r\nConnection: keep-alive\r\n\r\n"
            reader, writer = await _connect(port, request)
            status, headers, _ = await _read_reply(reader)
            assert status == 200 and headers["connection"] == "keep-alive"
            writer.write(request)
            status, _, _ = await _read_reply(reader)
            assert status == 200
            writer.close()

        _on_shard(scenario)

    def test_413_closes_the_connection(self):
        async def scenario(port):
            reader, writer = await _connect(
                port,
                b"POST /v1/jobs HTTP/1.1\r\nHost: t\r\n"
                + f"Content-Length: {MAX_BODY_BYTES + 1}\r\n\r\n".encode(),
            )
            status, headers, _ = await _read_reply(reader)
            assert status == 413 and headers["connection"] == "close"
            assert await _dropped(reader)
            writer.close()

        _on_shard(scenario)

    @pytest.mark.parametrize(
        "request_bytes",
        [
            b"GET /healthz HTTP/1.1\r\nX-Pad: " + b"a" * 70_000 + b"\r\n\r\n",
            b"POST /v1/jobs HTTP/1.1\r\nContent-Length: -5\r\n\r\n{}",
            b"POST /v1/jobs HTTP/1.1\r\nContent-Length: two\r\n\r\n{}",
            b"hello\r\n\r\n",
        ],
        ids=["head-over-stream-limit", "negative-length", "non-numeric-length", "noise"],
    )
    def test_bad_head_dropped_without_reply(self, request_bytes):
        async def scenario(port):
            reader, writer = await _connect(port, request_bytes)
            assert await _dropped(reader)
            writer.close()

        _on_shard(scenario)

    def test_drain_closes_idle_connection(self):
        """An idle keep-alive connection neither holds the drain nor
        outlives it."""

        async def run():
            svc, task = await _boot()
            reader, writer = await _connect(svc.port, HEALTHZ)
            status, headers, _ = await _read_reply(reader)
            assert status == 200 and headers["connection"] == "keep-alive"
            t0 = time.monotonic()
            svc.request_shutdown()
            assert await asyncio.wait_for(task, 5.0) == 0
            assert time.monotonic() - t0 < 5.0 < READ_TIMEOUT
            assert await asyncio.wait_for(reader.read(1), 5.0) == b""
            writer.close()

        asyncio.run(run())


    @pytest.mark.parametrize("buffered", [HEALTHZ, b""], ids=["request", "nothing"])
    def test_drain_serves_only_what_has_arrived(self, buffered):
        """A request already buffered on an idle connection when the drain
        starts is served, with ``Connection: close``; a connection with
        nothing buffered ends unanswered. Either way it stops reading."""

        class Transport:
            reading = True

            def pause_reading(self):
                self.reading = False

        class Writer:
            """Keeps what is written before ``close()``, as a transport does."""

            transport = Transport()
            closing = False
            written = b""

            def write(self, data):
                if not self.closing:
                    self.written += data

            async def drain(self):
                pass

            def close(self):
                self.closing = True

            async def wait_closed(self):
                pass

        async def run():
            async def handler(request, writer):
                return 200, {"path": request.path}, {}

            server = HttpServer(handler)
            reader, writer = asyncio.StreamReader(), Writer()
            conn = asyncio.create_task(server.serve_connection(reader, writer))
            await asyncio.sleep(0)  # the loop now waits for a request head
            reader.feed_data(buffered)  # arrives in the drain's loop turn
            server.close_idle()
            await asyncio.wait_for(conn, 5.0)
            return server, writer

        server, writer = asyncio.run(run())
        assert not writer.transport.reading and writer.closing
        if buffered:
            assert server.served == 1
            assert writer.written.startswith(b"HTTP/1.1 200 OK\r\n")
            assert b"\r\nConnection: close\r\n" in writer.written
        else:
            assert server.served == 0 and writer.written == b""


class TestStaleConnections:
    def test_pool_resends_once_on_a_fresh_connection(self):
        """A pooled connection that the peer closes instead of answering is
        replaced, and the request is resent once on a new connection."""

        async def run():
            accepted = 0

            async def handle(reader, writer):
                nonlocal accepted
                accepted += 1
                try:
                    await reader.readuntil(b"\r\n\r\n")
                    body = b'{"n": %d}' % accepted
                    writer.write(
                        b"HTTP/1.1 200 OK\r\nConnection: keep-alive\r\n"
                        + b"Content-Length: %d\r\n\r\n" % len(body) + body
                    )
                    await writer.drain()
                    # The next request on this connection finds it closed.
                    await reader.readuntil(b"\r\n\r\n")
                except asyncio.IncompleteReadError:
                    pass  # the pool closed this connection first
                finally:
                    writer.close()

            server = await asyncio.start_server(handle, "127.0.0.1", 0)
            port = server.sockets[0].getsockname()[1]
            pool = ConnectionPool()
            try:
                first = await fetch_json("127.0.0.1", port, "GET", "/", pool=pool)
                second = await fetch_json("127.0.0.1", port, "GET", "/", pool=pool)
            finally:
                pool.close()
                server.close()
                await server.wait_closed()
            assert first[:2] == (200, {"n": 1})
            assert second[:2] == (200, {"n": 2})
            assert pool.opened == accepted == 2

        asyncio.run(run())

    def test_client_replaces_connection_server_closed(self, monkeypatch):
        """The server closes a ``ServiceClient``'s idle connection; the next
        call succeeds with no transport retry and no backoff sleep."""
        listener = socket.create_server(("127.0.0.1", 0))
        port = listener.getsockname()[1]
        closed = threading.Event()
        connections = []

        def serve() -> None:
            for _ in range(2):
                conn, _ = listener.accept()
                connections.append(conn)
                data = b""
                while b"\r\n\r\n" not in data:
                    data += conn.recv(65536)
                body = json.dumps({"n": len(connections)}).encode()
                conn.sendall(
                    b"HTTP/1.1 200 OK\r\nConnection: keep-alive\r\n"
                    + b"Content-Length: %d\r\n\r\n" % len(body) + body
                )
                conn.close()  # idle close, after a keep-alive reply
                closed.set()

        thread = threading.Thread(target=serve, daemon=True)
        thread.start()
        sleeps = []
        monkeypatch.setattr(client_mod.time, "sleep", sleeps.append)
        try:
            client = ServiceClient("127.0.0.1", port, timeout=10.0, retries=0)
            assert client.request("GET", "/healthz")[:2] == (200, {"n": 1})
            assert closed.wait(10.0)
            assert client.request("GET", "/healthz")[:2] == (200, {"n": 2})
            assert sleeps == []
            client.close()
        finally:
            thread.join(timeout=10.0)
            listener.close()
        assert len(connections) == 2


# ----------------------------------------------------------------------
# Through the router


def _spec(seed: int) -> dict:
    return {"workload": "2-MIX", "policy": "dwarn", "seed": seed, **TINY}


def _seeds_owned_by(shard: str, count: int, start: int = 100) -> list[int]:
    ring = HashRing(["s0", "s1"])
    seeds, seed = [], start
    while len(seeds) < count:
        if ring.owner(JobSpec.from_dict(_spec(seed)).cache_key()) == shard:
            seeds.append(seed)
        seed += 1
    return seeds


@pytest.fixture
def fleet(tmp_path):
    f = Fleet(LoadTestConfig(shards=2), tmp_path / "state")
    f.port = f.boot()
    yield f
    f.stop()


def _recv_reply(sock: socket.socket) -> tuple[int, dict[str, str]]:
    buf = b""
    while b"\r\n\r\n" not in buf:
        chunk = sock.recv(65536)
        assert chunk, "connection closed before a reply"
        buf += chunk
    head, _, rest = buf.partition(b"\r\n\r\n")
    status_line, *lines = head.decode("latin-1").split("\r\n")
    headers = {}
    for line in lines:
        name, _, value = line.partition(":")
        headers[name.strip().lower()] = value.strip()
    while len(rest) < int(headers["content-length"]):
        rest += sock.recv(65536)
    return int(status_line.split()[1]), headers


class TestFleetConnections:
    def test_twenty_calls_one_connection_per_hop(self, fleet):
        client = ServiceClient("127.0.0.1", fleet.port, timeout=30.0)
        seeds = _seeds_owned_by("s0", 4) + _seeds_owned_by("s1", 4)
        jobs = [client.submit(_spec(seed)) for seed in seeds]
        for job in jobs:
            client.status(job["id"])
        for _ in range(3):
            client.healthz()
        metrics = client.metrics()  # the twentieth call
        client.close()
        assert metrics["http"]["connections"] == 1
        assert metrics["http"]["requests"] == 20
        assert metrics["http"]["shard_connections"] == {"s0": 1, "s1": 1}
        for name in ("s0", "s1"):
            assert metrics["per_shard"][name]["http"]["connections"] == 1

    def test_threads_sharing_a_client_each_keep_one_connection(self, fleet):
        """Eight threads share one client (as a worker's main and heartbeat
        threads do): every reply answers its own request, and each thread
        reuses one connection of its own."""
        client = ServiceClient("127.0.0.1", fleet.port, timeout=30.0, retries=0)
        mismatched = []

        def calls(no: int) -> None:
            for i in range(10):
                status, payload, _ = client.request("GET", f"/v1/jobs/t{no}-{i}")
                if status != 404 or f"t{no}-{i}" not in payload["error"]:
                    mismatched.append((no, i, status, payload))
            client.close()

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=calls, args=(no,)) for no in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60.0)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert mismatched == []
        metrics = client.metrics()
        client.close()
        assert metrics["http"]["connections"] == 8 + 1  # each thread, then this one
        assert metrics["http"]["requests"] == 8 * 10 + 1

    def test_restarted_shard_costs_no_shard_down(self, fleet):
        """The router's pooled connection to a restarted shard is stale; the
        next routed calls succeed on the client's first attempt."""
        client = ServiceClient("127.0.0.1", fleet.port, timeout=30.0, retries=0)
        seed, later = _seeds_owned_by("s0", 2)
        status, _, _ = client.request("POST", "/v1/jobs", _spec(seed))
        assert status in (200, 202)
        fleet.restart_shard(0)
        status, job, _ = client.request("POST", "/v1/jobs", _spec(later))
        assert status in (200, 202), job
        status, _, _ = client.request("GET", f"/v1/jobs/{job['id']}")
        assert status == 200
        metrics = client.metrics()
        client.close()
        assert metrics["router"]["shard_down"] == 0
        assert metrics["router"]["unavailable"] == 0
        assert metrics["http"]["shard_connections"]["s0"] == 2

    def test_drain_closes_idle_keep_alive_connections(self, fleet):
        """SIGTERM a shard and the router, each holding an idle keep-alive
        connection: both exit 0 within 5 s and both clients read EOF."""
        shard = fleet.shards[0]
        socks = []
        for port in (shard.port, fleet.port):
            sock = socket.create_connection(("127.0.0.1", port), timeout=10.0)
            sock.sendall(HEALTHZ)
            status, headers = _recv_reply(sock)
            assert status == 200 and headers["connection"] == "keep-alive"
            socks.append(sock)
        procs = [shard.proc, fleet.router.proc]
        t0 = time.monotonic()
        for proc in procs:
            proc.send_signal(signal.SIGTERM)
        for proc in procs:
            assert proc.wait(timeout=5.0) == 0
        assert time.monotonic() - t0 < 5.0
        for sock in socks:
            assert sock.recv(1) == b""
            sock.close()
