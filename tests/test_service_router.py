"""Sharding router: hash-ring placement guarantees and live routing.

The ring tests are golden on purpose: consistent-hash *stability* is a
compatibility contract. A router restart (or a second router in front of
the same fleet) must compute the identical key->shard assignment, or every
shard-local dedup tier silently degrades into N-way duplicated execution.
The pinned values below may only change with a ROUTER_VERSION bump.

The live tests run a real ``dwarn-sim route`` subprocess over *externally
managed* shards (booted by the test), because shard death is part of what
is verified — the router must degrade per key range, not whole-fleet.
"""

from __future__ import annotations

import asyncio
import json
import signal
import socket
import subprocess
import sys
import time
from collections import Counter

import pytest

from repro.service.client import ServiceClient, ServiceError
from repro.service.http import (
    Request,
    end_chunked,
    json_response,
    read_request,
    start_chunked,
    write_chunk,
)
from repro.service.protocol import JobSpec
from repro.service.router import HashRing, RouterConfig, Shard, SimulationRouter, parse_shard_url

#: Tiny-but-real measurement windows (same scale as the e2e fixtures).
TINY = {"warmup_cycles": 200, "measure_cycles": 1_200, "trace_length": 6_000}


# ----------------------------------------------------------------------
# HashRing (pure)


class TestHashRingGolden:
    """Pinned assignments: same keys -> same shard, across restarts and
    across processes. These values are part of ROUTER_VERSION 1."""

    GOLDEN_2 = {
        "015f4595514b6963": "s0",
        "deadbeefcafef00d": "s1",
        "0000000000000000": "s1",
        "ffffffffffffffff": "s1",
        "a3c82e917bd054f1": "s1",
        "5e1f00d5eedc0ffe": "s1",
    }
    GOLDEN_4 = {
        "015f4595514b6963": "s3",
        "deadbeefcafef00d": "s2",
        "0000000000000000": "s3",
        "ffffffffffffffff": "s2",
        "a3c82e917bd054f1": "s3",
        "5e1f00d5eedc0ffe": "s1",
    }

    def test_two_shard_assignment_pinned(self):
        ring = HashRing(["s0", "s1"])
        assert {k: ring.owner(k) for k in self.GOLDEN_2} == self.GOLDEN_2

    def test_four_shard_assignment_pinned(self):
        ring = HashRing(["s0", "s1", "s2", "s3"])
        assert {k: ring.owner(k) for k in self.GOLDEN_4} == self.GOLDEN_4

    def test_independent_instances_agree(self):
        """Two rings built separately (as two router processes would)
        agree on every key — no per-process randomization anywhere."""
        a = HashRing(["s0", "s1", "s2"])
        b = HashRing(["s0", "s1", "s2"])
        keys = [JobSpec("2-MIX", "dwarn", seed=i).cache_key() for i in range(200)]
        assert [a.owner(k) for k in keys] == [b.owner(k) for k in keys]


class TestHashRingProperties:
    def test_distribution_roughly_uniform(self):
        ring = HashRing(["s0", "s1", "s2", "s3"])
        counts = Counter(ring.owner(f"k{i}") for i in range(2000))
        assert set(counts) == {"s0", "s1", "s2", "s3"}
        for n in counts.values():
            # 4 shards x 64 vnodes: every shard owns a real share (the
            # pre-finalizer FNV ring failed this at 2.5:1 skew).
            assert 0.15 < n / 2000 < 0.35

    def test_adding_a_shard_moves_a_bounded_slice(self):
        """N=4 -> N=5 must move ~1/5 of keys, and every moved key must move
        *to the new shard* — consistent hashing's defining property (keys
        never shuffle between surviving shards)."""
        before = HashRing(["s0", "s1", "s2", "s3"])
        after = HashRing(["s0", "s1", "s2", "s3", "s4"])
        keys = [f"k{i}" for i in range(2000)]
        moved = [k for k in keys if before.owner(k) != after.owner(k)]
        assert 0.10 < len(moved) / len(keys) < 0.35
        assert all(after.owner(k) == "s4" for k in moved)

    def test_removing_a_shard_only_reassigns_its_keys(self):
        full = HashRing(["s0", "s1", "s2"])
        without = HashRing(["s0", "s1"])
        for i in range(500):
            k = f"k{i}"
            if full.owner(k) != "s2":
                assert without.owner(k) == full.owner(k)

    def test_bad_configs_rejected(self):
        with pytest.raises(ValueError):
            HashRing([])
        with pytest.raises(ValueError):
            HashRing(["s0", "s0"])


class TestParseShardUrl:
    def test_forms(self):
        s = parse_shard_url("127.0.0.1:9000", 0)
        assert (s.name, s.host, s.port) == ("s0", "127.0.0.1", 9000)
        s = parse_shard_url("http://localhost:8177/", 3)
        assert (s.name, s.host, s.port) == ("s3", "localhost", 8177)

    def test_rejects_garbage(self):
        for bad in ("localhost", "host:", ":8177", "http://x:port"):
            with pytest.raises(ValueError):
                parse_shard_url(bad, 0)


# ----------------------------------------------------------------------
# Live router over external shards


def _wait_port_file(path, proc, timeout=30.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if proc.poll() is not None:
            raise RuntimeError(f"process died at boot ({proc.returncode})")
        if path.exists() and path.read_text().strip():
            return int(path.read_text())
        time.sleep(0.02)
    raise RuntimeError(f"no port file at {path}")


class LiveFleet:
    """Two external ``serve`` shards plus a ``route`` front-end."""

    def __init__(self, tmp, router_flags=()):
        self.procs = []
        self.shard_ports = []
        try:
            for i in range(2):
                d = tmp / f"shard{i}"
                d.mkdir()
                pf = d / "port"
                proc = subprocess.Popen(
                    [
                        sys.executable, "-m", "repro.cli", "serve",
                        "--port", "0", "--port-file", str(pf),
                        "--store", str(d / "results.jsonl"),
                        "--cache-dir", str(d / "cache"),
                        "--trace-cache", str(d / "traces"),
                    ],
                    stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
                )
                self.procs.append(proc)
                self.shard_ports.append(_wait_port_file(pf, proc))
            rpf = tmp / "router-port"
            self.router = subprocess.Popen(
                [
                    sys.executable, "-m", "repro.cli", "route",
                    "--port", "0", "--port-file", str(rpf),
                    "--shard", f"127.0.0.1:{self.shard_ports[0]}",
                    "--shard", f"127.0.0.1:{self.shard_ports[1]}",
                    "--cooldown", "0.5",
                    *router_flags,
                ],
                stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
            )
            self.procs.append(self.router)
            self.port = _wait_port_file(rpf, self.router)
            self.client = ServiceClient("127.0.0.1", self.port, timeout=30.0)
        except Exception:
            self.kill()
            raise

    def kill_shard(self, i):
        self.procs[i].send_signal(signal.SIGKILL)
        self.procs[i].wait(timeout=10)

    def kill(self):
        if hasattr(self, "client"):
            self.client.close()
        for proc in self.procs:
            if proc.poll() is None:
                proc.kill()
                proc.wait(timeout=10)


@pytest.fixture
def fleet(tmp_path):
    f = LiveFleet(tmp_path)
    yield f
    f.kill()


def _spec(seed, workload="2-MIX", policy="dwarn"):
    return {"workload": workload, "policy": policy, "seed": seed, **TINY}


def _owner(spec):
    """Client-side prediction of the owning shard (the routing contract)."""
    return HashRing(["s0", "s1"]).owner(JobSpec.from_dict(spec).cache_key())


def _seed_owned_by(shard, start=100):
    seed = start
    while _owner(_spec(seed)) != shard:
        seed += 1
    return seed


class TestLiveRouting:
    def test_submit_routes_by_key_and_prefixes_ids(self, fleet):
        jobs = {}
        for seed in range(1, 9):
            job = fleet.client.submit(_spec(seed))
            shard, _, bare = job["id"].partition("@")
            assert shard in ("s0", "s1") and bare
            assert shard == _owner(_spec(seed))  # client-predictable placement
            jobs[seed] = job
        assert len({j["id"].split("@")[0] for j in jobs.values()}) == 2
        assert fleet.client.metrics()["router"]["routed"] >= 8

        # Completion, status and results all route through the prefix.
        record = fleet.client.wait(jobs[1]["id"], timeout=120.0)
        assert record["state"] == "done"
        assert record["result"]["throughput"] > 0

        # The router copies each shard's trace memo section; every trace
        # a shard memoizes here is TINY's length.
        traces = fleet.client.metrics()["per_shard"][_owner(_spec(1))]["traces"]
        assert traces["memoized"] >= 2 and traces["generated"] >= 1
        assert traces["records"] == traces["memoized"] * TINY["trace_length"]

        # A duplicate lands on the same shard and is cache-served there.
        dup = fleet.client.submit(_spec(1))
        assert dup["id"].split("@")[0] == jobs[1]["id"].split("@")[0]
        assert dup["state"] == "done"
        assert dup["source"] in ("store", "disk", "memory")

    def test_bare_ids_fan_out_to_all_shards(self, fleet):
        job = fleet.client.submit(_spec(1))
        bare = job["id"].split("@", 1)[1]
        found = fleet.client.status(bare)  # pre-router id: no shard prefix
        assert found["key"] == job["key"]
        with pytest.raises(ServiceError) as exc:
            fleet.client.status("nonexistent")
        assert exc.value.status == 404

    def test_healthz_aggregates(self, fleet):
        h = fleet.client.healthz()
        assert h["status"] == "ok" and h["role"] == "router"
        assert h["shards_up"] == 2
        assert h["ring"] == {"replicas": 64, "shards": ["s0", "s1"]}
        assert set(h["shards"]) == {"s0", "s1"}
        assert h["router_version"] == 1 and h["protocol_version"] == 1

    def test_dead_shard_degrades_only_its_key_range(self, fleet):
        fleet.kill_shard(0)  # s0 dies; s1 keeps serving

        down_seed = _seed_owned_by("s0")
        with pytest.raises(ServiceError) as exc:
            fleet.client.submit(_spec(down_seed))
        assert exc.value.status == 503

        status, payload, headers = fleet.client.request(
            "POST", "/v1/jobs", _spec(down_seed)
        )
        assert status == 503
        assert payload["shard"] == "s0"
        assert int(headers["Retry-After"]) >= 1

        up_seed = _seed_owned_by("s1")
        job = fleet.client.submit(_spec(up_seed))
        assert job["id"].startswith("s1@")

        h = fleet.client.healthz()
        assert h["status"] == "degraded" and h["shards_up"] == 1
        assert h["shards"]["s0"] == {"status": "down"}

        m = fleet.client.metrics()
        assert m["router"]["unavailable"] >= 2
        assert m["router"]["shards_up"] == 1


class TestLiveLeaseRouting:
    def test_held_lease_sweeps_every_shard_before_parking(self, fleet):
        """A lease with ``wait`` is granted at once while any shard has
        work, whichever shard the round-robin starts on; only when every
        shard is empty is it held, then answered empty."""
        lease = {"worker": "w", "capacity": 1}
        # Register the worker on both shards: their local dispatchers then
        # leave the queued jobs to it.
        status, payload, _ = fleet.client.request("POST", "/v1/leases", lease)
        assert status == 200 and payload["lease"] is None
        seed = 100
        for _ in range(2):  # consecutive requests start on different shards
            seed = _seed_owned_by("s1", start=seed + 1)
            job = fleet.client.submit(_spec(seed))
            t0 = time.monotonic()
            status, payload, _ = fleet.client.request(
                "POST", "/v1/leases", {**lease, "wait": 3}
            )
            assert time.monotonic() - t0 < 1.5, "parked on the empty shard"
            assert status == 200, payload
            assert payload["lease"]["id"].startswith("s1@")
            assert [e["id"] for e in payload["jobs"]] == [job["id"].split("@", 1)[1]]
        t0 = time.monotonic()
        status, payload, _ = fleet.client.request(
            "POST", "/v1/leases", {**lease, "wait": 1}
        )
        assert time.monotonic() - t0 >= 0.9
        assert status == 200 and payload == {"lease": None, "jobs": []}

    def test_bad_wait_rejected_before_forwarding(self, fleet):
        status, payload, _ = fleet.client.request(
            "POST", "/v1/leases", {"worker": "w", "wait": -1}
        )
        assert status == 400 and "lease wait" in payload["error"]
        assert fleet.client.metrics()["router"]["routed"] == 0  # never forwarded


class TestLiveAdmissionControl:
    def test_rate_limited_client_gets_429_with_budget_headers(self, tmp_path):
        f = LiveFleet(tmp_path, router_flags=("--rate", "1", "--burst", "2"))
        try:
            limited = ServiceClient(
                "127.0.0.1", f.port, timeout=30.0, client_id="greedy"
            )
            statuses = []
            for seed in (1, 2, 3):
                status, payload, headers = limited.request(
                    "POST", "/v1/jobs", _spec(seed)
                )
                statuses.append(status)
            assert statuses[:2] == [202, 202] and statuses[2] == 429
            assert headers["X-RateLimit-Limit"] == "2"
            assert float(headers["X-RateLimit-Remaining"]) < 1.0
            assert int(headers["Retry-After"]) >= 1
            assert payload["retry_after"] > 0

            # Budgets are per client id: a different client is unaffected.
            other = ServiceClient(
                "127.0.0.1", f.port, timeout=30.0, client_id="patient"
            )
            status, _, _ = other.request("POST", "/v1/jobs", _spec(4))
            assert status == 202
            assert f.client.metrics()["router"]["rate_limited"] >= 1
        finally:
            f.kill()


class TestOutageCount:
    def test_concurrent_failures_count_one_outage(self):
        """Forwards that fail together against a shard with no listener
        count one outage in ``shard_down``; a failure after the cooldown
        starts a second one."""
        with socket.socket() as sock:
            sock.bind(("127.0.0.1", 0))
            port = sock.getsockname()[1]  # closed below: nothing listens

        async def run():
            shard = Shard("s0", "127.0.0.1", port)
            router = SimulationRouter(RouterConfig(port=0, cooldown=0.2), [shard])

            async def fail(n):
                return await asyncio.gather(
                    *(router._forward(shard, "GET", "/healthz") for _ in range(n))
                )

            counts = []
            assert await fail(6) == [None] * 6
            counts.append(router.counters["shard_down"])
            await asyncio.sleep(0.3)
            assert await fail(1) == [None]
            counts.append(router.counters["shard_down"])
            return counts

        assert asyncio.run(run()) == [1, 2]


class TestStreamRelay:
    def test_refused_partition_does_not_cut_the_others_short(self):
        """One shard refuses its partition of a stream (a draining shard
        answers 409) while the other streams more slowly: the caller still
        gets one line per spec. The refusal used to count as two finished
        partitions, ending the relay before the slow shard's line."""
        jobs = [_spec(_seed_owned_by("s0")), _spec(_seed_owned_by("s1"))]

        async def refuse(reader, writer):
            await read_request(reader)
            writer.write(json_response(409, {"error": "server is shutting down"}))
            await writer.drain()
            writer.close()

        async def stream_slowly(reader, writer):
            await read_request(reader)
            await start_chunked(writer)
            await asyncio.sleep(0.3)
            await write_chunk(writer, {"index": 0, "id": "j", "state": "done"})
            await end_chunked(writer)
            writer.close()

        class Writer:
            data = b""

            def write(self, data):
                self.data += data

            async def drain(self):
                pass

        async def run():
            servers = [
                await asyncio.start_server(handler, "127.0.0.1", 0)
                for handler in (refuse, stream_slowly)
            ]
            shards = [
                Shard(f"s{i}", "127.0.0.1", server.sockets[0].getsockname()[1])
                for i, server in enumerate(servers)
            ]
            router = SimulationRouter(RouterConfig(port=0), shards)
            writer = Writer()
            body = json.dumps({"jobs": jobs}).encode()
            try:
                await router._stream(Request("POST", "/v1/stream", {}, body), writer)
            finally:
                for server in servers:
                    server.close()
                    await server.wait_closed()
            return writer.data

        data = asyncio.run(run())
        _, _, rest = data.partition(b"\r\n\r\n")
        lines = []
        while True:
            size_line, _, rest = rest.partition(b"\r\n")
            size = int(size_line, 16)
            if size == 0:
                break
            lines.append(json.loads(rest[:size]))
            rest = rest[size + 2:]
        by_index = {line["index"]: line for line in lines}
        assert sorted(by_index) == [0, 1]
        assert by_index[0]["state"] == "failed" and "HTTP 409" in by_index[0]["error"]
        assert by_index[1]["state"] == "done" and by_index[1]["id"] == "s1@j"
