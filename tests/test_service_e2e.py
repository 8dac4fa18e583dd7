"""End-to-end service tests against a live ``dwarn-sim serve`` subprocess.

The acceptance scenario from the service issue, pinned as tests:

- 50 concurrent client submissions (mixed duplicate and unique specs)
  complete with correct results, and the duplicates are served from
  coalesced or cached execution rather than re-simulated;
- a full queue answers 429 with a ``Retry-After`` header;
- SIGTERM mid-queue drains in-flight jobs, cancels unstarted ones, persists
  the result store, and exits 0.

A real subprocess (not an in-loop server) is used deliberately: signal
delivery, port binding, and the ``--port-file`` handshake are part of what
these tests verify. Simulations run at test scale (hundreds of cycles), so
the whole module stays in tier-1 time budgets.
"""

from __future__ import annotations

import json
import signal
import subprocess
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest

from repro.service.client import ServiceClient, ServiceError

#: Tiny-but-real measurement windows (same scale as the unit-test fixtures).
TINY = {"warmup_cycles": 200, "measure_cycles": 1_200, "trace_length": 6_000}


class LiveServer:
    """A ``dwarn-sim serve`` subprocess plus a client bound to it."""

    def __init__(self, tmp: Path, **flags):
        self.tmp = tmp
        self.port_file = tmp / "port"
        self.port_file.unlink(missing_ok=True)  # never read a stale port
        self.store_path = tmp / "results.jsonl"
        cmd = [
            sys.executable, "-m", "repro.cli", "serve",
            "--port", "0",
            "--port-file", str(self.port_file),
            "--store", str(self.store_path),
            "--cache-dir", str(tmp / "cache"),
            "--trace-cache", str(tmp / "traces"),
        ]
        for flag, value in flags.items():
            cmd += [f"--{flag.replace('_', '-')}", str(value)]
        self.proc = subprocess.Popen(
            cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True
        )
        deadline = time.monotonic() + 30
        while time.monotonic() < deadline:
            if self.proc.poll() is not None:
                raise RuntimeError(
                    f"server died at boot ({self.proc.returncode}): "
                    f"{self.proc.stdout.read()}"
                )
            if self.port_file.exists() and self.port_file.read_text().strip():
                break
            time.sleep(0.02)
        else:
            raise RuntimeError("server never wrote its port file")
        self.port = int(self.port_file.read_text())
        self.client = ServiceClient("127.0.0.1", self.port, timeout=30.0)

    def sigterm_and_wait(self, timeout: float = 60.0) -> tuple[int, str]:
        self.proc.send_signal(signal.SIGTERM)
        out, _ = self.proc.communicate(timeout=timeout)
        return self.proc.returncode, out

    def kill(self):
        self.client.close()
        if self.proc.poll() is None:
            self.proc.kill()
            self.proc.communicate(timeout=10)


@pytest.fixture
def server(tmp_path):
    srv = LiveServer(tmp_path)
    yield srv
    srv.kill()


class TestConcurrentSubmissions:
    def test_fifty_mixed_clients(self, server):
        """The headline scenario: 50 concurrent submissions, 12 unique specs."""
        unique = [
            {"workload": wl, "policy": pol, "seed": seed, **TINY}
            for wl in ("2-MIX", "2-ILP")
            for pol in ("dwarn", "icount")
            for seed in (1, 2, 3)
        ]
        specs = [unique[i % len(unique)] for i in range(50)]

        def one(spec):
            client = ServiceClient("127.0.0.1", server.port, timeout=30.0)
            job = client.submit(spec)
            record = client.wait(job["id"], timeout=180.0)
            return spec, job, record

        with ThreadPoolExecutor(max_workers=50) as pool:
            outcomes = list(pool.map(one, specs))

        # Every submission completed with a plausible, spec-matching result.
        by_key: dict[str, set[float]] = {}
        for spec, job, record in outcomes:
            assert record["state"] == "done"
            res = record["result"]
            assert res["throughput"] > 0
            assert len(res["ipc"]) == 2  # both workloads are 2-thread
            assert record["spec"]["workload"] == spec["workload"]
            assert record["spec"]["policy"] == spec["policy"]
            by_key.setdefault(job["key"], set()).add(res["throughput"])

        # Identical specs all saw the identical result (one execution's
        # output, not 50 independent runs that happen to agree).
        assert len(by_key) == len(unique)
        for throughputs in by_key.values():
            assert len(throughputs) == 1

        # The server executed each unique pair at most once; the other
        # ~38 submissions were served by coalescing or the caches.
        m = server.client.metrics()
        assert m["exec"]["pairs_executed"] <= len(unique)
        assert (
            m["cache"]["coalesced"]
            + m["cache"]["store_hits"]
            + m["cache"]["runner_cache_hits"]
        ) == 50 - m["exec"]["pairs_executed"]
        assert m["jobs"]["submitted"] == 50
        assert m["jobs"]["failed"] == 0
        assert m["queue"]["depth"] == 0 and m["queue"]["in_flight"] == 0
        assert m["latency"]["p95"] >= m["latency"]["p50"] >= 0.0

    def test_resubmit_after_completion_hits_store(self, server):
        spec = {"workload": "2-MEM", "policy": "flush", "seed": 9, **TINY}
        first = server.client.submit(spec)
        server.client.wait(first["id"], timeout=120.0)
        assert server.client.healthz()["stored_results"] >= 1
        again = server.client.submit(spec)
        assert again["state"] == "done"
        assert again["source"] in ("store", "disk", "memory")
        assert again["id"] != first["id"]  # new job id, same cached result
        r1 = server.client.result(first["id"])["result"]
        r2 = server.client.result(again["id"])["result"]
        assert r1["throughput"] == r2["throughput"]


class TestValidationAndRouting:
    def test_bad_specs_rejected(self, server):
        for bad, match in (
            ({"workload": "2-MIX"}, "policy"),
            ({"workload": "nope", "policy": "dwarn"}, "workload"),
            ({"workload": "2-MIX", "policy": "nope"}, "policy"),
            ({"workload": "2-MIX", "policy": "dwarn", "polcy": 1}, "polcy"),
        ):
            with pytest.raises(ServiceError) as exc:
                server.client.submit(bad)
            assert exc.value.status == 400
            assert match in str(exc.value)

    def test_unknown_endpoints_and_ids(self, server):
        status, _, _ = server.client.request("GET", "/nope")
        assert status == 404
        with pytest.raises(ServiceError) as exc:
            server.client.status("nonexistent")
        assert exc.value.status == 404
        status, _, _ = server.client.request("GET", "/v1/jobs")
        assert status == 405

    def test_healthz_shape(self, server):
        h = server.client.healthz()
        assert h["status"] == "ok"
        assert h["protocol_version"] == 1
        assert h["trace_format"]["magic"] == "DWIT"
        assert h["trace_artifact_version"] >= 1
        assert h["result_cache_version"] >= 4


class TestBackpressure:
    def test_full_queue_429_with_retry_after(self, tmp_path):
        """Capacity 2, dispatcher stalled: the 3rd unique spec must bounce."""
        srv = LiveServer(tmp_path, queue_capacity=2, worker_grace=60)
        try:
            # An unheld lease request registers worker "hold": while it is
            # within the grace window, the local dispatcher leaves the
            # queue to the fleet, and nothing ever leases from it.
            status, _, _ = srv.client.request(
                "POST", "/v1/leases", {"worker": "hold", "capacity": 1}
            )
            assert status == 200
            statuses = []
            for seed in (1, 2, 3, 4):
                spec = {"workload": "2-MIX", "policy": "dwarn", "seed": seed, **TINY}
                status, payload, headers = srv.client.request("POST", "/v1/jobs", spec)
                statuses.append(status)
                if status == 429:
                    assert "Retry-After" in headers
                    assert int(headers["Retry-After"]) >= 1
                    assert payload["retry_after"] >= 1
            assert statuses == [202, 202, 429, 429]

            # Duplicates of a queued spec coalesce even while the queue is full.
            dup = srv.client.submit(
                {"workload": "2-MIX", "policy": "dwarn", "seed": 1, **TINY}
            )
            assert dup["coalesced"] >= 1

            m = srv.client.metrics()
            assert m["jobs"]["rejected"] == 2
            assert m["queue"]["depth"] == 2
        finally:
            srv.kill()


class TestShutdownDrain:
    def test_sigterm_drains_in_flight_and_persists(self, tmp_path):
        """SIGTERM mid-queue: running work finishes, queued work cancels,
        the store survives, exit status is 0."""
        srv = LiveServer(tmp_path)
        try:
            specs = [
                {"workload": "2-MIX", "policy": pol, "seed": s, **TINY}
                for pol, s in (("dwarn", 1), ("icount", 1), ("flush", 1), ("stall", 1))
            ]
            # A long first job holds the dispatcher (it runs one job at a time)
            # while the other three wait in the queue.
            specs[0] = {**specs[0], "measure_cycles": 12_000, "trace_length": 20_000}
            jobs = [srv.client.submit(sp) for sp in specs]
            deadline = time.monotonic() + 30
            while srv.client.status(jobs[0]["id"])["state"] != "running":
                assert time.monotonic() < deadline, "first job never started"
                time.sleep(0.02)
            status, out = srv.sigterm_and_wait()
            assert status == 0, out
            assert "drained" in out

            # The store file survived and contains only completed jobs.
            records = [
                json.loads(line)
                for line in srv.store_path.read_text().splitlines()
                if line.strip()
            ]
            assert all(r["state"] == "done" for r in records)
            done_keys = {r["key"] for r in records}
            assert 0 < len(done_keys) < len(jobs)  # drained some, cancelled rest
            assert all(r["result"]["throughput"] > 0 for r in records)

            # A restart on the same store serves those results instantly.
            srv2 = LiveServer(tmp_path)
            try:
                completed_key = records[0]["key"]
                spec = next(
                    sp for sp, j in zip(specs, jobs) if j["key"] == completed_key
                )
                again = srv2.client.submit(spec)
                assert again["state"] == "done" and again["source"] == "store"
            finally:
                srv2.kill()
        finally:
            srv.kill()
