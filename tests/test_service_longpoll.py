"""Long-poll lease grants: a parked ``POST /v1/leases`` gets work the moment
it is queued, not on the worker's next poll.

The in-process tests run the daemon on the test's own event loop, so
``python -X dev -m pytest`` (asyncio debug mode) watches the parked path
directly: the park, the wake from ``_admit``, the drain, and the grace
window that a parked worker must keep holding. The live test drives a real
``Worker`` against a ``dwarn-sim serve`` subprocess and pins the latency
the change exists for. The worker unit tests swap in a fake transport.
"""

from __future__ import annotations

import asyncio
import threading
import time

from repro.service.client import ServiceClient
from repro.service.http import ConnectionPool, fetch_json
from repro.service.protocol import MAX_LEASE_WAIT
from repro.service.server import ServiceConfig, SimulationService
from repro.service.worker import Worker, WorkerConfig

from test_service_e2e import TINY, LiveServer

SPEC = {"workload": "2-MIX", "policy": "dwarn", "seed": 777, **TINY}


async def _boot(**overrides) -> tuple[SimulationService, asyncio.Task]:
    """An in-memory daemon serving on an ephemeral port of this loop."""
    svc = SimulationService(ServiceConfig(port=0, **overrides))
    task = asyncio.create_task(svc.serve())
    while svc.port is None:
        await asyncio.sleep(0.005)
    return svc, task


#: One keep-alive pool per in-process daemon, as the router keeps per shard.
_POOLS: dict[SimulationService, ConnectionPool] = {}


async def _call(svc: SimulationService, method: str, path: str, body=None):
    pool = _POOLS.setdefault(svc, ConnectionPool())
    return await fetch_json(
        "127.0.0.1", svc.port, method, path, body, timeout=15.0, pool=pool
    )


async def _parked(svc: SimulationService, body: dict) -> asyncio.Task:
    """Send a lease request and return once the daemon has parked it."""
    lease = asyncio.create_task(_call(svc, "POST", "/v1/leases", body))
    while not svc._lease_waiters:
        assert not lease.done(), lease.result()
        await asyncio.sleep(0.005)
    return lease


async def _drain(svc: SimulationService, task: asyncio.Task) -> None:
    svc.request_shutdown()
    assert await asyncio.wait_for(task, 10.0) == 0
    _POOLS.pop(svc, ConnectionPool()).close()


class TestParkedLeaseInProcess:
    def test_submit_wakes_parked_request(self):
        async def scenario():
            svc, task = await _boot()
            lease = await _parked(svc, {"worker": "w", "capacity": 4, "wait": 3})
            t0 = time.monotonic()
            status, job, _ = await _call(svc, "POST", "/v1/jobs", SPEC)
            assert status == 202, job
            status, grant, _ = await lease
            assert time.monotonic() - t0 < 0.5
            assert status == 200, grant
            assert [e["id"] for e in grant["jobs"]] == [job["id"]]
            assert grant["lease"]["worker"] == "w"
            assert not svc._lease_waiters
            await _drain(svc, task)

        asyncio.run(scenario())

    def test_unheld_and_expired_requests_answer_empty(self):
        async def scenario():
            svc, task = await _boot()
            t0 = time.monotonic()
            status, now, _ = await _call(svc, "POST", "/v1/leases", {"worker": "w"})
            assert time.monotonic() - t0 < 0.5
            assert status == 200 and now["lease"] is None
            assert now["poll_after"] == svc.cfg.tick
            t0 = time.monotonic()
            status, held, _ = await _call(
                svc, "POST", "/v1/leases", {"worker": "w", "wait": 0.3}
            )
            assert time.monotonic() - t0 >= 0.3
            assert status == 200 and held == {"lease": None, "jobs": []}
            await _drain(svc, task)

        asyncio.run(scenario())

    def test_drain_wakes_parked_request(self):
        """A drain answers the parked request 409 and finishes well inside
        the hold (Python 3.12's ``wait_closed`` waits for open connections)."""
        async def scenario():
            svc, task = await _boot()
            lease = await _parked(svc, {"worker": "w", "wait": MAX_LEASE_WAIT})
            t0 = time.monotonic()
            svc.request_shutdown()
            status, payload, _ = await asyncio.wait_for(lease, 2.0)
            assert status == 409, payload
            assert await asyncio.wait_for(task, 2.0) == 0
            assert time.monotonic() - t0 < 1.0
            _POOLS.pop(svc).close()

        asyncio.run(scenario())

    def test_parked_worker_holds_queue_past_grace(self):
        """A hold longer than ``worker_grace`` still counts the parked
        worker as active, so the local dispatcher cannot take its job."""
        async def scenario():
            svc, task = await _boot(worker_grace=0.2)
            lease = await _parked(svc, {"worker": "w", "wait": 3})
            await asyncio.sleep(0.6)  # the worker's last contact is past grace
            status, health, _ = await _call(svc, "GET", "/healthz")
            assert health["active_workers"] == 1
            status, metrics, _ = await _call(svc, "GET", "/metrics")
            assert metrics["workers"]["active"] == 1
            status, job, _ = await _call(svc, "POST", "/v1/jobs", SPEC)
            status, grant, _ = await lease
            assert [e["id"] for e in grant["jobs"]] == [job["id"]]
            status, st, _ = await _call(svc, "GET", f"/v1/jobs/{job['id']}")
            assert st["state"] == "running" and st["worker"] == "w"
            assert svc.counters["batches"] == 0  # never run locally
            await _drain(svc, task)

        asyncio.run(scenario())


class _SignalFirstLease:
    """A real client that sets ``sent`` as the first lease request leaves."""

    def __init__(self, client: ServiceClient) -> None:
        self.client = client
        self.sent = threading.Event()

    def request(self, method, path, body=None):
        if path == "/v1/leases":
            self.sent.set()
        return self.client.request(method, path, body)

    def close(self):
        self.client.close()


class TestParkedWorkerLive:
    def test_parked_worker_granted_on_submit(self, tmp_path):
        """A worker parked on an empty queue (``poll_interval=2``) starts a
        job submitted after it parked within half a second."""
        srv = LiveServer(tmp_path)
        try:
            transport = _SignalFirstLease(
                ServiceClient("127.0.0.1", srv.port, timeout=30.0)
            )
            cfg = WorkerConfig(
                host="127.0.0.1", port=srv.port, worker_id="parked",
                capacity=4, max_leases=1, poll_interval=2.0, quiet=True,
                trace_cache_dir=str(tmp_path / "worker-traces"),
            )
            worker = Worker(cfg, transport=transport)
            thread = threading.Thread(target=worker.run, daemon=True)
            thread.start()
            assert transport.sent.wait(30.0)
            time.sleep(0.2)  # the first request is now held by the daemon
            job = srv.client.submit(SPEC)
            record = srv.client.wait(job["id"], timeout=120.0)
            assert record["state"] == "done" and record["source"] == "worker"
            st = srv.client.status(job["id"])
            assert st["started_at"] - st["submitted_at"] < 0.5, st
            thread.join(timeout=30)
            assert not thread.is_alive()
            assert worker.stats["leases"] == 1
        finally:
            srv.kill()


class _EmptyGrants:
    """Fake transport: every lease request comes back empty; the worker is
    stopped after ``limit`` of them."""

    def __init__(self, limit: int) -> None:
        self.limit = limit
        self.bodies: list[dict] = []
        self.worker: Worker | None = None

    def request(self, method, path, body=None):
        assert path == "/v1/leases", path
        self.bodies.append(body)
        if len(self.bodies) >= self.limit:
            self.worker.stop()
        if body.get("wait"):
            return 200, {"lease": None, "jobs": []}, {}  # held, then ran out
        return 200, {"lease": None, "jobs": [], "poll_after": 0.01}, {}


def _run_against(transport: _EmptyGrants, poll_interval: float) -> float:
    cfg = WorkerConfig(worker_id="fake", poll_interval=poll_interval, quiet=True)
    worker = Worker(cfg, transport=transport)
    transport.worker = worker
    thread = threading.Thread(target=worker.run, daemon=True)
    t0 = time.monotonic()
    thread.start()
    thread.join(timeout=10)
    assert not thread.is_alive()
    assert worker.stats["empty_polls"] == transport.limit
    return time.monotonic() - t0


class TestWorkerLeaseLoop:
    def test_empty_held_reply_repolls_at_once_with_clamped_wait(self):
        """No sleep after an empty held reply, and a ``poll_interval``
        above the cap is sent as ``MAX_LEASE_WAIT``."""
        transport = _EmptyGrants(limit=4)
        elapsed = _run_against(transport, poll_interval=60.0)
        assert elapsed < 1.0  # the parent slept >= 30 s after the first
        assert [b["wait"] for b in transport.bodies] == [MAX_LEASE_WAIT] * 4

    def test_poll_interval_is_the_hold(self):
        transport = _EmptyGrants(limit=2)
        _run_against(transport, poll_interval=0.5)
        assert transport.bodies == [
            {"worker": "fake", "capacity": 4, "wait": 0.5}
        ] * 2

    def test_zero_poll_interval_sends_no_wait_and_honours_poll_after(self):
        transport = _EmptyGrants(limit=2)
        _run_against(transport, poll_interval=0.0)
        assert transport.bodies == [{"worker": "fake", "capacity": 4}] * 2
