"""Fault-injection tests for the distributed worker pool.

The lease protocol's whole job is surviving a hostile network and
disposable workers, so these tests attack it directly:

- SIGKILL a worker subprocess mid-lease: the lease expires, the jobs are
  requeued, and the sweep still completes — every unique spec exactly once.
- Drop every heartbeat and delay the upload past the deadline
  (``FlakyTransport``): the server expires the lease, redelivers, and the
  worker's late upload meets ``410 Gone`` and is discarded.
- Duplicate the result upload: the second copy answers 410 and the
  completion counters move exactly once.
- A worker that leases but never uploads: after ``max_redeliveries``
  expiries the job is parked in the terminal ``dead_letter`` state.
- Two workers draining one mixed sweep: all jobs complete via workers,
  none twice.
- Preemption: SIGKILL a checkpointing worker after it uploaded mid-run
  progress — the redelivered lease ships the checkpoint, a *second* worker
  resumes from the captured cycle (not cycle 0), the job completes exactly
  once, and the result is bit-identical to an uninterrupted in-process
  reference run. Repeated both against a direct daemon and through the
  sharding router (``dwarn-sim route``), whose SIGTERM must then drain
  the supervised shards with exit 0.
- Worker-pool speedup (slow, needs 4 CPUs): four plain worker processes
  run a heavy 16-job sweep at least 1.7x faster than a lone daemon.

``FlakyTransport`` wraps the real ``ServiceClient`` and injects faults by
URL substring — dropped requests raise :class:`ServiceError` exactly as an
exhausted-retries transport does, duplicated requests are sent twice with
the *second* response returned, and delays hold a request back past a lease
deadline. The ``Worker`` takes any transport with ``ServiceClient.request``'s
signature, so no sockets are harmed in the injection.

The server is always a real ``dwarn-sim serve`` subprocess (reusing the
e2e harness), because lease expiry rides on the daemon's housekeeping tick
and local-fallback logic — the things worth testing live.
"""

from __future__ import annotations

import os
import signal
import subprocess
import sys
import threading
import time
from collections import Counter

import pytest

from repro.service.client import ServiceClient, ServiceError
from repro.service.worker import Worker, WorkerConfig

from test_service_e2e import TINY, LiveServer

def _specs(n: int) -> list[dict]:
    """``n`` unique specs sharing one config group (same machine/seed/
    windows), so a single lease can batch them all — what makes "kill the
    worker mid-lease" deterministic instead of racing lease granularity."""
    combos = [
        (wl, pol)
        for wl in ("2-MIX", "2-MEM")
        for pol in ("dwarn", "icount", "flush", "stall")
    ]
    assert n <= len(combos)
    return [
        {"workload": wl, "policy": pol, "seed": 4242, **TINY}
        for wl, pol in combos[:n]
    ]


class FlakyTransport:
    """A ``ServiceClient.request`` wrapper that injects faults by path.

    ``drop``: any request whose path contains one of these substrings
    raises :class:`ServiceError` (what the client raises once its own
    transport retries are exhausted) — the request never reaches the wire.

    ``duplicate``: matching requests are sent *twice*; the second response
    is returned, so the caller observes what a retransmitted upload would.

    ``delay``: maps path substrings to seconds slept before forwarding —
    how a request is pushed past a lease deadline deterministically.
    """

    def __init__(
        self,
        client: ServiceClient,
        drop: tuple[str, ...] = (),
        duplicate: tuple[str, ...] = (),
        delay: dict[str, float] | None = None,
    ) -> None:
        self.client = client
        self.drop = drop
        self.duplicate = duplicate
        self.delay = delay or {}
        self.faults: Counter[str] = Counter()
        self.responses: list[tuple[str, int]] = []  # (path, status) log

    def request(self, method: str, path: str, body=None):
        for frag in self.drop:
            if frag in path:
                self.faults[f"drop:{frag}"] += 1
                raise ServiceError(f"injected transport fault for {method} {path}")
        for frag, secs in self.delay.items():
            if frag in path:
                self.faults[f"delay:{frag}"] += 1
                time.sleep(secs)
        for frag in self.duplicate:
            if frag in path:
                self.faults[f"duplicate:{frag}"] += 1
                self.client.request(method, path, body)  # first copy
                status, payload, headers = self.client.request(method, path, body)
                self.responses.append((path, status))
                return status, payload, headers
        status, payload, headers = self.client.request(method, path, body)
        self.responses.append((path, status))
        return status, payload, headers


def _run_worker_thread(cfg: WorkerConfig, transport) -> tuple[Worker, threading.Thread]:
    worker = Worker(cfg, transport=transport)
    thread = threading.Thread(target=worker.run, daemon=True)
    thread.start()
    return worker, thread


def _wait_metric(client: ServiceClient, path: tuple[str, ...], minimum: int, timeout: float = 30.0) -> dict:
    """Poll /metrics until a nested counter reaches ``minimum``."""
    deadline = time.monotonic() + timeout
    while True:
        m = client.metrics()
        value = m
        for key in path:
            value = value[key]
        if value >= minimum:
            return m
        if time.monotonic() >= deadline:
            raise AssertionError(f"metric {'/'.join(path)} never reached {minimum}: {m}")
        time.sleep(0.05)


def _assert_exactly_once(server: LiveServer, specs: list[dict]) -> None:
    """Every unique spec is done with one consistent result, none failed."""
    m = server.client.metrics()
    assert m["jobs"]["failed"] == 0, m
    assert m["workers"]["dead_letter"] == 0, m
    throughputs: dict[str, set[float]] = {}
    for spec in specs:
        job = server.client.submit(spec)  # terminal now: served from cache/store
        assert job["state"] == "done", job
        res = server.client.result(job["id"])["result"]
        throughputs.setdefault(job["key"], set()).add(res["throughput"])
    assert len(throughputs) == len(specs)
    for values in throughputs.values():
        assert len(values) == 1


class TestWorkerSigkill:
    def test_sigkill_mid_lease_requeues_and_completes(self, tmp_path):
        """Kill -9 a worker subprocess holding a lease: the lease expires,
        its jobs are redelivered, and the sweep completes exactly once."""
        srv = LiveServer(tmp_path, lease_ttl=1, worker_grace=2)
        worker_proc = None
        try:
            worker_proc = subprocess.Popen(
                [
                    sys.executable, "-m", "repro.cli", "worker",
                    "--server", f"http://127.0.0.1:{srv.port}",
                    "--capacity", "4",
                    "--trace-cache", str(tmp_path / "worker-traces"),
                ],
                stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
            )
            # Register the worker *before* submitting, so the daemon defers
            # to the fleet instead of racing it for the first batch.
            _wait_metric(srv.client, ("workers", "active"), 1)
            specs = _specs(4)
            jobs = [srv.client.submit(sp) for sp in specs]
            # Wait until the worker holds a lease, then kill it mid-batch.
            _wait_metric(srv.client, ("workers", "leased"), 1)
            worker_proc.send_signal(signal.SIGKILL)
            worker_proc.wait(timeout=10)

            # The dead worker's lease expires (ttl=1s); after worker_grace
            # the daemon falls back to local execution and finishes the job.
            for job in jobs:
                record = srv.client.wait(job["id"], timeout=120.0)
                assert record["state"] == "done"
                assert record["result"]["throughput"] > 0

            m = srv.client.metrics()
            assert m["workers"]["lease_expired"] >= 1, m
            assert m["workers"]["redelivered"] >= 1, m
            assert m["jobs"]["completed"] == len(specs), m
            _assert_exactly_once(srv, specs)
        finally:
            if worker_proc is not None and worker_proc.poll() is None:
                worker_proc.kill()
                worker_proc.communicate(timeout=10)
            srv.kill()


class TestHeartbeatLoss:
    def test_dropped_heartbeats_expire_lease_and_requeue(self, tmp_path):
        """Heartbeats all dropped + upload delayed past the deadline: the
        server expires the lease and redelivers; the late upload meets 410
        and its batch is discarded, so nothing completes twice."""
        srv = LiveServer(tmp_path, lease_ttl=1, worker_grace=2)
        try:
            transport = FlakyTransport(
                ServiceClient("127.0.0.1", srv.port, timeout=30.0),
                drop=("/heartbeat",),
                delay={"/result": 2.5},  # > lease_ttl: expiry wins the race
            )
            cfg = WorkerConfig(
                host="127.0.0.1", port=srv.port, worker_id="flaky",
                capacity=4, max_leases=1, poll_interval=0.1, quiet=True,
                trace_cache_dir=str(tmp_path / "worker-traces"),
            )
            # Queue both jobs before the worker's first lease, so that one
            # lease holds both: a worker already parked would be granted
            # the first job alone. An unheld lease request registers
            # "flaky", which keeps the local dispatcher off the queue.
            status, _, _ = srv.client.request(
                "POST", "/v1/leases", {"worker": "flaky", "capacity": 4}
            )
            assert status == 200
            _wait_metric(srv.client, ("workers", "active"), 1)
            specs = _specs(2)
            jobs = [srv.client.submit(sp) for sp in specs]
            worker, thread = _run_worker_thread(cfg, transport)
            thread.join(timeout=120)
            assert not thread.is_alive()

            # The worker saw its heartbeats fail and its upload refused.
            assert transport.faults["drop:/heartbeat"] >= 1
            assert worker.stats["uploads_gone"] == 1, worker.stats

            # Server side: lease expired, jobs redelivered, then completed
            # locally (the worker exited, so the grace window lapses).
            for job in jobs:
                record = srv.client.wait(job["id"], timeout=120.0)
                assert record["state"] == "done"
            m = srv.client.metrics()
            assert m["workers"]["lease_expired"] >= 1, m
            assert m["workers"]["redelivered"] >= len(specs), m
            assert m["workers"]["worker_results"] == 0, m  # 410 never recorded
            assert m["jobs"]["completed"] == len(specs), m
            _assert_exactly_once(srv, specs)
        finally:
            srv.kill()


class TestDuplicateUpload:
    def test_duplicate_result_upload_counts_once(self, tmp_path):
        """The upload is transmitted twice: the first copy consumes the
        lease, the retransmission answers 410, and every completion
        counter moves exactly once."""
        srv = LiveServer(tmp_path, lease_ttl=10)
        try:
            # Register "dup" with an unheld lease request first: the local
            # dispatcher then leaves the queued jobs to the worker.
            status, _, _ = srv.client.request(
                "POST", "/v1/leases", {"worker": "dup", "capacity": 1}
            )
            assert status == 200
            specs = _specs(3)
            jobs = [srv.client.submit(sp) for sp in specs]
            transport = FlakyTransport(
                ServiceClient("127.0.0.1", srv.port, timeout=30.0),
                duplicate=("/result",),
            )
            cfg = WorkerConfig(
                host="127.0.0.1", port=srv.port, worker_id="dup",
                capacity=4, max_leases=1, quiet=True,
                trace_cache_dir=str(tmp_path / "worker-traces"),
            )
            worker, thread = _run_worker_thread(cfg, transport)
            thread.join(timeout=120)
            assert not thread.is_alive()

            assert transport.faults["duplicate:/result"] == 1
            # The worker observed the duplicate's 410 (second response wins).
            assert worker.stats["uploads_gone"] == 1, worker.stats

            for job in jobs:
                record = srv.client.wait(job["id"], timeout=60.0)
                assert record["state"] == "done"
                assert record["source"] == "worker"
            m = srv.client.metrics()
            assert m["jobs"]["completed"] == len(specs), m
            assert m["workers"]["worker_results"] == len(specs), m
            assert m["workers"]["redelivered"] == 0, m
            assert m["by_source"]["worker"] == len(specs), m
            _assert_exactly_once(srv, specs)
        finally:
            srv.kill()


class TestDeadLetter:
    def test_silent_worker_dead_letters_after_redelivery_cap(self, tmp_path):
        """A worker that leases and vanishes, twice: with max_redeliveries=1
        the second expiry parks the job terminally in dead_letter."""
        srv = LiveServer(tmp_path, lease_ttl=0.4, max_redeliveries=1)
        stop = threading.Event()

        def silent_worker():
            # Lease everything offered, never heartbeat, never upload — and
            # keep polling so the daemon sees an "active" fleet and leaves
            # the queue alone (no local-fallback rescue).
            client = ServiceClient("127.0.0.1", srv.port, timeout=10.0)
            while not stop.is_set():
                try:
                    client.request(
                        "POST", "/v1/leases", {"worker": "ghost", "capacity": 4}
                    )
                except ServiceError:
                    pass
                stop.wait(0.15)

        thread = threading.Thread(target=silent_worker, daemon=True)
        try:
            thread.start()
            _wait_metric(srv.client, ("workers", "active"), 1)
            spec = _specs(1)[0]
            job = srv.client.submit(spec)

            m = _wait_metric(srv.client, ("workers", "dead_letter"), 1, timeout=30.0)
            assert m["workers"]["lease_expired"] >= 2, m
            assert m["jobs"]["completed"] == 0, m

            st = srv.client.status(job["id"])
            assert st["state"] == "dead_letter"
            assert st["redelivered"] == 2
            assert "dead-lettered" in st["error"]
            with pytest.raises(ServiceError, match="dead_letter"):
                srv.client.wait(job["id"], timeout=5.0)
        finally:
            stop.set()
            thread.join(timeout=5)
            srv.kill()


#: The preemption scenario's job: long enough (~3-4s of checkpointing
#: execution at interval 64) that the kill lands well after the midpoint
#: checkpoint and well before completion.
PREEMPT_SPEC = {
    "workload": "2-MEM",
    "policy": "dwarn",
    "seed": 4242,
    "warmup_cycles": 200,
    "measure_cycles": 30_000,
    "trace_length": 90_000,
}
PREEMPT_TOTAL = PREEMPT_SPEC["warmup_cycles"] + PREEMPT_SPEC["measure_cycles"]
CHECKPOINT_INTERVAL = 64


def _reference_payload(spec: dict) -> dict:
    """The uninterrupted in-process result the preempted job must match."""
    from repro.config import SimulationConfig, baseline
    from repro.core import Simulator, make_policy
    from repro.service.protocol import result_payload
    from repro.workloads import build_programs, get_workload

    simcfg = SimulationConfig(
        warmup_cycles=spec["warmup_cycles"],
        measure_cycles=spec["measure_cycles"],
        trace_length=spec["trace_length"],
        seed=spec["seed"],
    )
    programs = build_programs(get_workload(spec["workload"]), simcfg)
    sim = Simulator(baseline(), programs, make_policy(spec["policy"]), simcfg)
    return result_payload(sim.run())


def _worker_proc(port: int, name: str, trace_cache: str, *flags: str) -> subprocess.Popen:
    """A ``dwarn-sim worker`` subprocess leasing from ``port``."""
    return subprocess.Popen(
        [
            sys.executable, "-m", "repro.cli", "worker",
            "--server", f"http://127.0.0.1:{port}",
            "--worker-id", name,
            "--trace-cache", trace_cache,
            *flags,
        ],
        stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
    )


def _checkpointing_worker_proc(port: int, trace_cache: str, name: str) -> subprocess.Popen:
    return _worker_proc(
        port, name, trace_cache,
        "--capacity", "1", "--checkpoint-interval", str(CHECKPOINT_INTERVAL),
    )


def _assert_preempted_resume(client: ServiceClient, job: dict) -> dict:
    """The shared acceptance block: the job finished via a worker, resumed
    from at least the midpoint, and matches the uninterrupted reference."""
    record = client.wait(job["id"], timeout=180.0)
    assert record["state"] == "done"
    assert record["source"] == "worker"
    st = client.status(job["id"])
    assert st["resumed_from"] >= PREEMPT_TOTAL // 2, st
    assert record["result"] == _reference_payload(PREEMPT_SPEC)
    m = client.metrics()
    assert m["checkpoints"]["stored"] >= 1, m
    assert m["checkpoints"]["shipped"] >= 1, m
    assert m["checkpoints"]["resumed"] >= 1, m
    assert m["jobs"]["completed"] == 1, m
    return m


class TestPreemptResume:
    def test_sigkill_after_checkpoints_resumes_on_second_worker(self, tmp_path):
        """The headline preemption scenario: worker A checkpoints past 50%,
        is SIGKILLed, and worker B finishes the job from the shipped
        checkpoint — exactly once, bit-identical to never being killed."""
        srv = LiveServer(tmp_path, lease_ttl=1, worker_grace=60)
        worker_a = None
        heir = None
        try:
            worker_a = _checkpointing_worker_proc(
                srv.port, str(tmp_path / "shared-traces"), "prey"
            )
            _wait_metric(srv.client, ("workers", "active"), 1)
            job = srv.client.submit(PREEMPT_SPEC)
            # Let worker A checkpoint past the midpoint...
            _wait_metric(
                srv.client, ("checkpoints", "last_cycle"), PREEMPT_TOTAL // 2,
                timeout=90.0,
            )
            # ...boot the heir first (so the daemon keeps deferring to the
            # fleet instead of rescuing the job locally from cycle 0)...
            cfg = WorkerConfig(
                host="127.0.0.1", port=srv.port, worker_id="heir",
                capacity=1, poll_interval=0.1, quiet=True,
                checkpoint_interval=CHECKPOINT_INTERVAL,
                trace_cache_dir=str(tmp_path / "shared-traces"),
            )
            heir, thread = _run_worker_thread(
                cfg, ServiceClient("127.0.0.1", srv.port, timeout=30.0)
            )
            # ...then kill -9 the holder mid-run.
            worker_a.send_signal(signal.SIGKILL)
            worker_a.wait(timeout=10)

            m = _assert_preempted_resume(srv.client, job)
            assert m["workers"]["lease_expired"] >= 1, m
            assert m["workers"]["redelivered"] >= 1, m
            assert heir.stats["resumes"] == 1, heir.stats
            assert heir.stats["resumes_rejected"] == 0, heir.stats
            assert heir.stats["checkpoints_uploaded"] >= 1, heir.stats
            _assert_exactly_once(srv, [PREEMPT_SPEC])
        finally:
            if heir is not None:
                heir.stop()
            if worker_a is not None and worker_a.poll() is None:
                worker_a.kill()
                worker_a.communicate(timeout=10)
            srv.kill()


class TestPreemptResumeRouted:
    def test_preempted_job_resumes_through_router(self, tmp_path):
        """Same preemption story through ``dwarn-sim route``: the checkpoint
        PUT forwards to the owning shard, the redelivered (shard-prefixed)
        lease ships it back, and the resumed completion flows through the
        router's aggregated metrics."""
        from test_service_router import _wait_port_file

        rpf = tmp_path / "router-port"
        router = subprocess.Popen(
            [
                sys.executable, "-m", "repro.cli", "route",
                "--port", "0", "--port-file", str(rpf),
                "--shards", "2",
                "--state-dir", str(tmp_path / "router-state"),
                "--lease-ttl", "1",
                "--cooldown", "0.5",
            ],
            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
        )
        worker_a = None
        heir = None
        try:
            port = _wait_port_file(rpf, router)
            client = ServiceClient("127.0.0.1", port, timeout=30.0)
            worker_a = _checkpointing_worker_proc(
                port, str(tmp_path / "shared-traces"), "prey"
            )
            _wait_metric(client, ("workers", "active"), 1)
            job = client.submit(PREEMPT_SPEC)
            assert "@" in job["id"]  # routed: the id names its shard
            _wait_metric(
                client, ("checkpoints", "last_cycle"), PREEMPT_TOTAL // 2,
                timeout=90.0,
            )
            cfg = WorkerConfig(
                host="127.0.0.1", port=port, worker_id="heir",
                capacity=1, poll_interval=0.1, quiet=True,
                checkpoint_interval=CHECKPOINT_INTERVAL,
                trace_cache_dir=str(tmp_path / "shared-traces"),
            )
            heir, thread = _run_worker_thread(
                cfg, ServiceClient("127.0.0.1", port, timeout=30.0)
            )
            worker_a.send_signal(signal.SIGKILL)
            worker_a.wait(timeout=10)

            m = _assert_preempted_resume(client, job)
            assert heir.stats["resumes"] == 1, heir.stats
            # The router's aggregated counters saw the kill and nothing
            # else: one expired lease redelivered, no failure, no dead letter.
            assert m["workers"]["lease_expired"] >= 1, m
            assert m["workers"]["redelivered"] >= 1, m
            assert m["jobs"]["failed"] == 0, m
            assert m["workers"]["dead_letter"] == 0, m

            # SIGTERM drains the supervised tree: the router exits 0 and
            # takes both shard daemons down with it.
            state = tmp_path / "router-state"
            shard_ports = [int((state / f"s{i}" / "port").read_text()) for i in range(2)]
            router.send_signal(signal.SIGTERM)
            assert router.wait(timeout=60) == 0
            for shard_port in shard_ports:
                probe = ServiceClient("127.0.0.1", shard_port, timeout=2.0, retries=0)
                with pytest.raises(ServiceError):
                    probe.healthz()
        finally:
            if heir is not None:
                heir.stop()
            if worker_a is not None and worker_a.poll() is None:
                worker_a.kill()
                worker_a.communicate(timeout=10)
            # SIGTERM, not SIGKILL: the router must tear down the shard
            # daemons it supervises.
            if router.poll() is None:
                router.terminate()
                try:
                    router.communicate(timeout=30)
                except subprocess.TimeoutExpired:
                    router.kill()
                    router.communicate(timeout=10)


class TestTwoWorkerSweep:
    def test_two_workers_mixed_sweep_exactly_once(self, tmp_path):
        """Two concurrent workers drain one mixed sweep: every job is
        completed by the fleet (not the local dispatcher), none twice."""
        srv = LiveServer(tmp_path, lease_ttl=10)
        workers: list[tuple[Worker, threading.Thread]] = []
        try:
            for name in ("w1", "w2"):
                cfg = WorkerConfig(
                    host="127.0.0.1", port=srv.port, worker_id=name,
                    capacity=2, poll_interval=0.1, quiet=True,
                    trace_cache_dir=str(tmp_path / f"traces-{name}"),
                )
                workers.append(
                    _run_worker_thread(
                        cfg, ServiceClient("127.0.0.1", srv.port, timeout=30.0)
                    )
                )
            _wait_metric(srv.client, ("workers", "active"), 2)
            specs = _specs(8)
            jobs = [srv.client.submit(sp) for sp in specs]
            for job in jobs:
                record = srv.client.wait(job["id"], timeout=180.0)
                assert record["state"] == "done"
                assert record["source"] == "worker"

            m = srv.client.metrics()
            assert m["jobs"]["completed"] == len(specs), m
            assert m["workers"]["worker_results"] == len(specs), m
            assert m["by_source"]["worker"] == len(specs), m
            assert m["workers"]["dead_letter"] == 0, m
            # Both workers contributed (capacity 2 over 8 jobs: neither
            # could have taken the whole sweep before the other leased).
            done_per_worker = [w.stats["jobs_done"] for w, _ in workers]
            assert sum(done_per_worker) == len(specs)
            _assert_exactly_once(srv, specs)
        finally:
            for worker, thread in workers:
                worker.stop()
            for worker, thread in workers:
                thread.join(timeout=10)
            srv.kill()


#: The worker-pool acceptance gate: four workers must run a 16-job sweep
#: at least this many times faster than a lone daemon.
MIN_POOL_SPEEDUP = 1.7


def _timed_sweep(client: ServiceClient, specs: list[dict]) -> float:
    """Submit a sweep, wait for every job; returns elapsed wall-clock."""
    t0 = time.monotonic()
    jobs = [client.submit(spec) for spec in specs]
    for job in jobs:
        record = client.wait(job["id"], timeout=600.0)
        assert record["state"] == "done", record
        assert record["result"]["throughput"] > 0, record
    return time.monotonic() - t0


@pytest.mark.slow
@pytest.mark.skipif(
    (os.cpu_count() or 1) < 4,
    reason="4 workers need 4 CPUs to run in parallel; on fewer the ratio "
    "measures the scheduler, not the worker pool",
)
class TestWorkerPoolSpeedup:
    def test_four_workers_beat_a_lone_daemon(self, tmp_path):
        """The same 16-job sweep, heavy enough that compute dwarfs the
        lease and HTTP overhead: a lone daemon, then a daemon whose every
        job runs on one of four worker processes. Each lease holds one job,
        so the four share the sweep evenly."""
        specs = [
            {
                "workload": wl, "policy": pol, "seed": seed,
                "warmup_cycles": 200, "measure_cycles": 20_000,
                "trace_length": 40_000,
            }
            for seed in (7, 8)
            for wl in ("2-MIX", "2-MEM")
            for pol in ("dwarn", "icount", "flush", "stall")
        ]
        (tmp_path / "lone").mkdir()
        srv = LiveServer(tmp_path / "lone")
        try:
            lone_secs = _timed_sweep(srv.client, specs)
        finally:
            srv.kill()

        (tmp_path / "pool").mkdir()
        srv = LiveServer(tmp_path / "pool", lease_ttl=5)
        workers: list[subprocess.Popen] = []
        try:
            for i in range(4):
                workers.append(_worker_proc(
                    srv.port, f"pool-w{i}", str(tmp_path / f"traces-w{i}"),
                    "--capacity", "1", "--poll-interval", "0.2",
                ))
            _wait_metric(srv.client, ("workers", "active"), 4)
            pool_secs = _timed_sweep(srv.client, specs)
            m = srv.client.metrics()
            assert m["workers"]["worker_results"] == len(specs), m
        finally:
            for proc in workers:
                if proc.poll() is None:
                    proc.kill()
                    proc.wait(timeout=10)
            srv.kill()

        speedup = lone_secs / pool_secs
        assert speedup >= MIN_POOL_SPEEDUP, (
            f"4 workers took {pool_secs:.1f}s against "
            f"{lone_secs:.1f}s for a lone daemon: {speedup:.2f}x"
        )
