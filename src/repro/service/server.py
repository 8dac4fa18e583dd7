"""The simulation service daemon: asyncio HTTP/1.1 front end + job executor.

One process, one event loop, zero new dependencies: HTTP is parsed by hand
on ``asyncio`` streams (request line, headers, ``Content-Length`` body —
the subset a JSON API needs), and simulation work runs in
``experiments.parallel.simulate_resumable`` on a worker thread so the loop
stays responsive while a job executes.

Request lifecycle::

    POST /v1/jobs
      -> spec canonicalized (repro.service.protocol)
      -> result store hit?          200, source="store"   (no execution)
      -> runner disk/mem cache hit? 200, source="disk"    (no execution)
      -> identical job in flight?   200, coalesced onto it
      -> queue has room?            202, job queued
      -> else                       429 + Retry-After     (backpressure)

The dispatcher pops the best queued job
(:meth:`repro.service.queue.JobQueue.next_batch`) and runs it through
``simulate_resumable`` — the function every worker runs its leased jobs
through — with the persistent trace-artifact cache, so a workload shared by
several jobs generates its traces once. A job whose simulation raises fails
alone. Completed jobs land in both the ``ExperimentRunner`` result caches
(the CLI sees them) and the JSONL result store (restarts and
``GET /v1/results`` see them).

Distributed execution (``repro.service.worker``) rides on three more
endpoints::

    POST /v1/leases                    worker pulls jobs under a lease
    POST /v1/leases/{id}/heartbeat     extends the lease deadline
    POST /v1/leases/{id}/result        uploads per-job outcomes, ends the lease

A lease request carrying ``wait`` is a bounded long-poll: when the queue is
empty the connection is parked, and the first job queued or requeued
meanwhile is granted to it at once; the empty grant comes back only when
``wait`` runs out. A parked worker counts as active, so the hold never
hands the queue to the local dispatcher.

Leased jobs stay RUNNING under a heartbeat deadline; a lease whose deadline
passes is expired by the housekeeping tick and its unfinished jobs are
*requeued* for redelivery — at most ``max_redeliveries`` times, after which
a job is parked in the terminal ``dead_letter`` state (surfaced in
``/metrics``). Late or duplicate uploads against an expired/consumed lease
answer ``410 Gone`` and change nothing, which is what makes every unique
spec complete exactly once. While any worker has been seen within
``worker_grace`` seconds the local dispatcher leaves the queue to the
fleet; with no workers registered the daemon executes locally exactly as
before, so single-machine behaviour is unchanged.

Long sweeps can hold one connection instead of polling::

    POST /v1/stream                    chunked NDJSON: one line per job

The stream endpoint accepts a list of specs, admits them through the same
three dedup tiers, and writes each job's outcome as a JSON line the moment
it turns terminal. Admission is *paced*: specs that meet a full queue wait
inside the handler and are re-admitted as slots free, so a sweep larger
than the queue capacity streams to completion without the client ever
seeing a 429. (``repro.service.client.ServiceClient.stream`` is the
matching iterator.)

Shutdown (SIGTERM/SIGINT) is a drain, not an abort: the listener closes,
idle keep-alive connections close, queued-but-unstarted jobs are
cancelled, the one local job in flight runs to completion and is
persisted, then the store is compacted and the process exits 0 — the
behaviour the e2e test pins.

The HTTP substrate (the persistent-connection request loop, request
parsing, response framing, chunked streaming) is shared with the sharding
router: :mod:`repro.service.http`.

Observability: the daemon keeps two ``repro.obs.RunManifest``s — one
recording a pair per *completed job* (submit-to-finish latency by source;
``/metrics`` reports its p50/p95) and one recording each *execution*, local
or uploaded by a worker (in-thread or in-worker seconds, retries).
"""

from __future__ import annotations

import asyncio
import base64
import contextlib
import json
import signal
import time
import uuid
from collections import OrderedDict
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Any

import repro
from repro.core import POLICIES, SimResult
from repro.core.policies import is_policy_name
from repro.experiments.parallel import simulate_resumable
from repro.experiments.runner import CACHE_VERSION, ExperimentRunner
from repro.obs.manifest import RunManifest
from repro.service.http import (
    HttpServer,
    Reply,
    Request,
    end_chunked,
    json_response,
    start_chunked,
    write_chunk,
)
from repro.core.columnar import CHECKPOINT_VERSION, SnapshotError, peek_checkpoint
from repro.service.protocol import (
    PROTOCOL_VERSION,
    Checkpoint,
    Job,
    JobSpec,
    JobState,
    Lease,
    LeaseRequest,
    SpecError,
    decode_checkpoint_grant,
    parse_checkpoint_upload,
    parse_result_upload,
    parse_stream_request,
    result_from_payload,
    result_payload,
)
from repro.service.queue import DEFAULT_RETRY_AFTER, JobQueue, QueueFull
from repro.service.store import STORE_VERSION, ResultStore
from repro.trace import (
    ARTIFACT_VERSION,
    PROFILES,
    find_ingested,
    ingest_schema_info,
    trace_cache_stats,
)
from repro.workloads import WORKLOADS

__all__ = [
    "ServiceConfig",
    "SimulationService",
    "result_payload",
    "run_service",
    "validate_spec",
]

#: How often a live stream handler re-checks its jobs and retries paced
#: admissions (seconds). Small enough to feel immediate at test scale,
#: large enough to stay invisible next to real simulation latencies.
STREAM_POLL = 0.05


def validate_spec(data: Any) -> tuple[JobSpec, int] | tuple[int, dict[str, Any]]:
    """Parse one submitted spec dict into ``(spec, priority)``, or an HTTP
    ``(status, payload)`` error pair.

    Shared by the daemon's submit and stream handlers *and* by the sharding
    router (:mod:`repro.service.router`), which must canonicalize a spec —
    and reject a bad one with byte-identical errors — before it can even
    pick the owning shard.
    """
    if not isinstance(data, dict):
        return 400, {"error": "job spec must be a JSON object"}
    data = dict(data)
    priority = data.pop("priority", 0)
    if isinstance(priority, bool) or not isinstance(priority, int):
        return 400, {"error": "priority must be an integer"}
    try:
        spec = JobSpec.from_dict(data)
    except SpecError as exc:
        return 400, {"error": str(exc)}
    if (
        spec.workload not in WORKLOADS
        and spec.workload not in PROFILES
        and find_ingested(spec.workload) is None
    ):
        return 400, {
            "error": f"unknown workload {spec.workload!r}",
            "workloads": sorted(WORKLOADS),
            "benchmarks": sorted(PROFILES),
        }
    if not is_policy_name(spec.policy):
        return 400, {
            "error": f"unknown policy {spec.policy!r}",
            "policies": sorted(POLICIES),
        }
    return spec, priority


@dataclass
class ServiceConfig:
    """Everything ``dwarn-sim serve`` configures."""

    host: str = "127.0.0.1"
    port: int = 8177                      # 0 = ephemeral (OS-assigned)
    queue_capacity: int = 64
    ttl: float | None = None              # result-store TTL seconds
    store_path: str | None = None         # None = in-memory store
    cache_dir: str | None = None          # ExperimentRunner result cache
    trace_cache_dir: str | None = None    # persistent trace artifacts
    max_jobs: int = 4096                  # terminal jobs kept addressable
    port_file: str | None = None          # write the bound port here
    # -- distributed workers ------------------------------------------
    lease_ttl: float = 15.0               # heartbeat deadline per lease
    max_redeliveries: int = 2             # lease expiries before dead-letter
    worker_grace: float = 5.0             # local fallback after worker silence
    tick: float = 0.25                    # housekeeping interval (expiry scan)


class SimulationService:
    """State and routes of one daemon instance (see module docstring)."""

    def __init__(self, cfg: ServiceConfig) -> None:
        self.cfg = cfg
        self.queue = JobQueue(cfg.queue_capacity)
        self.store = ResultStore(cfg.store_path, ttl=cfg.ttl)
        #: All known jobs by id, oldest first; trimmed to ``max_jobs``
        #: terminal entries so a long-lived daemon cannot leak memory.
        self.jobs: OrderedDict[str, Job] = OrderedDict()
        #: One ExperimentRunner per config group: shares mem/disk caches
        #: exactly the way the CLI report does.
        self._runners: dict[tuple, ExperimentRunner] = {}
        self.job_manifest = RunManifest(label="service-jobs")
        self.exec_manifest = RunManifest(label="service-exec")
        #: Live leases by id; expired entries are reaped by the housekeeping
        #: tick, consumed ones by their result upload.
        self.leases: dict[str, Lease] = {}
        #: Latest checkpoint per job *cache key* (the resume table). Kept in
        #: memory only: a daemon restart loses them and resumed-from-zero is
        #: the fail-open outcome. TTL'd alongside the result store by the
        #: housekeeping tick, dropped on job completion, cleared on drain.
        self.checkpoints: dict[str, Checkpoint] = {}
        #: worker id -> wall-clock of last contact (lease/heartbeat/result).
        self.workers: dict[str, float] = {}
        #: Parked long-poll lease requests: wake-up future -> worker id.
        self._lease_waiters: dict[asyncio.Future[None], str] = {}
        self.counters = {
            "submitted": 0,
            "queued": 0,
            "coalesced": 0,
            "store_hits": 0,
            "cache_hits": 0,
            "rejected": 0,
            "completed": 0,
            "failed": 0,
            "cancelled": 0,
            "batches": 0,
            "leased": 0,
            "lease_expired": 0,
            "redelivered": 0,
            "dead_letter": 0,
            "worker_results": 0,
            "streams": 0,
            "streamed_jobs": 0,
            "checkpoints_stored": 0,
            "checkpoints_rejected": 0,
            "checkpoints_shipped": 0,
            "checkpoints_expired": 0,
            "resumed": 0,
        }
        self.started_at = time.time()
        self.port: int | None = None
        self._wake = asyncio.Event()
        self._shutdown = asyncio.Event()
        self._draining = False
        self.http = HttpServer(self._handle)

    # ------------------------------------------------------------------
    # Lifecycle

    async def serve(self) -> int:
        """Run the daemon until SIGTERM/SIGINT; returns the exit status."""
        loaded = self.store.load()
        server = await asyncio.start_server(
            self.http.serve_connection, self.cfg.host, self.cfg.port
        )
        self.port = server.sockets[0].getsockname()[1]
        loop = asyncio.get_running_loop()
        for sig in (signal.SIGTERM, signal.SIGINT):
            with contextlib.suppress(NotImplementedError):  # non-Unix loops
                loop.add_signal_handler(sig, self.request_shutdown)
        if self.cfg.port_file:
            Path(self.cfg.port_file).write_text(str(self.port))
        print(
            f"dwarn-sim service listening on http://{self.cfg.host}:{self.port} "
            f"(queue={self.cfg.queue_capacity}, {loaded} stored results loaded)",
            flush=True,
        )
        dispatcher = asyncio.create_task(self._dispatch_loop())
        await self._shutdown.wait()

        # Drain: stop accepting, cancel what never started, finish what did.
        server.close()
        self.http.close_idle()
        await server.wait_closed()
        now = time.time()
        for job in self.queue.cancel_queued("server shutting down"):
            job.finished_at = now
            self.counters["cancelled"] += 1
        # Leased jobs cannot be awaited (the worker may be gone, or mid-run
        # for minutes); cancel them so the drain terminates. A worker's late
        # upload will meet 410 and discard its results.
        for lease in list(self.leases.values()):
            for jid in lease.job_ids:
                job = self.jobs.get(jid)
                if job is not None and job.state not in JobState.TERMINAL:
                    job.state = JobState.CANCELLED
                    job.error = "server shutting down"
                    job.finished_at = now
                    self.queue.finish(job)
                    self.counters["cancelled"] += 1
        self.leases.clear()
        # Compact the resume table with the leases: every owning job is now
        # terminal, so nothing can resume from these again.
        self.checkpoints.clear()
        self._wake.set()  # unblock the dispatcher so it can observe the drain
        await dispatcher
        live = self.store.compact()
        print(
            f"dwarn-sim service drained: {self.counters['completed']} completed, "
            f"{self.counters['cancelled']} cancelled, {live} stored results persisted",
            flush=True,
        )
        return 0

    def request_shutdown(self) -> None:
        """Begin the drain (signal handler; also callable from tests)."""
        self._draining = True
        self._shutdown.set()
        # Parked lease requests wake to answer 409, so none holds the drain.
        self._wake_all()

    def _wake_all(self) -> None:
        """Wake the dispatcher and every parked lease request: a job was
        queued or requeued, or the drain began."""
        self._wake.set()
        for waiter in self._lease_waiters:
            if not waiter.done():
                waiter.set_result(None)

    # ------------------------------------------------------------------
    # Dispatcher

    async def _dispatch_loop(self) -> None:
        while True:
            if self._draining:
                # serve() has already cancelled the queued jobs (or is about
                # to); anything this loop already started has finished by the
                # time we are back here, so the drain is complete.
                return
            self._expire_leases()
            self._evict_checkpoints()
            if not len(self.queue) or self._active_workers():
                # Idle, or the worker fleet owns the queue: sleep one
                # housekeeping tick (the timeout keeps lease expiry and the
                # local-fallback check live even with no submissions).
                self._wake.clear()
                with contextlib.suppress(asyncio.TimeoutError):
                    await asyncio.wait_for(self._wake.wait(), self.cfg.tick)
                continue
            for job in self.queue.next_batch(1):
                await self._run_job(job)

    async def _run_job(self, job: Job) -> None:
        """Execute one queued job through ``simulate_resumable`` on a thread.

        A job whose key has a stored checkpoint (a worker died mid-run and
        the job fell back to the daemon) resumes from it, fail-open like a
        worker. A simulation that raises fails this job alone, with the
        error message.
        """
        spec = job.spec
        wl, pol, simcfg = spec.workload, spec.policy, spec.sim_config()
        job.state = JobState.RUNNING
        job.started_at = time.time()
        self.counters["batches"] += 1
        ckpt = self._resume_point(job)
        restore = None
        if ckpt is not None:
            restore = decode_checkpoint_grant(ckpt.grant_dict(), simcfg.total_cycles)
        try:
            res, resumed_from, secs = await asyncio.to_thread(
                simulate_resumable,
                spec.machine_config(),
                simcfg,
                wl,
                pol,
                trace_cache_dir=self.cfg.trace_cache_dir,
                restore=restore,
            )
        except Exception as exc:
            self._fail_job(
                job, f"simulation failed for ({wl}, {pol}, seed={spec.seed}): {exc!r}"
            )
            return
        self._runner_for(spec).store_result(wl, pol, res)
        self.exec_manifest.record_pair("service", wl, pol, "simulated", secs, seed=spec.seed)
        pair = asdict(self.exec_manifest.pairs[-1])
        pair["resumed_from"] = resumed_from
        if resumed_from:
            job.resumed_from = resumed_from
            self.counters["resumed"] += 1
        self._complete_job(job, res, "simulated", pair=pair)

    # ------------------------------------------------------------------
    # Job bookkeeping

    def _runner_for(self, spec: JobSpec) -> ExperimentRunner:
        group = spec.group_key()
        runner = self._runners.get(group)
        if runner is None:
            runner = ExperimentRunner(
                spec.machine,
                spec.sim_config(),
                cache_dir=self.cfg.cache_dir,
                trace_cache_dir=self.cfg.trace_cache_dir,
            )
            self._runners[group] = runner
        return runner

    def _register(self, job: Job) -> None:
        self.jobs[job.id] = job
        # Bound the in-memory job table: evict the oldest *terminal* jobs
        # (their results remain addressable through the store).
        while len(self.jobs) > self.cfg.max_jobs:
            for jid, old in self.jobs.items():
                if old.state in JobState.TERMINAL:
                    del self.jobs[jid]
                    break
            else:
                break  # everything is live; never evict a pending job

    def _complete_job(
        self,
        job: Job,
        res: SimResult,
        source: str,
        pair: dict[str, Any] | None = None,
    ) -> None:
        job.state = JobState.DONE
        job.finished_at = time.time()
        job.source = source
        job.result = result_payload(res)
        if pair is not None:
            job.retries = int(pair.get("retries", 0))
        self.queue.finish(job)
        self.counters["completed"] += 1
        # The result supersedes any mid-run checkpoint for this key.
        self.checkpoints.pop(job.key, None)
        self.job_manifest.record_pair(
            "service",
            job.spec.workload,
            job.spec.policy,
            source,
            job.latency or 0.0,
            retries=job.retries,
            seed=job.spec.seed,
        )
        self.store.add(ResultStore.make_record(job, pair))

    def _fail_job(self, job: Job, error: str) -> None:
        job.state = JobState.FAILED
        job.finished_at = time.time()
        job.error = error
        self.queue.finish(job)
        self.counters["failed"] += 1
        # Terminal: the job is never redelivered, so its resume point is
        # dead weight — drop it rather than waiting out the TTL.
        self.checkpoints.pop(job.key, None)

    def _retry_after(self) -> float:
        """Client back-off hint when the queue is full: roughly one p50 job
        latency (what draining one slot costs), floored at
        :data:`~repro.service.queue.DEFAULT_RETRY_AFTER`.

        With zero completed jobs the percentile of the empty sample is 0.0
        — advertising "retry in 0s" would invite a reject/retry busy-loop
        exactly when the service is most overloaded, so the no-signal case
        falls back to the default rather than the median."""
        if not self.job_manifest.pairs:
            return DEFAULT_RETRY_AFTER
        p50 = self.job_manifest.latency_percentiles((50.0,))["p50"]
        return max(DEFAULT_RETRY_AFTER, p50)

    # ------------------------------------------------------------------
    # HTTP plumbing

    async def _handle(self, request: Request, writer: asyncio.StreamWriter) -> Reply | None:
        """One request off a connection (see :class:`HttpServer`)."""
        path = request.path.split("?", 1)[0].rstrip("/")
        if request.method == "POST" and path == "/v1/stream":
            # Streaming replies write their own (chunked) framing.
            await self._stream(request, writer)
            return None
        if request.method == "POST" and path == "/v1/leases":
            # A lease request may be held until work arrives.
            return await self._lease_long_poll(request.body)
        return self._route(request.method, request.path, request.body)

    def _route(
        self, method: str, path: str, body: bytes
    ) -> tuple[int, dict[str, Any], dict[str, str]]:
        """Dispatch one request; returns (status, JSON payload, extra headers)."""
        path = path.split("?", 1)[0].rstrip("/") or "/"
        if path == "/healthz" and method == "GET":
            return 200, self._healthz(), {}
        if path == "/metrics" and method == "GET":
            return 200, self._metrics(), {}
        if path == "/v1/jobs":
            if method != "POST":
                return 405, {"error": "use POST to submit a job"}, {}
            return self._submit(body)
        if path == "/v1/leases":
            if method != "POST":
                return 405, {"error": "use POST to lease jobs"}, {}
            req = self._lease_request(body)
            return self._lease_create(req) if isinstance(req, LeaseRequest) else req
        if path.startswith("/v1/leases/"):
            lease_id, _, action = path.removeprefix("/v1/leases/").partition("/")
            if action == "checkpoint":
                # Idempotent replacement of the latest resume point: PUT.
                if method != "PUT":
                    return 405, {"error": "use PUT to upload a checkpoint"}, {}
                return self._lease_checkpoint(lease_id, body)
            if method != "POST":
                return 405, {"error": "lease endpoints are POST-only"}, {}
            if action == "heartbeat":
                return self._lease_heartbeat(lease_id)
            if action == "result":
                return self._lease_result(lease_id, body)
            return 404, {"error": f"no such lease action {action!r}"}, {}
        if path.startswith("/v1/jobs/") and method == "GET":
            return self._job_status(path.removeprefix("/v1/jobs/"))
        if path.startswith("/v1/results/") and method == "GET":
            return self._job_result(path.removeprefix("/v1/results/"))
        return 404, {"error": f"no such endpoint: {method} {path}"}, {}

    # ------------------------------------------------------------------
    # Leases (distributed workers)

    def _active_workers(self) -> int:
        """Workers heard from within the grace window or parked in a lease
        hold. While there is one, the local dispatcher leaves the queue to
        the fleet: a hold longer than ``worker_grace`` must not hand a
        waiting worker's job to the local path."""
        now = time.time()
        cutoff = now - self.cfg.worker_grace
        # Bound the table: a worker silent for an hour is gone, not resting.
        for wid, seen in list(self.workers.items()):
            if now - seen > 3600.0:
                del self.workers[wid]
        active = {wid for wid, seen in self.workers.items() if seen >= cutoff}
        active.update(self._lease_waiters.values())
        return len(active)

    def _expire_leases(self) -> None:
        """Reap leases past their heartbeat deadline, redelivering jobs."""
        now = time.time()
        for lid, lease in list(self.leases.items()):
            if lease.deadline >= now:
                continue
            del self.leases[lid]
            self.counters["lease_expired"] += 1
            for jid in lease.job_ids:
                job = self.jobs.get(jid)
                if job is not None and job.state == JobState.RUNNING and job.lease_id == lid:
                    self._redeliver(
                        job, f"lease {lid} expired (worker {lease.worker})"
                    )

    def _redeliver(self, job: Job, reason: str) -> None:
        """Requeue a job whose lease died — or dead-letter it past the cap."""
        job.worker = None
        job.lease_id = None
        job.started_at = None
        job.redelivered += 1
        if job.redelivered > self.cfg.max_redeliveries:
            job.state = JobState.DEAD_LETTER
            job.finished_at = time.time()
            job.error = (
                f"dead-lettered after {job.redelivered} deliveries: {reason}"
            )
            self.queue.finish(job)
            self.counters["dead_letter"] += 1
            self.checkpoints.pop(job.key, None)  # terminal, like _fail_job
            return
        self.counters["redelivered"] += 1
        self.queue.requeue(job)
        self._wake_all()

    @staticmethod
    def _lease_request(body: bytes) -> LeaseRequest | tuple[int, dict[str, Any], dict[str, str]]:
        """Parse a ``POST /v1/leases`` body, or the 400 reply refusing it."""
        try:
            data = json.loads(body.decode("utf-8") or "{}")
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            return 400, {"error": f"invalid JSON body: {exc}"}, {}
        try:
            return LeaseRequest.from_dict(data)
        except SpecError as exc:
            return 400, {"error": str(exc)}, {}

    async def _lease_long_poll(self, body: bytes) -> tuple[int, dict[str, Any], dict[str, str]]:
        """``POST /v1/leases``, held for up to the request's ``wait``.

        An empty queue parks the request until :meth:`_wake_all` reports a
        queued or requeued job (or the drain), then the grant is tried
        again; the empty grant is answered only once ``wait`` has run out.
        A request without ``wait`` is answered at once.
        """
        req = self._lease_request(body)
        if not isinstance(req, LeaseRequest):
            return req
        loop = asyncio.get_running_loop()
        deadline = loop.time() + req.wait
        while True:
            reply = self._lease_create(req)
            remaining = deadline - loop.time()
            if reply[0] != 200 or reply[1]["lease"] is not None or remaining <= 0:
                return reply
            waiter = loop.create_future()
            self._lease_waiters[waiter] = req.worker
            try:
                await asyncio.wait((waiter,), timeout=remaining)
            finally:
                del self._lease_waiters[waiter]

    def _lease_create(self, req: LeaseRequest) -> tuple[int, dict[str, Any], dict[str, str]]:
        """Grant up to ``req.capacity`` queued jobs now, or an empty grant."""
        if self._draining:
            return 409, {"error": "server is shutting down"}, {}
        self.workers[req.worker] = time.time()
        jobs = self.queue.next_batch(req.capacity)
        if not jobs:
            empty: dict[str, Any] = {"lease": None, "jobs": []}
            if not req.wait:
                empty["poll_after"] = self.cfg.tick
            return 200, empty, {}
        now = time.time()
        lease = Lease(
            id=self._new_id(),
            worker=req.worker,
            job_ids=[job.id for job in jobs],
            created_at=now,
            deadline=now + self.cfg.lease_ttl,
        )
        self.leases[lease.id] = lease
        self.counters["leased"] += len(jobs)
        entries = []
        for job in jobs:
            job.state = JobState.RUNNING
            job.started_at = now
            job.worker = req.worker
            job.lease_id = lease.id
            entry: dict[str, Any] = {"id": job.id, "spec": job.spec.to_dict()}
            # Redelivery resume: ship the latest checkpoint for the job's
            # key so the new worker continues from the captured cycle
            # instead of cycle 0. The worker treats it as advisory — any
            # decode/restore failure falls open to a cold rerun.
            ckpt = self._resume_point(job)
            if ckpt is not None:
                entry["checkpoint"] = ckpt.grant_dict()
                self.counters["checkpoints_shipped"] += 1
            entries.append(entry)
        return 200, {
            "lease": lease.to_dict(),
            "lease_ttl": self.cfg.lease_ttl,
            "checkpoint_version": CHECKPOINT_VERSION,
            "jobs": entries,
        }, {}

    def _lease_heartbeat(self, lease_id: str) -> tuple[int, dict[str, Any], dict[str, str]]:
        lease = self.leases.get(lease_id)
        if lease is None:
            return 410, {"error": f"lease {lease_id!r} unknown, expired or consumed"}, {}
        now = time.time()
        lease.deadline = now + self.cfg.lease_ttl
        lease.heartbeats += 1
        self.workers[lease.worker] = now
        return 200, {"deadline": lease.deadline, "lease_ttl": self.cfg.lease_ttl}, {}

    def _lease_checkpoint(
        self, lease_id: str, body: bytes
    ) -> tuple[int, dict[str, Any], dict[str, str]]:
        """``PUT /v1/leases/{id}/checkpoint``: record a mid-run resume point.

        Every reject path is a clean 4xx and leaves the resume table
        untouched — a worker whose checkpoint is refused keeps running and
        the job at worst reruns from cycle 0 (fail-open). An accepted
        checkpoint also extends the lease deadline: captures ride the
        heartbeat cadence, so they are proof of life.
        """
        lease = self.leases.get(lease_id)
        if lease is None:
            return 410, {"error": f"lease {lease_id!r} unknown, expired or consumed"}, {}
        try:
            data = json.loads(body.decode("utf-8") or "{}")
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            return 400, {"error": f"invalid JSON body: {exc}"}, {}
        try:
            job_id, cycle, raw = parse_checkpoint_upload(data)
        except SpecError as exc:
            self.counters["checkpoints_rejected"] += 1
            return 400, {"error": str(exc)}, {}
        if job_id not in lease.job_ids:
            self.counters["checkpoints_rejected"] += 1
            return 404, {"error": f"job {job_id!r} is not held by lease {lease_id!r}"}, {}
        job = self.jobs.get(job_id)
        if job is None or job.state in JobState.TERMINAL:
            # Completed/cancelled under the worker's feet: nothing to resume.
            return 200, {"stored": False, "reason": "job is terminal"}, {}
        try:
            env_cycle, env_total = peek_checkpoint(raw)
        except SnapshotError as exc:
            self.counters["checkpoints_rejected"] += 1
            return 400, {"error": f"invalid checkpoint envelope: {exc}"}, {}
        if env_cycle != cycle:
            self.counters["checkpoints_rejected"] += 1
            return 400, {
                "error": f"checkpoint cycle {cycle} != envelope cycle {env_cycle}"
            }, {}
        total_spec = job.spec.sim_config().total_cycles
        if env_total != total_spec or cycle >= total_spec:
            # Horizon mismatch: a checkpoint from some other (older) shape
            # of this job can never be a valid resume point for this spec.
            self.counters["checkpoints_rejected"] += 1
            return 400, {
                "error": (
                    f"checkpoint horizon {env_total} (cycle {cycle}) does not "
                    f"match job horizon {total_spec}"
                )
            }, {}
        now = time.time()
        lease.deadline = now + self.cfg.lease_ttl
        self.workers[lease.worker] = now
        existing = self.checkpoints.get(job.key)
        if existing is not None and existing.cycle > cycle:
            # Latest-cycle-wins; an out-of-order upload is acknowledged but
            # never regresses the resume point.
            return 200, {"stored": False, "cycle": existing.cycle}, {}
        self.checkpoints[job.key] = Checkpoint(
            key=job.key,
            job_id=job_id,
            cycle=cycle,
            total_cycles=env_total,
            data_b64=base64.b64encode(raw).decode("ascii"),
            uploaded_at=now,
        )
        self.counters["checkpoints_stored"] += 1
        return 200, {"stored": True, "cycle": cycle}, {}

    def _resume_point(self, job: Job) -> Checkpoint | None:
        """The stored checkpoint for ``job``'s key, if its horizon still
        matches the job's spec (else the job runs from cycle 0)."""
        ckpt = self.checkpoints.get(job.key)
        if ckpt is not None and ckpt.total_cycles == job.spec.sim_config().total_cycles:
            return ckpt
        return None

    def _evict_checkpoints(self) -> None:
        """TTL the resume table alongside the result store (housekeeping)."""
        ttl = self.cfg.ttl
        if not ttl:
            return
        cutoff = time.time() - ttl
        for key, ckpt in list(self.checkpoints.items()):
            if ckpt.uploaded_at < cutoff:
                del self.checkpoints[key]
                self.counters["checkpoints_expired"] += 1

    def _lease_result(
        self, lease_id: str, body: bytes
    ) -> tuple[int, dict[str, Any], dict[str, str]]:
        lease = self.leases.get(lease_id)
        if lease is None:
            # Expired (jobs already requeued) or already consumed (duplicate
            # upload): refusing here is what keeps completion exactly-once.
            return 410, {"error": f"lease {lease_id!r} unknown, expired or consumed"}, {}
        try:
            data = json.loads(body.decode("utf-8") or "{}")
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            return 400, {"error": f"invalid JSON body: {exc}"}, {}
        try:
            uploads = parse_result_upload(data)
        except SpecError as exc:
            return 400, {"error": str(exc)}, {}
        # Body validated: the lease is consumed from here on.
        del self.leases[lease_id]
        self.workers[lease.worker] = time.time()
        by_id = {r.job_id: r for r in uploads}
        unknown = sorted(set(by_id) - set(lease.job_ids))
        acked: list[str] = []
        requeued: list[str] = []
        for jid in lease.job_ids:
            job = self.jobs.get(jid)
            if job is None or job.state in JobState.TERMINAL:
                continue  # evicted or cancelled under the worker's feet
            upload = by_id.get(jid)
            if upload is None:
                # Partial upload (the worker skipped a job): the missing
                # jobs go back for redelivery rather than silently failing.
                self._redeliver(job, f"lease {lease_id} uploaded no result")
                if job.state == JobState.QUEUED:
                    requeued.append(jid)
                continue
            if upload.ok:
                try:
                    res = result_from_payload(upload.result)
                except SpecError as exc:
                    self._fail_job(job, f"worker returned malformed result: {exc}")
                    acked.append(jid)
                    continue
                wl, pol = job.spec.workload, job.spec.policy
                self._runner_for(job.spec).store_result(wl, pol, res)
                pair = {
                    "sweep": "worker",
                    "workload": wl,
                    "policy": pol,
                    "source": "worker",
                    "secs": upload.secs,
                    "retries": upload.retries,
                    "seed": job.spec.seed,
                    "resumed_from": upload.resumed_from,
                }
                if upload.resumed_from:
                    job.resumed_from = upload.resumed_from
                    self.counters["resumed"] += 1
                self._complete_job(job, res, "worker", pair=pair)
                self.exec_manifest.record_pair(
                    "worker", wl, pol, "worker", upload.secs,
                    retries=upload.retries, seed=job.spec.seed,
                )
            else:
                self._fail_job(job, upload.error or "worker reported failure")
            acked.append(jid)
        self.counters["worker_results"] += len(acked)
        return 200, {"acknowledged": acked, "requeued": requeued, "unknown": unknown}, {}

    # ------------------------------------------------------------------
    # Routes

    def _admit(self, spec: JobSpec, priority: int) -> tuple[Job, bool]:
        """Run one validated spec through the three dedup tiers.

        Returns ``(job, queued)`` — ``queued`` is True only when a fresh
        job entered the queue (the 202 case); otherwise the job was served
        by the store, the runner caches, or coalescing. Raises
        :class:`QueueFull` when a genuinely new job meets a full queue.
        """
        self.counters["submitted"] += 1

        # Dedup tier 1: the persistent result store.
        rec = self.store.get_by_key(spec.cache_key())
        if rec is not None and rec.get("result") is not None:
            job = self._job_from_record(spec, priority, rec)
            self.counters["store_hits"] += 1
            return job, False

        # Dedup tier 2: the ExperimentRunner disk/memory caches.
        runner = self._runner_for(spec)
        res = runner.cached_result(spec.workload, spec.policy)
        if res is not None:
            job = Job(id=self._new_id(), spec=spec, priority=priority)
            self._register(job)
            self._complete_job(job, res, "disk")
            self.counters["cache_hits"] += 1
            return job, False

        # Dedup tier 3: coalesce onto an identical queued/running job.
        job = Job(id=self._new_id(), spec=spec, priority=priority)
        admitted, coalesced = self.queue.submit(job, retry_after=self._retry_after())
        if coalesced:
            self.counters["coalesced"] += 1
            return admitted, False
        self._register(admitted)
        self.counters["queued"] += 1
        self._wake_all()
        return admitted, True

    def _submit(self, body: bytes) -> tuple[int, dict[str, Any], dict[str, str]]:
        if self._draining:
            return 409, {"error": "server is shutting down"}, {}
        try:
            data = json.loads(body.decode("utf-8") or "{}")
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            return 400, {"error": f"invalid JSON body: {exc}"}, {}
        validated = validate_spec(data)
        if isinstance(validated[0], int):
            status, payload = validated  # type: ignore[misc]
            return status, payload, {}
        spec, priority = validated  # type: ignore[misc]
        try:
            job, queued = self._admit(spec, priority)
        except QueueFull as exc:
            self.counters["rejected"] += 1
            return (
                429,
                {
                    "error": str(exc),
                    "retry_after": exc.retry_after,
                    "queue_depth": len(self.queue),
                },
                {"Retry-After": str(max(1, round(exc.retry_after)))},
            )
        return (202 if queued else 200), job.status_dict(), {}

    # ------------------------------------------------------------------
    # Result streaming

    @staticmethod
    def _stream_line(index: int, job: Job) -> dict[str, Any]:
        """One NDJSON line of a ``/v1/stream`` response."""
        return {
            "index": index,
            "id": job.id,
            "key": job.key,
            "state": job.state,
            "source": job.source,
            "error": job.error,
            "spec": job.spec.to_dict(),
            "result": job.result,
        }

    async def _stream(self, request: Request, writer: asyncio.StreamWriter) -> None:
        """``POST /v1/stream``: admit a sweep, stream outcomes as NDJSON.

        Validation failures answer a plain JSON error *before* the chunked
        response starts (all-or-nothing admission of the request shape).
        After that, every spec eventually produces exactly one line. Specs
        meeting a full queue are re-admitted as capacity frees — the
        pacing that lets a sweep larger than the queue stream through —
        and a drain mid-stream emits terminal ``cancelled`` lines rather
        than silently dropping the connection.
        """
        if self._draining:
            writer.write(json_response(409, {"error": "server is shutting down"}))
            await writer.drain()
            return
        try:
            entries = parse_stream_request(request.json())
        except (ValueError, SpecError) as exc:
            writer.write(json_response(400, {"error": str(exc)}))
            await writer.drain()
            return
        validated: list[tuple[JobSpec, int]] = []
        for i, data in enumerate(entries):
            result = validate_spec(data)
            if isinstance(result[0], int):
                status, payload = result  # type: ignore[misc]
                payload = dict(payload)
                payload["error"] = f"jobs[{i}]: {payload['error']}"
                writer.write(json_response(status, payload))
                await writer.drain()
                return
            validated.append(result)  # type: ignore[arg-type]

        self.counters["streams"] += 1
        await start_chunked(writer, 200, {"X-Stream-Jobs": str(len(validated))})
        waiting = list(enumerate(validated))  # [(index, (spec, priority))]
        live: dict[int, Job] = {}
        while waiting or live:
            if self._draining:
                # The drain cancels queued jobs and finishes running ones;
                # report what we know and close out every pending line.
                for index, job in sorted(live.items()):
                    if job.state not in JobState.TERMINAL:
                        job = Job(
                            id=job.id, spec=job.spec, state=JobState.CANCELLED,
                            error="server shutting down",
                        )
                    await write_chunk(writer, self._stream_line(index, job))
                for index, (spec, priority) in waiting:
                    job = Job(
                        id="", spec=spec, priority=priority,
                        state=JobState.CANCELLED, error="server shutting down",
                    )
                    await write_chunk(writer, self._stream_line(index, job))
                break
            still_waiting: list[tuple[int, tuple[JobSpec, int]]] = []
            for index, (spec, priority) in waiting:
                try:
                    job, _ = self._admit(spec, priority)
                except QueueFull:
                    # Paced admission: the queue is the backpressure point,
                    # the stream handler is the patient client.
                    still_waiting.append((index, (spec, priority)))
                    continue
                live[index] = job
                self.counters["streamed_jobs"] += 1
            waiting = still_waiting
            for index in sorted(live):
                job = live[index]
                if job.state in JobState.TERMINAL:
                    await write_chunk(writer, self._stream_line(index, job))
                    del live[index]
            if waiting or live:
                with contextlib.suppress(asyncio.TimeoutError):
                    await asyncio.wait_for(self._shutdown.wait(), STREAM_POLL)
        await end_chunked(writer)

    def _job_from_record(self, spec: JobSpec, priority: int, rec: dict[str, Any]) -> Job:
        """A fresh DONE job served entirely from a stored record."""
        now = time.time()
        job = Job(
            id=self._new_id(),
            spec=spec,
            priority=priority,
            state=JobState.DONE,
            submitted_at=now,
            finished_at=now,
            source="store",
            result=rec.get("result"),
        )
        self._register(job)
        self.counters["completed"] += 1
        self.job_manifest.record_pair(
            "service", spec.workload, spec.policy, "store", 0.0, seed=spec.seed
        )
        # Make the new id resolvable via /v1/results after a restart too.
        self.store.add(ResultStore.make_record(job, rec.get("pair")))
        self.queue.finish(job)  # no-op unless a stale key lingers
        return job

    def _job_status(self, job_id: str) -> tuple[int, dict[str, Any], dict[str, str]]:
        job = self.jobs.get(job_id)
        if job is not None:
            return 200, job.status_dict(), {}
        rec = self.store.get_by_id(job_id)
        if rec is not None:
            return 200, {k: v for k, v in rec.items() if k != "result"}, {}
        return 404, {"error": f"unknown job {job_id!r}"}, {}

    def _job_result(self, job_id: str) -> tuple[int, dict[str, Any], dict[str, str]]:
        job = self.jobs.get(job_id)
        if job is not None:
            if job.state == JobState.DONE:
                return 200, {
                    "id": job.id,
                    "state": job.state,
                    "source": job.source,
                    "spec": job.spec.to_dict(),
                    "result": job.result,
                }, {}
            if job.state in JobState.TERMINAL:  # failed / cancelled
                return 200, {
                    "id": job.id,
                    "state": job.state,
                    "error": job.error,
                    "spec": job.spec.to_dict(),
                    "result": None,
                }, {}
            return 409, {
                "error": f"job {job_id} is {job.state}; result not ready",
                "state": job.state,
            }, {}
        rec = self.store.get_by_id(job_id)
        if rec is not None:
            return 200, {
                "id": rec["id"],
                "state": rec["state"],
                "source": rec["source"],
                "spec": rec["spec"],
                "result": rec["result"],
            }, {}
        return 404, {"error": f"unknown job {job_id!r}"}, {}

    def _healthz(self) -> dict[str, Any]:
        return {
            "status": "draining" if self._draining else "ok",
            "version": repro.__version__,
            "protocol_version": PROTOCOL_VERSION,
            "store_version": STORE_VERSION,
            "result_cache_version": CACHE_VERSION,
            "trace_artifact_version": ARTIFACT_VERSION,
            "trace_format": ingest_schema_info(),
            "uptime_secs": round(time.time() - self.started_at, 3),
            "stored_results": len(self.store),
            "active_workers": self._active_workers(),
        }

    def _metrics(self) -> dict[str, Any]:
        c = self.counters
        submitted = c["submitted"]
        served_without_execution = c["store_hits"] + c["cache_hits"] + c["coalesced"]
        memo = trace_cache_stats()
        return {
            "queue": {
                "depth": len(self.queue),
                "capacity": self.cfg.queue_capacity,
                "in_flight": self.queue.running,
            },
            "jobs": dict(c),
            "cache": {
                "store_hits": c["store_hits"],
                "runner_cache_hits": c["cache_hits"],
                "coalesced": c["coalesced"],
                "hit_ratio": round(served_without_execution / submitted, 4)
                if submitted
                else 0.0,
            },
            "latency": self.job_manifest.latency_percentiles((50.0, 95.0)),
            "by_source": self.job_manifest.summary()["by_source"],
            "exec": {
                "pairs_executed": len(self.exec_manifest.pairs),
                "pool_restarts": self.exec_manifest.pool_restarts,
                "batches": c["batches"],
            },
            "workers": {
                "known": len(self.workers),
                "active": self._active_workers(),
                "leases_active": len(self.leases),
                "leased": c["leased"],
                "lease_expired": c["lease_expired"],
                "redelivered": c["redelivered"],
                "dead_letter": c["dead_letter"],
                "worker_results": c["worker_results"],
            },
            "checkpoints": {
                "live": len(self.checkpoints),
                "stored": c["checkpoints_stored"],
                "rejected": c["checkpoints_rejected"],
                "shipped": c["checkpoints_shipped"],
                "expired": c["checkpoints_expired"],
                "resumed": c["resumed"],
                "last_cycle": max(
                    (ck.cycle for ck in self.checkpoints.values()), default=0
                ),
            },
            "http": {
                "connections": self.http.accepted,
                "requests": self.http.served,
            },
            # The in-process trace memo keeps every trace this daemon has
            # simulated, at about 40 bytes a record for a 6,000-record trace
            # (31 at 80,000 records).
            "traces": {
                "memoized": memo["mem_entries"],
                "records": memo["mem_records"],
                "memo_hits": memo["mem_hits"],
                "generated": memo["generated"],
            },
        }

    @staticmethod
    def _new_id() -> str:
        return uuid.uuid4().hex[:16]


def run_service(cfg: ServiceConfig) -> int:
    """Blocking entry point (what ``dwarn-sim serve`` calls)."""
    service = SimulationService(cfg)
    return asyncio.run(service.serve())
