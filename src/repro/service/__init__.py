"""repro.service — simulation-as-a-service: an asyncio HTTP daemon that
accepts, queues, dedupes and executes simulation jobs.

Every experiment so far has been a one-shot CLI invocation; interactive
what-if exploration (per-workload policy comparison across many clients)
needs a long-lived process instead. ``dwarn-sim serve`` starts one:

- **Protocol** (:mod:`repro.service.protocol`): a job is a canonicalized
  :class:`JobSpec` — (workload, policy, machine preset, seed, measurement
  windows). Identical specs hash to identical cache keys regardless of JSON
  key order, which is what dedup and result caching key on.
- **Queue** (:mod:`repro.service.queue`): bounded priority queue with
  backpressure (a full queue surfaces as HTTP 429 + ``Retry-After``) and
  coalescing — an identical in-flight spec gets the existing job back
  instead of a second execution.
- **Execution** (:mod:`repro.service.server`): the dispatcher pops one
  job at a time in priority order and runs it through
  ``experiments.parallel.simulate_resumable`` on a thread — the one
  function that runs every service job, local or leased — with the
  persistent trace-artifact cache, so a workload's traces are generated
  once, not once per job. A job whose simulation raises fails alone.
- **Store** (:mod:`repro.service.store`): completed jobs persist a
  ``RunManifest``-derived record into a JSONL-backed result store with TTL
  eviction, reloaded on restart.
- **Client** (:mod:`repro.service.client`): a blocking stdlib-only client
  with timeouts, bounded retries and jittered backoff, used by the tests
  and the examples in docs/SERVICE.md.
- **Workers** (:mod:`repro.service.worker`): ``dwarn-sim worker`` runs a
  pull-based distributed worker that leases the highest-priority queued
  jobs over ``POST /v1/leases``, runs them one by one through the same
  ``simulate_resumable`` (restoring any checkpoint shipped with the lease),
  and uploads results — heartbeat deadlines, bounded redelivery and a
  dead-letter state make the fleet safe to SIGKILL.
- **Router** (:mod:`repro.service.router`): ``dwarn-sim route`` scales the
  control plane past one daemon — consistent-hashing canonical job keys
  across N shards (dedup stays intact per shard), per-client token-bucket
  admission control, chunked result streaming relayed shard-by-shard, and
  per-key-range 503 degradation when a shard dies. See docs/SCALING.md.
- **Load harness** (:mod:`repro.service.loadtest`): ``dwarn-sim loadtest``
  replays thousands of concurrent mixed-duplicate clients through a router
  and emits ``BENCH_service.json`` (p50/p95 latency, jobs/min, dedup and
  exactly-once accounting).

Quickstart::

    dwarn-sim serve --port 8177 &
    python - <<'PY'
    from repro.service import ServiceClient
    client = ServiceClient("127.0.0.1", 8177)
    job = client.submit({"workload": "2-MIX", "policy": "dwarn"})
    print(client.wait(job["id"])["result"]["throughput"])
    PY
"""

from __future__ import annotations

from repro.service.client import ServiceClient, ServiceError
from repro.service.protocol import (
    PROTOCOL_VERSION,
    Job,
    JobResult,
    JobSpec,
    JobState,
    Lease,
    LeaseRequest,
    SpecError,
)
from repro.service.queue import (
    DEFAULT_RETRY_AFTER,
    JobQueue,
    QueueFull,
    RateLimited,
    TokenBucket,
)
from repro.service.router import (
    ROUTER_VERSION,
    HashRing,
    RouterConfig,
    SimulationRouter,
    run_router,
)
from repro.service.server import ServiceConfig, SimulationService, run_service
from repro.service.store import STORE_VERSION, ResultStore
from repro.service.worker import Worker, WorkerConfig, parse_server, run_worker

__all__ = [
    "DEFAULT_RETRY_AFTER",
    "PROTOCOL_VERSION",
    "ROUTER_VERSION",
    "STORE_VERSION",
    "HashRing",
    "Job",
    "JobQueue",
    "JobResult",
    "JobSpec",
    "JobState",
    "Lease",
    "LeaseRequest",
    "QueueFull",
    "RateLimited",
    "ResultStore",
    "RouterConfig",
    "ServiceClient",
    "ServiceConfig",
    "ServiceError",
    "SimulationRouter",
    "SimulationService",
    "SpecError",
    "TokenBucket",
    "Worker",
    "WorkerConfig",
    "parse_server",
    "run_router",
    "run_service",
    "run_worker",
]
