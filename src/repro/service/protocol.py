"""Service protocol: job specs, canonicalization, and job lifecycle records.

A *job spec* names one simulation — (workload, policy, machine preset, seed,
measurement windows) — exactly the key the result caches already use. The
protocol's core guarantee is **canonicalization**: two specs that mean the
same simulation produce byte-identical canonical JSON and therefore the same
cache key, no matter how the client ordered its JSON keys or which optional
fields it spelled out versus defaulted. Everything the service does with a
spec — dedup against the disk caches, coalescing onto an in-flight job —
keys on that canonical form.

Since the distributed-worker extension this module also owns the *lease*
wire messages: a worker asks for work (:class:`LeaseRequest`), the server
answers with a :class:`Lease` naming the jobs it handed out, and the worker
uploads per-job outcomes that :func:`parse_result_upload` validates — plus,
for preemptible execution, mid-run checkpoints that
:func:`parse_checkpoint_upload` validates and :class:`Checkpoint` records
(the resume table entry a redelivered lease ships back out), and that
:func:`decode_checkpoint_grant` turns back into a resume point. The
same rule applies throughout — malformed client input raises
:class:`SpecError` (which the HTTP layer turns into a 4xx), never any other
exception type.

This module is pure data + validation: it imports config and result types
but nothing from the server, queue, or store (they all import it).
"""

from __future__ import annotations

import base64
import binascii
import dataclasses
import json
import math
import time
from typing import Any, Mapping

from repro.config import PRESETS, SimulationConfig, get_preset, MachineConfig
from repro.core import SimResult
from repro.core.columnar import ColumnarState, SnapshotError, checkpoint_from_bytes
from repro.core.policies import canonical_policy_name
from repro.utils.rng import stable_hash64

__all__ = [
    "MAX_CHECKPOINT_BYTES",
    "MAX_LEASE_WAIT",
    "MAX_STREAM_JOBS",
    "PROTOCOL_VERSION",
    "Checkpoint",
    "Job",
    "JobResult",
    "JobSpec",
    "JobState",
    "Lease",
    "LeaseRequest",
    "SpecError",
    "decode_checkpoint_grant",
    "parse_checkpoint_upload",
    "parse_result_upload",
    "parse_stream_request",
    "result_from_payload",
    "result_payload",
]

#: Wire-format version, folded into every cache key: bumping it orphans
#: (never corrupts) records written by older servers.
PROTOCOL_VERSION = 1

#: Bounds on the measurement knobs a client may request: the service is a
#: shared resource, so a single job cannot ask for an unbounded simulation.
MAX_MEASURE_CYCLES = 2_000_000
MAX_TRACE_LENGTH = 2_000_000

#: Bounds on lease requests: one lease hands out at most this many jobs, and
#: worker ids are short printable names, not payloads.
MAX_LEASE_JOBS = 64
MAX_WORKER_ID_LEN = 120

#: Longest hold (seconds) a lease request may ask for with ``wait``. It must
#: stay below the worker transport's 10 s timeout and the router's 30 s
#: forward timeout, or a held request would read as a dead peer.
MAX_LEASE_WAIT = 5.0

#: Bound on one ``POST /v1/stream`` request: a stream is a sweep, not a
#: bulk-import channel; bigger sweeps open several streams.
MAX_STREAM_JOBS = 256

#: Bound on one checkpoint blob (decoded bytes). A mid-run snapshot scales
#: with in-flight state (pipe/ROB/caches/predictors), not the run horizon,
#: so test-to-paper-scale checkpoints sit well under this; the cap keeps a
#: base64-wrapped upload inside the HTTP layer's body limit (512 KiB) and a
#: hostile oversized upload a clean 400.
MAX_CHECKPOINT_BYTES = 256 * 1024


class SpecError(ValueError):
    """A job spec failed validation; ``str(exc)`` is the client-facing why."""


class JobState:
    """Job lifecycle states (plain strings so they serialize as-is)."""

    QUEUED = "queued"
    RUNNING = "running"
    DONE = "done"
    FAILED = "failed"
    CANCELLED = "cancelled"
    #: Redelivered more than ``max_redeliveries`` times (every lease on it
    #: expired); parked terminally and surfaced in ``/metrics``.
    DEAD_LETTER = "dead_letter"

    #: States that will never change again.
    TERMINAL = frozenset({DONE, FAILED, CANCELLED, DEAD_LETTER})


@dataclasses.dataclass(frozen=True)
class JobSpec:
    """One requested simulation, in canonical field order.

    Field defaults mirror the CLI's (``dwarn-sim run``), so a spec naming
    only ``workload`` and ``policy`` reproduces what the CLI would run.
    """

    workload: str
    policy: str
    machine: str = "baseline"
    seed: int = 12345
    warmup_cycles: int = 5_000
    measure_cycles: int = 40_000
    trace_length: int = 60_000

    _INT_FIELDS = ("seed", "warmup_cycles", "measure_cycles", "trace_length")

    # -- construction / validation -------------------------------------

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "JobSpec":
        """Build a validated spec from client JSON (key order irrelevant).

        Unknown keys are rejected rather than ignored: a typo like
        ``"polcy"`` silently falling back to the default would return a
        *wrong result that looks right* — the worst failure mode a result
        cache can have.
        """
        if not isinstance(data, Mapping):
            raise SpecError(f"job spec must be a JSON object, got {type(data).__name__}")
        known = {f.name for f in dataclasses.fields(cls)}
        unknown = sorted(set(data) - known)
        if unknown:
            raise SpecError(f"unknown job-spec field(s): {', '.join(unknown)}")
        for req in ("workload", "policy"):
            if req not in data:
                raise SpecError(f"job spec missing required field {req!r}")
        kwargs: dict[str, Any] = dict(data)
        for name in cls._INT_FIELDS:
            if name in kwargs:
                value = kwargs[name]
                # bool is an int subclass; reject it explicitly.
                if isinstance(value, bool) or not isinstance(value, int):
                    raise SpecError(f"job-spec field {name!r} must be an integer")
        spec = cls(**kwargs)
        spec.validate()
        return spec

    def validate(self) -> None:
        """Check field types and bounds; raises :class:`SpecError`.

        Workload/policy *names* are validated by the server against its
        registries (so the error can list what is available); here we check
        everything that is knowable from the spec alone.
        """
        if not isinstance(self.workload, str) or not self.workload:
            raise SpecError("workload must be a non-empty string")
        if not isinstance(self.policy, str) or not self.policy:
            raise SpecError("policy must be a non-empty string")
        if not isinstance(self.machine, str) or self.machine not in PRESETS:
            raise SpecError(
                f"unknown machine {self.machine!r}; valid: {sorted(PRESETS)}"
            )
        if self.warmup_cycles < 0:
            raise SpecError("warmup_cycles must be non-negative")
        if not 0 < self.measure_cycles <= MAX_MEASURE_CYCLES:
            raise SpecError(f"measure_cycles must be in 1..{MAX_MEASURE_CYCLES}")
        if not 0 < self.trace_length <= MAX_TRACE_LENGTH:
            raise SpecError(f"trace_length must be in 1..{MAX_TRACE_LENGTH}")

    # -- canonical form -------------------------------------------------

    def to_dict(self) -> dict[str, Any]:
        """Plain-dict form of the spec (the wire/store representation)."""
        return dataclasses.asdict(self)

    def canonical_json(self) -> str:
        """Byte-stable canonical encoding: sorted keys, no whitespace.

        Every spelling of the same spec — reordered keys, defaulted versus
        explicit optional fields, equivalent parameterized policy names
        (``meta-w256-h2`` vs ``meta``: the meta-policy's interval and
        hysteresis knobs are part of the policy *name*, so they fold into
        the key here) — lands on this exact string; the cache key is a
        hash of it.
        """
        d = self.to_dict()
        d["policy"] = canonical_policy_name(d["policy"])
        return json.dumps(d, sort_keys=True, separators=(",", ":"))

    def cache_key(self) -> str:
        """Stable dedup/store key for this spec (hex, 16 chars)."""
        return f"{stable_hash64(PROTOCOL_VERSION, self.canonical_json()):016x}"

    def group_key(self) -> tuple:
        """Config-group key: jobs sharing it have the same machine and
        simulation config (only workload/policy differ), so the daemon
        keeps one ``ExperimentRunner`` — and its result caches — per key."""
        return (self.machine, self.seed, self.warmup_cycles,
                self.measure_cycles, self.trace_length)

    # -- config materialization -----------------------------------------

    def sim_config(self) -> SimulationConfig:
        """The ``SimulationConfig`` this spec describes."""
        return SimulationConfig(
            warmup_cycles=self.warmup_cycles,
            measure_cycles=self.measure_cycles,
            trace_length=self.trace_length,
            seed=self.seed,
        )

    def machine_config(self) -> MachineConfig:
        """Resolve the named machine preset."""
        return get_preset(self.machine)


@dataclasses.dataclass
class Job:
    """One accepted job's lifecycle record (what ``GET /v1/jobs/{id}`` shows).

    Several submissions may share one ``Job``: coalesced duplicates all hold
    the object created by the first submission, so completing it completes
    every client polling that id.
    """

    id: str
    spec: JobSpec
    priority: int = 0
    state: str = JobState.QUEUED
    submitted_at: float = dataclasses.field(default_factory=time.time)
    started_at: float | None = None
    finished_at: float | None = None
    source: str | None = None        # "simulated" | "worker" | "disk" | "memory" | ...
    error: str | None = None
    retries: int = 0
    coalesced: int = 0               # how many duplicate submissions joined
    result: dict[str, Any] | None = None
    worker: str | None = None        # worker id currently (or last) leasing it
    lease_id: str | None = None      # live lease holding the job, if any
    redelivered: int = 0             # lease expiries that requeued this job
    resumed_from: int = 0            # cycle the completing worker resumed at

    @property
    def key(self) -> str:
        return self.spec.cache_key()

    @property
    def latency(self) -> float | None:
        """Submit-to-finish wall clock, once terminal."""
        if self.finished_at is None:
            return None
        return self.finished_at - self.submitted_at

    def status_dict(self) -> dict[str, Any]:
        """Public status payload (no result body — that is ``/v1/results``)."""
        return {
            "id": self.id,
            "state": self.state,
            "spec": self.spec.to_dict(),
            "key": self.key,
            "priority": self.priority,
            "submitted_at": self.submitted_at,
            "started_at": self.started_at,
            "finished_at": self.finished_at,
            "source": self.source,
            "error": self.error,
            "retries": self.retries,
            "coalesced": self.coalesced,
            "worker": self.worker,
            "redelivered": self.redelivered,
            "resumed_from": self.resumed_from,
        }


# ----------------------------------------------------------------------
# Lease wire messages (distributed workers)


@dataclasses.dataclass(frozen=True)
class LeaseRequest:
    """A worker asking for work: ``POST /v1/leases`` body.

    ``wait`` makes the request a long-poll: when the queue is empty the
    server holds it for up to that many seconds and grants the first job
    queued meanwhile. ``0`` answers at once, as a request without it does.
    """

    worker: str
    capacity: int = 1
    wait: float = 0.0

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "LeaseRequest":
        """Validate a lease-request body; raises :class:`SpecError`."""
        if not isinstance(data, Mapping):
            raise SpecError(
                f"lease request must be a JSON object, got {type(data).__name__}"
            )
        unknown = sorted(set(data) - {"worker", "capacity", "wait"})
        if unknown:
            raise SpecError(f"unknown lease-request field(s): {', '.join(unknown)}")
        worker = data.get("worker")
        if not isinstance(worker, str) or not worker.strip():
            raise SpecError("lease request must name a non-empty 'worker' id")
        if len(worker) > MAX_WORKER_ID_LEN:
            raise SpecError(f"worker id longer than {MAX_WORKER_ID_LEN} chars")
        capacity = data.get("capacity", 1)
        if isinstance(capacity, bool) or not isinstance(capacity, int):
            raise SpecError("lease capacity must be an integer")
        if not 1 <= capacity <= MAX_LEASE_JOBS:
            raise SpecError(f"lease capacity must be in 1..{MAX_LEASE_JOBS}")
        wait = data.get("wait", 0.0)
        if isinstance(wait, bool) or not isinstance(wait, (int, float)):
            raise SpecError("lease wait must be a number of seconds")
        if not 0.0 <= wait <= MAX_LEASE_WAIT:  # also rejects NaN
            raise SpecError(f"lease wait must be in 0..{MAX_LEASE_WAIT:g} seconds")
        return cls(worker=worker, capacity=capacity, wait=float(wait))

    def to_dict(self) -> dict[str, Any]:
        """Wire form of the request (what the worker POSTs); ``wait`` is
        left out when zero, so an immediate request reads as it always has."""
        body: dict[str, Any] = {"worker": self.worker, "capacity": self.capacity}
        if self.wait:
            body["wait"] = self.wait
        return body


@dataclasses.dataclass
class Lease:
    """One grant of jobs to one worker, alive until ``deadline``.

    The server keeps the authoritative copy (its lease table); the dict
    form rides in the ``POST /v1/leases`` response so the worker can name
    the lease in heartbeats and result uploads.
    """

    id: str
    worker: str
    job_ids: list[str]
    created_at: float
    deadline: float
    heartbeats: int = 0

    def to_dict(self) -> dict[str, Any]:
        """Wire form of the grant (shipped to the worker, shown in tests)."""
        return {
            "id": self.id,
            "worker": self.worker,
            "job_ids": list(self.job_ids),
            "created_at": self.created_at,
            "deadline": self.deadline,
            "heartbeats": self.heartbeats,
        }


@dataclasses.dataclass(frozen=True)
class JobResult:
    """One job's outcome inside a lease result upload."""

    job_id: str
    ok: bool
    result: Mapping[str, Any] | None = None
    error: str | None = None
    secs: float = 0.0                # in-worker wall clock for the pair
    retries: int = 0                 # per-pair retries the worker spent
    resumed_from: int = 0            # cycle resumed from (0 = ran cold)


def parse_result_upload(data: Any) -> list[JobResult]:
    """Validate a ``POST /v1/leases/{id}/result`` body into job results.

    The shape is ``{"results": [{"job_id", "ok", "result"|"error", "secs",
    "retries"}, ...]}``. Anything malformed raises :class:`SpecError` — the
    HTTP layer answers 400; a worker bug must never turn into a server
    traceback or, worse, a half-recorded upload.
    """
    if not isinstance(data, Mapping):
        raise SpecError(
            f"result upload must be a JSON object, got {type(data).__name__}"
        )
    unknown = sorted(set(data) - {"results"})
    if unknown:
        raise SpecError(f"unknown result-upload field(s): {', '.join(unknown)}")
    entries = data.get("results")
    if not isinstance(entries, list):
        raise SpecError("result upload must carry a 'results' list")
    if len(entries) > MAX_LEASE_JOBS:
        raise SpecError(f"result upload larger than {MAX_LEASE_JOBS} entries")
    out: list[JobResult] = []
    for i, entry in enumerate(entries):
        if not isinstance(entry, Mapping):
            raise SpecError(f"results[{i}] must be a JSON object")
        unknown = sorted(
            set(entry)
            - {"job_id", "ok", "result", "error", "secs", "retries", "resumed_from"}
        )
        if unknown:
            raise SpecError(f"results[{i}]: unknown field(s): {', '.join(unknown)}")
        job_id = entry.get("job_id")
        if not isinstance(job_id, str) or not job_id:
            raise SpecError(f"results[{i}] must name a non-empty 'job_id'")
        ok = entry.get("ok")
        if not isinstance(ok, bool):
            raise SpecError(f"results[{i}].ok must be a boolean")
        result = entry.get("result")
        error = entry.get("error")
        if ok and not isinstance(result, Mapping):
            raise SpecError(f"results[{i}]: ok=true requires a 'result' object")
        if not ok and not isinstance(error, str):
            raise SpecError(f"results[{i}]: ok=false requires an 'error' string")
        secs = entry.get("secs", 0.0)
        if isinstance(secs, bool) or not isinstance(secs, (int, float)):
            raise SpecError(f"results[{i}].secs must be a number")
        if not math.isfinite(secs) or secs < 0:
            raise SpecError(f"results[{i}].secs must be finite and non-negative")
        retries = entry.get("retries", 0)
        if isinstance(retries, bool) or not isinstance(retries, int) or retries < 0:
            raise SpecError(f"results[{i}].retries must be a non-negative integer")
        resumed_from = entry.get("resumed_from", 0)
        if (
            isinstance(resumed_from, bool)
            or not isinstance(resumed_from, int)
            or resumed_from < 0
        ):
            raise SpecError(
                f"results[{i}].resumed_from must be a non-negative integer"
            )
        out.append(
            JobResult(
                job_id=job_id,
                ok=ok,
                result=result if ok else None,
                error=error if not ok else None,
                secs=float(secs),
                retries=retries,
                resumed_from=resumed_from,
            )
        )
    return out


@dataclasses.dataclass
class Checkpoint:
    """The latest mid-run snapshot for one job key (server's resume table).

    ``data_b64`` is the base64-encoded checkpoint envelope exactly as
    uploaded (the server validates it but never re-encodes, so what a
    resuming worker downloads is byte-identical to what the uploader sent).
    Keyed by the job's *cache key*: simulations are deterministic functions
    of their spec, so any checkpoint for the key is a valid resume point for
    any job with that spec.
    """

    key: str
    job_id: str
    cycle: int
    total_cycles: int
    data_b64: str
    uploaded_at: float = dataclasses.field(default_factory=time.time)

    def grant_dict(self) -> dict[str, Any]:
        """The form shipped inside a lease grant's job entry."""
        return {"cycle": self.cycle, "data": self.data_b64}


def decode_checkpoint_grant(
    grant: Mapping[str, Any], total_cycles: int
) -> ColumnarState | None:
    """Decode a ``{"cycle", "data"}`` checkpoint grant, fail-open.

    Returns the resume point for a job of ``total_cycles`` cycles, or
    ``None`` when anything is wrong — bad base64, a corrupt, truncated or
    skewed envelope, a horizon that disagrees with the job — so the job
    runs cold from cycle 0. A stale checkpoint must never be able to fail
    (or silently corrupt) a job that would succeed without it. Shared by
    the worker (a lease-shipped grant) and the daemon's local dispatcher
    (its own resume table).
    """
    try:
        raw = base64.b64decode(str(grant.get("data", "")).encode("ascii"), validate=True)
        cycle, total, state = checkpoint_from_bytes(raw)
    except (SnapshotError, binascii.Error, ValueError, UnicodeEncodeError):
        return None
    if total != total_cycles or not 0 < cycle < total:
        return None
    return state


def parse_checkpoint_upload(data: Any) -> tuple[str, int, bytes]:
    """Validate a ``PUT /v1/leases/{id}/checkpoint`` body.

    The shape is ``{"job_id": str, "cycle": int, "data": base64-str}``.
    Returns ``(job_id, cycle, raw_bytes)``; anything malformed — unknown
    fields, bad base64, an oversized blob — raises :class:`SpecError`, so
    the HTTP layer answers 400 and the resume table is never touched.
    Envelope-level validation (magic/version/CRC) is the server's next step.
    """
    if not isinstance(data, Mapping):
        raise SpecError(
            f"checkpoint upload must be a JSON object, got {type(data).__name__}"
        )
    unknown = sorted(set(data) - {"job_id", "cycle", "data"})
    if unknown:
        raise SpecError(f"unknown checkpoint field(s): {', '.join(unknown)}")
    job_id = data.get("job_id")
    if not isinstance(job_id, str) or not job_id:
        raise SpecError("checkpoint upload must name a non-empty 'job_id'")
    cycle = data.get("cycle")
    if isinstance(cycle, bool) or not isinstance(cycle, int) or cycle < 0:
        raise SpecError("checkpoint 'cycle' must be a non-negative integer")
    encoded = data.get("data")
    if not isinstance(encoded, str) or not encoded:
        raise SpecError("checkpoint upload must carry non-empty base64 'data'")
    if len(encoded) > 2 * MAX_CHECKPOINT_BYTES:
        raise SpecError(
            f"checkpoint larger than {MAX_CHECKPOINT_BYTES} bytes"
        )
    try:
        raw = base64.b64decode(encoded.encode("ascii"), validate=True)
    except (binascii.Error, ValueError, UnicodeEncodeError) as exc:
        raise SpecError(f"checkpoint 'data' is not valid base64: {exc}") from exc
    if len(raw) > MAX_CHECKPOINT_BYTES:
        raise SpecError(f"checkpoint larger than {MAX_CHECKPOINT_BYTES} bytes")
    return job_id, cycle, raw


def parse_stream_request(data: Any) -> list[Mapping[str, Any]]:
    """Validate a ``POST /v1/stream`` body shape into a list of spec dicts.

    The shape is ``{"jobs": [{<job spec fields>, "priority"?}, ...]}``.
    Only the *envelope* is validated here (a JSON object carrying a
    non-empty, bounded list of objects); each entry is then validated by
    the server exactly as a ``POST /v1/jobs`` body would be, so the two
    endpoints cannot drift apart on what a spec means. Malformed envelopes
    raise :class:`SpecError` — the HTTP layer answers 400 before any
    chunked output starts.
    """
    if not isinstance(data, Mapping):
        raise SpecError(
            f"stream request must be a JSON object, got {type(data).__name__}"
        )
    unknown = sorted(set(data) - {"jobs"})
    if unknown:
        raise SpecError(f"unknown stream-request field(s): {', '.join(unknown)}")
    entries = data.get("jobs")
    if not isinstance(entries, list) or not entries:
        raise SpecError("stream request must carry a non-empty 'jobs' list")
    if len(entries) > MAX_STREAM_JOBS:
        raise SpecError(f"stream request larger than {MAX_STREAM_JOBS} jobs")
    for i, entry in enumerate(entries):
        if not isinstance(entry, Mapping):
            raise SpecError(f"jobs[{i}] must be a JSON object")
    return entries


# ----------------------------------------------------------------------
# Result payloads (the SimResult wire form)


def result_payload(res: SimResult) -> dict[str, Any]:
    """JSON-safe result body: the full ``SimResult`` plus derived totals."""
    d = dataclasses.asdict(res)
    d["benchmarks"] = list(d["benchmarks"])
    d["throughput"] = res.throughput
    return d


def result_from_payload(data: Any) -> SimResult:
    """Inverse of :func:`result_payload`; raises :class:`SpecError`.

    Worker uploads cross a trust boundary, so the payload is rebuilt into a
    real ``SimResult`` (and its derived throughput evaluated) before the
    server stores it anywhere — a malformed upload fails the request, never
    poisons a cache.
    """
    if not isinstance(data, Mapping):
        raise SpecError(
            f"result payload must be a JSON object, got {type(data).__name__}"
        )
    d = dict(data)
    d.pop("throughput", None)  # derived, recomputed below
    try:
        d["benchmarks"] = tuple(d.get("benchmarks", ()))
        res = SimResult(**d)
        throughput = float(res.throughput)
    except (TypeError, ValueError) as exc:
        raise SpecError(f"malformed result payload: {exc}") from exc
    if not isinstance(res.ipc, list) or not res.ipc:
        raise SpecError("result payload has no per-thread IPC")
    if not math.isfinite(throughput):
        raise SpecError("result payload has non-finite throughput")
    return res
