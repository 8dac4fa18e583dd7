"""Pull-based distributed worker: lease jobs, simulate, upload results.

``dwarn-sim worker --server URL`` runs this loop against a
:mod:`repro.service` daemon::

    POST /v1/leases {wait}              ask for up to --capacity jobs; the
                                        server holds the request until a
                                        job is queued or wait runs out
                                        (wait = --poll-interval, at most
                                        MAX_LEASE_WAIT seconds)
      -> empty?  the hold ran out: ask again at once
      -> lease!  start a heartbeat thread, run the jobs one by one
    POST /v1/leases/{id}/heartbeat      every lease_ttl/3 while executing
    POST /v1/leases/{id}/result         upload per-job outcomes, end lease

Each leased job runs through ``experiments.parallel.simulate_resumable``,
the function the daemon's local dispatcher runs its jobs through, with the
persistent trace-artifact cache (``--trace-cache``), so a workload
appearing in several leased jobs generates its traces once per *worker
machine*, ever. A job that fails is reported failed without touching the
rest of its lease. The measured seconds flow back in the upload to train
the server's cost model. To use more cores, run more workers.

Failure discipline (the chaos tests pin all of this):

- The worker is *disposable*: it holds no durable state, so SIGKILL at any
  point loses at most one lease, which the server expires and redelivers.
- Heartbeat failures are logged, never fatal — a dropped heartbeat means
  the server may expire the lease, and the eventual result upload answers
  ``410 Gone``; the worker discards the results and leases fresh work.
- Upload failures (transport dead after retries) are likewise dropped on
  the floor: the lease expires server-side and the jobs are redelivered.
  Exactly-once completion is the *server's* invariant, enforced by the
  lease table; the worker only has to be at-least-once.
- A redelivered lease ships the job's stored checkpoint back; every
  worker decodes it fail-open (anything wrong -> run cold from cycle 0)
  and resumes from the captured cycle, reporting ``resumed_from`` with the
  result so the server can train its cost model on the *incremental*
  seconds only. With ``--checkpoint-interval N`` the worker is also
  *preemptible*: every N cycles the live ``Simulator`` is snapshotted
  (``checkpoint_to_bytes``) and PUT to ``/v1/leases/{id}/checkpoint``,
  best-effort.

The HTTP transport is injected (anything with ``ServiceClient.request``'s
signature), which is how the fault-injection tests interpose
``FlakyTransport`` without touching a socket.
"""

from __future__ import annotations

import base64
import os
import random
import socket
import threading
from dataclasses import dataclass
from typing import Any

from repro.core.columnar import ColumnarState, SnapshotError, checkpoint_to_bytes
from repro.experiments.parallel import simulate_resumable
from repro.service.client import ServiceClient, ServiceError
from repro.service.protocol import (
    MAX_CHECKPOINT_BYTES,
    MAX_LEASE_WAIT,
    JobSpec,
    LeaseRequest,
    SpecError,
    decode_checkpoint_grant,
    result_payload,
)

__all__ = ["Worker", "WorkerConfig", "parse_server", "run_worker"]


def parse_server(url: str) -> tuple[str, int]:
    """``http://host:port`` / ``host:port`` / ``host`` -> (host, port)."""
    rest = url.strip()
    for scheme in ("http://", "https://"):
        if rest.startswith(scheme):
            rest = rest[len(scheme):]
            break
    rest = rest.rstrip("/").split("/", 1)[0]
    host, _, port = rest.partition(":")
    if not host:
        raise ValueError(f"cannot parse server address from {url!r}")
    return host, int(port) if port else 8177


@dataclass
class WorkerConfig:
    """Everything ``dwarn-sim worker`` configures."""

    host: str = "127.0.0.1"
    port: int = 8177
    worker_id: str = ""                  # "" = derived from host+pid
    capacity: int = 4                    # jobs requested per lease
    poll_interval: float = 0.5           # longest hold of one lease request
    trace_cache_dir: str | None = None   # persistent trace artifacts
    checkpoint_interval: int = 0         # cycles between uploads; 0 = off
    max_leases: int | None = None        # exit after N non-empty leases (tests)
    quiet: bool = False

    def resolved_id(self) -> str:
        """The id sent with every lease: ``worker_id`` or host-pid."""
        return self.worker_id or f"{socket.gethostname()}-{os.getpid()}"


class Worker:
    """One worker process's loop state (see module docstring)."""

    def __init__(self, cfg: WorkerConfig, transport: Any | None = None) -> None:
        self.cfg = cfg
        self.id = cfg.resolved_id()
        #: Anything with ``request(method, path, body) -> (status, payload,
        #: headers)`` raising ServiceError when transport retries exhaust;
        #: a ``close()`` is called from each thread that used it, at its end.
        self.transport = transport or ServiceClient(cfg.host, cfg.port)
        self.stats = {
            "leases": 0,
            "empty_polls": 0,
            "jobs_done": 0,
            "jobs_failed": 0,
            "uploads_gone": 0,     # 410: lease expired/consumed before upload
            "heartbeat_errors": 0,
            "checkpoints_uploaded": 0,
            "checkpoint_errors": 0,   # capture failed / server refused / transport
            "resumes": 0,             # jobs continued from a shipped checkpoint
            "resumes_rejected": 0,    # shipped checkpoint undecodable -> ran cold
        }
        self._stop = threading.Event()
        self._rng = random.Random()

    # -- lifecycle -------------------------------------------------------

    def stop(self) -> None:
        """Ask the loop to exit after the current lease (thread-safe)."""
        self._stop.set()

    def run(self) -> int:
        """Lease/execute/upload until stopped; returns an exit status."""
        self._log(
            f"worker {self.id} polling http://{self.cfg.host}:{self.cfg.port} "
            f"(capacity={self.cfg.capacity})"
        )
        while not self._stop.is_set():
            if (
                self.cfg.max_leases is not None
                and self.stats["leases"] >= self.cfg.max_leases
            ):
                break
            try:
                granted = self._lease()
            except ServiceError as exc:
                self._log(f"lease request failed ({exc}); backing off")
                self._sleep(self.cfg.poll_interval)
                continue
            if granted is None:
                self.stats["empty_polls"] += 1
                continue
            self.stats["leases"] += 1
            self._execute_lease(granted)
        self._close_connection()
        self._log(
            f"worker {self.id} exiting: {self.stats['leases']} leases, "
            f"{self.stats['jobs_done']} jobs done, "
            f"{self.stats['jobs_failed']} failed"
        )
        return 0

    # -- leasing ---------------------------------------------------------

    def _lease(self) -> dict[str, Any] | None:
        """One held ``POST /v1/leases``; ``None`` when no job arrived
        before the hold ran out."""
        wait = max(0.0, min(self.cfg.poll_interval, MAX_LEASE_WAIT))
        status, payload, headers = self.transport.request(
            "POST",
            "/v1/leases",
            LeaseRequest(self.id, self.cfg.capacity, wait).to_dict(),
        )
        if status in (429, 503):
            # Backpressure, not failure: the router says "come back later"
            # (rate limit, or every shard in cooldown). Honour the hint.
            self._sleep(
                max(self.cfg.poll_interval, float(headers.get("Retry-After", 1.0)))
            )
            return None
        if status != 200:
            raise ServiceError(f"lease refused: HTTP {status}: {payload}", status, payload)
        if not payload.get("jobs"):
            # A held reply is empty only once its wait ran out, so ask again
            # at once; an unheld one (wait 0) says when to retry.
            if "poll_after" in payload:
                self._sleep(float(payload["poll_after"]))
            return None
        return payload

    def _heartbeat_loop(self, lease_id: str, interval: float, stop: threading.Event) -> None:
        while not stop.wait(interval):
            try:
                status, _, _ = self.transport.request(
                    "POST", f"/v1/leases/{lease_id}/heartbeat", {}
                )
            except ServiceError:
                self.stats["heartbeat_errors"] += 1
                continue  # transient transport loss: keep trying
            if status == 410:
                # Lease already expired server-side: the jobs in flight are
                # doomed to a 410 upload too; no point heartbeating on.
                self.stats["heartbeat_errors"] += 1
                break
        self._close_connection()

    # -- execution -------------------------------------------------------

    def _execute_lease(self, granted: dict[str, Any]) -> None:
        lease = granted["lease"]
        lease_id = lease["id"]
        lease_ttl = float(granted.get("lease_ttl", 15.0))
        entries = granted["jobs"]
        self._log(f"lease {lease_id}: {len(entries)} job(s)")

        # Heartbeat at a third of the deadline: two beats can be lost to
        # transient failures before the server gives the lease away.
        hb_stop = threading.Event()
        hb = threading.Thread(
            target=self._heartbeat_loop,
            args=(lease_id, max(0.05, lease_ttl / 3.0), hb_stop),
            daemon=True,
        )
        hb.start()
        # The heartbeat covers execution AND upload: a large upload over a
        # slow link must not let the lease lapse mid-transfer. (The beat
        # racing the upload's lease consumption may see 410; harmless.)
        try:
            results = self._run_jobs(entries, lease_id)
            self._upload(lease_id, results)
        finally:
            hb_stop.set()
            hb.join(timeout=2.0)

    def _run_jobs(
        self, entries: list[dict[str, Any]], lease_id: str
    ) -> list[dict[str, Any]]:
        """Execute a lease's jobs one by one; returns upload-ready entries.

        Each job runs through :func:`simulate_resumable` so that (a) a
        checkpoint the server shipped with the lease is restored and the
        run continues from its cycle, and (b) every
        ``cfg.checkpoint_interval`` cycles (when set) the live simulator is
        captured and PUT back, best-effort. A job that cannot be parsed or
        whose simulation raises is reported failed alone.
        """
        out: list[dict[str, Any]] = []
        for entry in entries:
            try:
                jid, spec = entry["id"], JobSpec.from_dict(entry["spec"])
            except (KeyError, TypeError, SpecError) as exc:
                out.append(
                    {"job_id": str(entry.get("id", "?")), "ok": False,
                     "error": f"worker could not parse leased spec: {exc}"}
                )
                continue
            restore = self._decode_checkpoint(spec, entry.get("checkpoint"))
            if restore is not None:
                self._log(f"job {jid}: resuming from shipped checkpoint")

            def on_checkpoint(sim: Any, jid: str = jid) -> None:
                self._upload_checkpoint(lease_id, jid, sim)

            try:
                res, resumed_from, secs = simulate_resumable(
                    spec.machine_config(),
                    spec.sim_config(),
                    spec.workload,
                    spec.policy,
                    trace_cache_dir=self.cfg.trace_cache_dir,
                    checkpoint_interval=self.cfg.checkpoint_interval,
                    on_checkpoint=on_checkpoint,
                    restore=restore,
                )
            except Exception as exc:
                self.stats["jobs_failed"] += 1
                out.append(
                    {"job_id": jid, "ok": False, "error": f"worker job failed: {exc}"}
                )
                continue
            if resumed_from:
                self.stats["resumes"] += 1
            elif restore is not None:
                # restore_into itself refused (version skew inside the
                # snapshot section, config mismatch): simulate_resumable
                # already fell open to a cold rerun.
                self.stats["resumes_rejected"] += 1
            out.append(
                {
                    "job_id": jid,
                    "ok": True,
                    "result": result_payload(res),
                    "secs": round(secs, 6),
                    "retries": 0,
                    "resumed_from": resumed_from,
                }
            )
            self.stats["jobs_done"] += 1
        return out

    def _decode_checkpoint(self, spec: JobSpec, grant: Any) -> ColumnarState | None:
        """Decode a lease-shipped grant through :func:`decode_checkpoint_grant`.

        No grant (anything but a dict) returns ``None``; a grant that fails
        to decode also returns ``None`` (the job runs cold from cycle 0) and
        counts as a rejected resume.
        """
        if not isinstance(grant, dict):
            return None
        state = decode_checkpoint_grant(grant, spec.sim_config().total_cycles)
        if state is None:
            self.stats["resumes_rejected"] += 1
        return state

    def _upload_checkpoint(self, lease_id: str, job_id: str, sim: Any) -> None:
        """Capture ``sim`` and PUT the envelope; best-effort by design.

        Every failure mode — uncapturable state, an oversized blob, a dead
        transport, a 4xx/410 from the server — is counted and swallowed:
        checkpointing is an optimisation, never a reason to fail the job.
        """
        try:
            blob = checkpoint_to_bytes(sim)
        except SnapshotError:
            self.stats["checkpoint_errors"] += 1
            return
        if len(blob) > MAX_CHECKPOINT_BYTES:
            self.stats["checkpoint_errors"] += 1
            return
        body = {
            "job_id": job_id,
            "cycle": sim.cycle,
            "data": base64.b64encode(blob).decode("ascii"),
        }
        try:
            status, _, _ = self.transport.request(
                "PUT", f"/v1/leases/{lease_id}/checkpoint", body
            )
        except ServiceError:
            self.stats["checkpoint_errors"] += 1
            return
        if status == 200:
            self.stats["checkpoints_uploaded"] += 1
        else:
            self.stats["checkpoint_errors"] += 1

    # -- upload ----------------------------------------------------------

    def _upload(self, lease_id: str, results: list[dict[str, Any]]) -> None:
        try:
            status, payload, _ = self.transport.request(
                "POST", f"/v1/leases/{lease_id}/result", {"results": results}
            )
        except ServiceError as exc:
            # Transport dead after client retries: drop the results — the
            # lease expires server-side and the jobs are redelivered.
            self._log(f"upload for lease {lease_id} failed ({exc}); discarding results")
            return
        if status == 410:
            # Expired or duplicate: the server already gave the jobs away
            # (or took a previous copy); these results must not count twice.
            self.stats["uploads_gone"] += 1
            self._log(f"lease {lease_id} gone before upload; results discarded")
        elif status != 200:
            self._log(f"upload for lease {lease_id} rejected: HTTP {status}: {payload}")

    # -- plumbing --------------------------------------------------------

    def _close_connection(self) -> None:
        """Close the calling thread's keep-alive connection, when the
        transport keeps one (``ServiceClient`` does, per thread)."""
        close = getattr(self.transport, "close", None)
        if close is not None:
            close()

    def _sleep(self, secs: float) -> None:
        """Jittered, stop-aware sleep (50..100% of ``secs``)."""
        self._stop.wait(secs * (0.5 + 0.5 * self._rng.random()))

    def _log(self, msg: str) -> None:
        if not self.cfg.quiet:
            print(f"[worker {self.id}] {msg}", flush=True)


def run_worker(cfg: WorkerConfig) -> int:
    """Blocking entry point (what ``dwarn-sim worker`` calls)."""
    worker = Worker(cfg)
    try:
        return worker.run()
    except KeyboardInterrupt:
        worker.stop()
        return 0
