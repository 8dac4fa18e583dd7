"""Load-test harness for the sharded service: ``dwarn-sim loadtest``.

The ROADMAP's graduation gate for multi-daemon scale-out is a number, not a
feature list: *sustained ≥1k jobs/min through a 2-shard router on CI-class
hardware, dedup intact, drain-correct under rolling restarts*. This module
measures exactly that and writes the evidence to ``BENCH_service.json``
(the measured curve in docs/SCALING.md comes from the same file).

What a run does:

1. **Boot** (unless ``--router URL`` points at an existing deployment):
   N shard daemons on ephemeral ports with per-shard state directories,
   then one router fronting them. The harness — not the router — owns the
   shard processes, so it can kill and relaunch them *at the same address*
   mid-run (``--rolling-restart``), which is what the drain-correctness
   test needs.
2. **Replay**: ``--clients`` threads drain a shared queue of ``--jobs``
   submissions drawn from a ``--unique``-sized spec pool (mixed-duplicate
   traffic: the realistic regime where most submissions dedup against the
   store or coalesce). Most clients submit-and-wait; ``--stream-clients``
   of them push chunks through ``POST /v1/stream`` instead, exercising the
   chunked relay under load. Every client retries backpressure (429/503)
   and *resubmits* jobs lost to a drain — mimicking real clients riding
   over a deploy.
3. **Account**: per-request latency lands in a
   :class:`repro.obs.RunManifest`, tagged with the serving shard's name
   (parsed off the routed id) so per-shard p50/p95 split out via the
   ``sweep`` filter of :meth:`RunManifest.latency_percentiles`. Dedup
   correctness is asserted the strong way: every unique spec key must map
   to exactly **one** distinct throughput across every client observation
   — a duplicate execution with a different seed path, or a torn result
   after a restart, shows up as a second value.
4. **Report**: ``BENCH_service.json`` (schema below) plus a human summary;
   exit 1 if ``--min-jobs-per-min`` is set and missed, or if any
   correctness check failed. ``repro.utils.perfguard --service-bench``
   gates CI on the same file.

Report schema (``schema: 1``)::

    {
      "schema": 1,
      "config":   {...},                    # the knobs that shaped traffic
      "elapsed_secs": float,
      "jobs":     {"requested", "completed", "resubmits", "failed"},
      "throughput": {"jobs_per_min", "jobs_per_sec"},
      "latency":  {"p50", "p95"},           # seconds, all requests
      "per_shard": {"s0": {"requests", "p50", "p95"}, ...},
      "by_source": {"store": n, "simulated": n, ...},
      "dedup":    {"unique_specs", "distinct_results", "exactly_once"},
      "rolling_restart": {"enabled", "restarts"},
      "router":   {...},                    # final router counters
    }
"""

from __future__ import annotations

import json
import math
import queue
import random
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Any

from repro.obs.manifest import RunManifest
from repro.service.client import ServiceClient, ServiceError

__all__ = ["BENCH_SCHEMA", "LoadTestConfig", "run_loadtest"]

BENCH_SCHEMA = 1

#: Specs per /v1/stream request issued by a streaming client.
STREAM_CHUNK = 16

#: Resubmission attempts per job before it counts as failed (each rides
#: out one shard cooldown window, so a rolling restart is survivable).
RESUBMITS = 8

#: Workloads the traffic pool draws from: 2-thread mixes keep a single
#: simulated job cheap enough that control-plane throughput — not
#: simulator speed — is what the harness measures.
POOL_WORKLOADS = ("2-MIX", "2-MEM", "2-ILP")
POOL_POLICIES = ("icount", "dwarn", "stall", "flush", "rr", "brcount")


@dataclass
class LoadTestConfig:
    """Everything ``dwarn-sim loadtest`` configures."""

    router_url: str | None = None     # None = boot shards + router locally
    shards: int = 2
    clients: int = 32
    stream_clients: int = 2
    jobs: int = 1000
    unique: int = 24
    queue_capacity: int = 256
    rolling_restart: bool = False
    warmup_cycles: int = 200
    measure_cycles: int = 1200
    trace_length: int = 6000
    out: str = "BENCH_service.json"
    state_dir: str | None = None
    min_jobs_per_min: float | None = None
    seed: int = 0


def build_spec_pool(cfg: LoadTestConfig) -> list[dict[str, Any]]:
    """``cfg.unique`` distinct specs cycling workloads × policies × seeds."""
    pool: list[dict[str, Any]] = []
    seed = 0
    while len(pool) < cfg.unique:
        for wl in POOL_WORKLOADS:
            for pol in POOL_POLICIES:
                if len(pool) >= cfg.unique:
                    break
                pool.append(
                    {
                        "workload": wl,
                        "policy": pol,
                        "seed": seed,
                        "warmup_cycles": cfg.warmup_cycles,
                        "measure_cycles": cfg.measure_cycles,
                        "trace_length": cfg.trace_length,
                    }
                )
            else:
                continue
            break
        seed += 1
    return pool


# ----------------------------------------------------------------------
# Fleet management (self-booted mode)


class _Proc:
    """One managed child (shard or router) restartable at a fixed port."""

    def __init__(self, name: str, argv: list[str], port_file: Path) -> None:
        self.name = name
        self.argv = argv
        self.port_file = port_file
        self.proc: subprocess.Popen | None = None
        self.port: int | None = None

    def start(self) -> None:
        self.port_file.unlink(missing_ok=True)
        self.proc = subprocess.Popen(
            self.argv, stdout=subprocess.DEVNULL, stderr=subprocess.STDOUT
        )

    def await_port(self, timeout: float = 30.0) -> int:
        deadline = time.monotonic() + timeout
        while True:
            text = (
                self.port_file.read_text().strip() if self.port_file.exists() else ""
            )
            if text:
                self.port = int(text)
                return self.port
            if self.proc is not None and self.proc.poll() is not None:
                raise RuntimeError(f"{self.name} exited during boot")
            if time.monotonic() > deadline:
                raise RuntimeError(f"{self.name} did not report a port in {timeout}s")
            time.sleep(0.05)

    def stop(self, timeout: float = 30.0) -> None:
        if self.proc is None or self.proc.poll() is not None:
            return
        self.proc.terminate()
        try:
            self.proc.wait(timeout=timeout)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()


class Fleet:
    """Boots N shards + router; supports restarting a shard in place."""

    def __init__(self, cfg: LoadTestConfig, state: Path) -> None:
        self.cfg = cfg
        self.state = state
        self.shards: list[_Proc] = []
        self.router: _Proc | None = None

    def _shard_argv(self, i: int, port: int) -> list[str]:
        shard_dir = self.state / f"s{i}"
        shard_dir.mkdir(parents=True, exist_ok=True)
        return [
            sys.executable, "-m", "repro.cli", "serve",
            "--host", "127.0.0.1",
            "--port", str(port),
            "--port-file", str(shard_dir / "port"),
            "--store", str(shard_dir / "store.jsonl"),
            "--cache-dir", str(shard_dir / "cache"),
            "--trace-cache", str(shard_dir / "traces"),
            "--queue-capacity", str(self.cfg.queue_capacity),
        ]

    def boot(self) -> int:
        """Start everything; returns the router port."""
        for i in range(self.cfg.shards):
            shard = _Proc(f"s{i}", self._shard_argv(i, 0), self.state / f"s{i}" / "port")
            shard.start()
            self.shards.append(shard)
        for shard in self.shards:
            shard.await_port()
        # Re-pin each shard's argv to its now-known port so a restart
        # relaunches at the same address (the router's ring is static).
        for i, shard in enumerate(self.shards):
            shard.argv = self._shard_argv(i, shard.port or 0)
        self.router = _Proc(
            "router",
            [
                sys.executable, "-m", "repro.cli", "route",
                "--host", "127.0.0.1",
                "--port", "0",
                "--port-file", str(self.state / "router.port"),
                *[arg for s in self.shards for arg in ("--shard", f"127.0.0.1:{s.port}")],
            ],
            self.state / "router.port",
        )
        self.router.start()
        return self.router.await_port()

    def restart_shard(self, i: int) -> None:
        """SIGTERM shard ``i`` (it drains), then relaunch at the same port
        and wait until it answers /healthz again."""
        shard = self.shards[i]
        shard.stop()
        shard.start()
        shard.await_port()
        probe = ServiceClient("127.0.0.1", shard.port or 0, timeout=5.0, retries=8)
        probe.healthz()
        probe.close()

    def stop(self) -> None:
        if self.router is not None:
            self.router.stop()
        for shard in self.shards:
            shard.stop()


# ----------------------------------------------------------------------
# Replay clients


class _Accounting:
    """Thread-safe tallies shared by every client."""

    def __init__(self) -> None:
        self.lock = threading.Lock()
        self.manifest = RunManifest(label="loadtest")
        #: canonical spec key -> set of observed throughputs (exactly-once
        #: means every set has size 1 at the end).
        self.results: dict[str, set[float]] = {}
        self.by_source: dict[str, int] = {}
        self.completed = 0
        self.resubmits = 0
        self.failed = 0
        self.started_at: float | None = None
        self.finished_at: float | None = None

    def record(self, payload: dict[str, Any], secs: float) -> None:
        """One terminal job observation (from wait() or a stream line)."""
        shard = str(payload.get("id") or "").partition("@")[0] or "router"
        source = payload.get("source") or "worker"
        spec = payload.get("spec") or {}
        result = payload.get("result") or {}
        key = payload.get("key") or json.dumps(spec, sort_keys=True)
        with self.lock:
            now = time.monotonic()
            if self.started_at is None:
                self.started_at = now
            self.finished_at = now
            self.completed += 1
            self.by_source[source] = self.by_source.get(source, 0) + 1
            self.results.setdefault(key, set()).add(
                round(float(result.get("throughput", math.nan)), 9)
            )
            self.manifest.record_pair(
                shard,
                str(spec.get("workload", "?")),
                str(spec.get("policy", "?")),
                source if source in ("memory", "disk", "simulated", "store", "worker") else "store",
                secs,
                seed=int(spec.get("seed", 0) or 0),
            )

    def bump(self, field: str, n: int = 1) -> None:
        with self.lock:
            setattr(self, field, getattr(self, field) + n)


def _submit_client(
    client_no: int,
    host: str,
    port: int,
    work: "queue.SimpleQueue[dict[str, Any] | None]",
    acct: _Accounting,
) -> None:
    """Submit-and-wait client: one job at a time, resubmitting on loss."""
    c = ServiceClient(
        host,
        port,
        timeout=30.0,
        backpressure_retries=64,
        max_retry_after=2.0,
        deadline=120.0,
        client_id=f"lt-{client_no}",
        rng=random.Random(client_no),
    )
    while True:
        spec = work.get()
        if spec is None:
            return
        t0 = time.monotonic()
        for attempt in range(RESUBMITS + 1):
            try:
                job = c.submit(spec)
                payload = c.wait(job["id"], timeout=90.0)
                acct.record({**payload, "key": job.get("key")}, time.monotonic() - t0)
                break
            except ServiceError:
                # 503 window, drain-cancelled job, or lost shard: resubmit
                # — the dedup tiers make this free once the result exists.
                if attempt == RESUBMITS:
                    acct.bump("failed")
                else:
                    acct.bump("resubmits")
                    time.sleep(0.2 * (attempt + 1))


def _stream_client(
    client_no: int,
    host: str,
    port: int,
    work: "queue.SimpleQueue[dict[str, Any] | None]",
    acct: _Accounting,
) -> None:
    """Streaming client: pulls chunks and rides ``/v1/stream`` sweeps."""
    c = ServiceClient(
        host, port, timeout=30.0, client_id=f"lt-stream-{client_no}",
        rng=random.Random(1000 + client_no),
    )
    while True:
        chunk: list[dict[str, Any]] = []
        while len(chunk) < STREAM_CHUNK:
            spec = work.get()
            if spec is None:
                break
            chunk.append(spec)
        if not chunk:
            return
        t0 = time.monotonic()
        done: set[int] = set()
        try:
            for line in c.stream(chunk, timeout=120.0):
                if line.get("state") == "done":
                    acct.record(line, time.monotonic() - t0)
                    done.add(int(line.get("index", 0)))
        except (ServiceError, OSError, ValueError):
            pass  # stream lost: what it did not finish is resubmitted below
        # Every spec without a done line — failed (down shard, drain), never
        # mentioned by a stream cut short, or lost with the stream — goes
        # back through the plain submit path, one by one.
        for i, spec in enumerate(chunk):
            if i in done:
                continue
            acct.bump("resubmits")
            t1 = time.monotonic()
            for attempt in range(RESUBMITS + 1):
                try:
                    job = c.submit(spec, deadline=60.0)
                    payload = c.wait(job["id"], timeout=90.0)
                    acct.record({**payload, "key": job.get("key")}, time.monotonic() - t1)
                    break
                except ServiceError:
                    if attempt == RESUBMITS:
                        acct.bump("failed")
                    else:
                        time.sleep(0.2 * (attempt + 1))
        if len(chunk) < STREAM_CHUNK:
            return  # the queue gave us a sentinel mid-chunk


# ----------------------------------------------------------------------
# Entry point


def run_loadtest(cfg: LoadTestConfig) -> int:
    """Blocking entry point (what ``dwarn-sim loadtest`` calls)."""
    if cfg.router_url is not None and cfg.rolling_restart:
        print("loadtest: --rolling-restart needs harness-owned shards "
              "(drop --router)", file=sys.stderr)
        return 2
    state = Path(cfg.state_dir) if cfg.state_dir else Path(tempfile.mkdtemp(prefix="dwarn-lt-"))
    state.mkdir(parents=True, exist_ok=True)

    fleet: Fleet | None = None
    if cfg.router_url is None:
        fleet = Fleet(cfg, state)
        host, port = "127.0.0.1", 0
    else:
        addr = cfg.router_url.removeprefix("http://").rstrip("/")
        host, _, port_s = addr.rpartition(":")
        if not host or not port_s.isdigit():
            print(f"loadtest: bad --router {cfg.router_url!r}", file=sys.stderr)
            return 2
        port = int(port_s)

    try:
        if fleet is not None:
            # Inside the try: a daemon that never reports a port must not
            # leave the ones already started running.
            print(f"loadtest: booting {cfg.shards} shards + router "
                  f"(state: {state})", flush=True)
            port = fleet.boot()
        return _drive(cfg, host, port, fleet)
    finally:
        if fleet is not None:
            fleet.stop()


def _drive(cfg: LoadTestConfig, host: str, port: int, fleet: Fleet | None) -> int:
    pool = build_spec_pool(cfg)
    rng = random.Random(cfg.seed)
    work: "queue.SimpleQueue[dict[str, Any] | None]" = queue.SimpleQueue()
    for i in range(cfg.jobs):
        work.put(pool[rng.randrange(len(pool))])
    acct = _Accounting()

    n_stream = min(cfg.stream_clients, cfg.clients)
    n_submit = cfg.clients - n_stream
    threads = [
        threading.Thread(
            target=_submit_client, args=(i, host, port, work, acct), daemon=True
        )
        for i in range(n_submit)
    ] + [
        threading.Thread(
            target=_stream_client, args=(i, host, port, work, acct), daemon=True
        )
        for i in range(n_stream)
    ]
    print(
        f"loadtest: {cfg.jobs} jobs over {len(pool)} unique specs, "
        f"{n_submit} submit + {n_stream} stream clients"
        + (", rolling restart on" if cfg.rolling_restart else ""),
        flush=True,
    )
    wall0 = time.monotonic()
    for t in threads:
        t.start()

    restarts = 0
    if cfg.rolling_restart and fleet is not None:
        # Restart every shard in sequence once the run is warmed up: wait
        # until ~25% of jobs completed, then roll s0, s1, ... with a beat
        # between so the ring is never missing two shards at once.
        while acct.completed < max(1, cfg.jobs // 4):
            time.sleep(0.1)
            if all(not t.is_alive() for t in threads):
                break
        for i in range(len(fleet.shards)):
            if all(not t.is_alive() for t in threads):
                break
            print(f"loadtest: rolling restart of shard s{i}", flush=True)
            fleet.restart_shard(i)
            restarts += 1
            time.sleep(0.5)

    for _ in range(cfg.clients):
        work.put(None)
    for t in threads:
        t.join()
    elapsed = (
        (acct.finished_at - acct.started_at)
        if acct.started_at is not None and acct.finished_at is not None
        else time.monotonic() - wall0
    ) or 1e-9

    exactly_once = all(len(v) == 1 for v in acct.results.values())
    jobs_per_min = acct.completed / elapsed * 60.0
    router_metrics: dict[str, Any] = {}
    shard_names: list[str] = []
    try:
        final = ServiceClient(host, port, timeout=10.0).metrics()
        router_metrics = final.get("router", {})
        shard_names = sorted(final.get("per_shard", {}))
    except ServiceError:
        pass
    if not shard_names:
        shard_names = sorted({p.sweep for p in acct.manifest.pairs})

    report = {
        "schema": BENCH_SCHEMA,
        "config": asdict(cfg),
        "elapsed_secs": round(elapsed, 3),
        "jobs": {
            "requested": cfg.jobs,
            "completed": acct.completed,
            "resubmits": acct.resubmits,
            "failed": acct.failed,
        },
        "throughput": {
            "jobs_per_min": round(jobs_per_min, 1),
            "jobs_per_sec": round(jobs_per_min / 60.0, 2),
        },
        "latency": acct.manifest.latency_percentiles((50.0, 95.0)),
        "per_shard": {
            name: {
                "requests": sum(1 for p in acct.manifest.pairs if p.sweep == name),
                **acct.manifest.latency_percentiles((50.0, 95.0), sweep=name),
            }
            for name in shard_names
        },
        "by_source": dict(sorted(acct.by_source.items())),
        "dedup": {
            "unique_specs": len(acct.results),
            "distinct_results": sum(len(v) for v in acct.results.values()),
            "exactly_once": exactly_once,
        },
        "rolling_restart": {"enabled": cfg.rolling_restart, "restarts": restarts},
        "router": router_metrics,
    }
    Path(cfg.out).write_text(json.dumps(report, indent=2) + "\n")
    lat = report["latency"]
    print(
        f"loadtest: {acct.completed}/{cfg.jobs} completed in {elapsed:.1f}s "
        f"({jobs_per_min:.0f} jobs/min; p50 {lat['p50']*1000:.0f}ms, "
        f"p95 {lat['p95']*1000:.0f}ms; {acct.resubmits} resubmits, "
        f"{acct.failed} failed; exactly_once={exactly_once}) -> {cfg.out}",
        flush=True,
    )

    ok = exactly_once and acct.failed == 0 and acct.completed == cfg.jobs
    if not ok:
        print("loadtest: FAILED correctness checks", file=sys.stderr)
        return 1
    if cfg.min_jobs_per_min is not None and jobs_per_min < cfg.min_jobs_per_min:
        print(
            f"loadtest: FAILED throughput gate "
            f"({jobs_per_min:.0f} < {cfg.min_jobs_per_min:.0f} jobs/min)",
            file=sys.stderr,
        )
        return 1
    return 0
