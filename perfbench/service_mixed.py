"""service-mixed: a closed loop of clients against a two-shard fleet.

Fleet: ``dwarn-sim route`` over two ``serve`` shards with default execution
settings, booted by ``repro.service.loadtest.Fleet``, plus one
``dwarn-sim worker --checkpoint-interval`` polling shard s1 directly. Keys
owned by s0 therefore run on its local dispatcher and keys owned by s1 run
through leases with checkpoint uploads, under the same traffic.

Traffic: ``nproc`` client threads, each submitting one job and polling its
status every 10 ms until it is done. Specs come from
``loadtest.build_spec_pool``. The stream is built in chunks of eight: one
new spec owned by s0, one new spec owned by s1 and six repeats of specs
from earlier chunks, shuffled. Any prefix therefore holds the same mix
(1/8 local misses, 1/8 leased misses, 3/4 hits served by the store, the
runner cache or coalescing), so a time-bounded run measures the same
traffic whatever the seed. Simulations are tiny, so the control plane
(router, admission, queue, leases, checkpoints, store) is what is timed.
"""

from __future__ import annotations

import json
import os
import random
import shutil
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Iterator

from metrics import Outcome, SETUP_REPS, layer_defaults, median, model_metrics, peak_rss_mb

HERE = Path(__file__).resolve().parent

#: Status polling interval of every client (``ServiceClient.wait`` uses 50 ms).
CLIENT_POLL = 0.010
#: Cycles between the worker's checkpoint uploads; a job runs 1400 cycles.
CHECKPOINT_INTERVAL = 512
#: Unique specs available to one run (half per shard); at eight jobs per
#: two new specs this bounds a run at 960 jobs.
POOL_SIZE = 240
REPEATS_PER_CHUNK = 6
TERMINAL = ("done", "failed", "cancelled", "dead_letter")


@dataclass
class Job:
    """One client submission and everything observed about it."""

    index: int
    spec: dict[str, Any]
    owner: str
    first: bool
    latency: float = 0.0
    submit_s: float = 0.0
    seen_wall: float = 0.0
    status: dict[str, Any] = field(default_factory=dict)
    result: dict[str, Any] | None = None
    error: str | None = None

    @property
    def population(self) -> str:
        if not self.first:
            return "hit"
        return "local" if self.owner == "s0" else "leased"


def job_stream(seed: int) -> Iterator[tuple[dict[str, Any], str, bool]]:
    """(spec, owning shard, first submission of its key), chunk by chunk."""
    from repro.service.loadtest import LoadTestConfig, build_spec_pool
    from repro.service.protocol import JobSpec
    from repro.service.router import HashRing

    ring = HashRing(["s0", "s1"])
    fresh: dict[str, list[dict[str, Any]]] = {"s0": [], "s1": []}
    for spec in build_spec_pool(LoadTestConfig(unique=POOL_SIZE)):
        fresh[ring.owner(JobSpec.from_dict(spec).cache_key())].append(spec)
    rng = random.Random(seed)
    for specs in fresh.values():
        rng.shuffle(specs)
    seen: list[tuple[dict[str, Any], str]] = []
    for new0, new1 in zip(fresh["s0"], fresh["s1"]):
        chunk = [(new0, "s0", True), (new1, "s1", True)]
        if seen:
            chunk += [(*rng.choice(seen), False) for _ in range(REPEATS_PER_CHUNK)]
        rng.shuffle(chunk)
        yield from chunk
        seen += [(new0, "s0"), (new1, "s1")]


def prefill_traces(template: Path) -> None:
    """Walk every trace the spec pool can need into an artifact directory."""
    from repro.service.loadtest import LoadTestConfig, build_spec_pool
    from repro.service.protocol import JobSpec
    from repro.trace import TraceArtifactCache
    from repro.workloads import build_programs, get_workload

    cache = TraceArtifactCache(template)
    done = set()
    for spec in build_spec_pool(LoadTestConfig(unique=POOL_SIZE)):
        js = JobSpec.from_dict(spec)
        if (js.workload, js.seed) not in done:
            done.add((js.workload, js.seed))
            build_programs(get_workload(js.workload), js.sim_config(), trace_cache=cache)


class Deployment:
    """One booted fleet: router, two shards and the worker polling s1."""

    def __init__(self, state: Path, template: Path, spans_path: Path | None) -> None:
        from repro.service.loadtest import Fleet, LoadTestConfig

        self.state = state
        for sub in ("s0/traces", "s1/traces", "worker-traces"):
            shutil.copytree(template, state / sub, copy_function=os.link)
        self.fleet = Fleet(LoadTestConfig(shards=2), state)
        self.spans_path = spans_path
        self.worker: subprocess.Popen | None = None
        self.router_port = 0

    def boot(self) -> float:
        """Start everything; returns seconds until the fleet is healthy."""
        from repro.service.client import ServiceClient

        t0 = time.perf_counter()
        self.router_port = self.fleet.boot()
        s1 = self.shard_port("s1")
        worker_args = [
            "--server", f"http://127.0.0.1:{s1}",
            "--checkpoint-interval", str(CHECKPOINT_INTERVAL),
            "--trace-cache", str(self.state / "worker-traces"),
            "--worker-id", "perfbench-worker",
        ]
        if self.spans_path is None:
            argv = [sys.executable, "-m", "repro.cli", "worker", *worker_args]
        else:
            argv = [sys.executable, str(HERE / "worker_launcher.py"), *worker_args,
                    "--spans", str(self.spans_path)]
        self.worker = subprocess.Popen(argv, stdout=subprocess.DEVNULL,
                                       stderr=subprocess.STDOUT)
        ServiceClient("127.0.0.1", self.router_port, timeout=5.0, retries=8).healthz()
        probe = ServiceClient("127.0.0.1", s1, timeout=5.0, retries=8)
        deadline = time.monotonic() + 60.0
        while probe.healthz().get("active_workers", 0) < 1:
            if self.worker.poll() is not None or time.monotonic() > deadline:
                raise RuntimeError("worker never reached shard s1")
            time.sleep(0.005)
        return time.perf_counter() - t0

    def shard_port(self, name: str) -> int:
        return self.fleet.shards[int(name[1:])].port or 0

    def stop(self) -> None:
        """Stop the worker (it flushes its spans on SIGTERM), then the fleet."""
        if self.worker is not None and self.worker.poll() is None:
            self.worker.terminate()
            try:
                self.worker.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.worker.kill()
                self.worker.wait()
        self.fleet.stop()


def drive(port: int, stream: list[tuple[dict, str, bool]], clients: int,
          seconds: float | None, tracer: Any = None) -> tuple[list[Job], float]:
    """Closed loop: each client runs one job at a time until the stream ends
    or ``seconds`` pass. Returns the jobs and the traffic wall clock."""
    from repro.service.client import ServiceClient, ServiceError

    lock = threading.Lock()
    jobs: list[Job] = []
    t_start = time.perf_counter()

    def take() -> Job | None:
        with lock:
            if len(jobs) == len(stream):
                return None
            if seconds is not None and time.perf_counter() - t_start >= seconds:
                return None
            spec, owner, first = stream[len(jobs)]
            job = Job(len(jobs), spec, owner, first)
            jobs.append(job)
            return job

    def call(name: str, fn: Any, *args: Any) -> Any:
        if tracer is None:
            return fn(*args)
        with tracer.span(name):
            return fn(*args)

    def client(no: int) -> None:
        c = ServiceClient("127.0.0.1", port, timeout=30.0, client_id=f"perfbench-{no}")
        while (job := take()) is not None:
            t0 = time.perf_counter()
            try:
                st = call("client.submit", c.submit, job.spec)
                job.submit_s = time.perf_counter() - t0
                while st["state"] not in TERMINAL:
                    time.sleep(CLIENT_POLL)
                    st = call("client.poll", c.status, st["id"])
                job.seen_wall = time.time()
                job.status = st
                if st["state"] != "done":
                    raise ServiceError(f"job {st['id']} ended {st['state']}")
                job.result = call("client.result", c.result, st["id"])["result"]
            except ServiceError as exc:
                job.error = str(exc)
            job.latency = time.perf_counter() - t0

    threads = [threading.Thread(target=client, args=(i,)) for i in range(clients)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    return jobs, time.perf_counter() - t_start


def verify(jobs: list[Job]) -> tuple[int, list[Any]]:
    """Failed jobs (errors, a key with two results, a result unlike an
    in-process run of its spec) and the in-process results."""
    from repro import quick_run
    from repro.service.protocol import JobSpec, result_payload

    served: dict[str, set[str]] = {}
    for job in jobs:
        if job.result is not None:
            key = JobSpec.from_dict(job.spec).cache_key()
            served.setdefault(key, set()).add(json.dumps(job.result, sort_keys=True))
    expected: dict[str, str] = {}
    results = []
    for job in jobs:
        if job.first and job.result is not None:
            spec = JobSpec.from_dict(job.spec)
            res = quick_run(spec.workload, spec.policy, spec.machine, spec.sim_config())
            results.append(res)
            expected[spec.cache_key()] = json.dumps(
                json.loads(json.dumps(result_payload(res))), sort_keys=True
            )
    failed = 0
    for job in jobs:
        if job.result is None:
            failed += 1
            continue
        key = JobSpec.from_dict(job.spec).cache_key()
        if len(served[key]) != 1 or served[key] != {expected.get(key)}:
            failed += 1
    return failed, results


def _pct(values: list[float], q: float) -> float:
    from repro.utils.mathx import percentile

    return percentile(values, q) if values else 0.0


def population_rows(jobs: list[Job], wall: float) -> tuple[dict[str, float], list[tuple]]:
    """Per-population latency percentiles (ms) and throughput, with counts."""
    out = {"service.jobs_per_s": len(jobs) / wall}
    rows: list[tuple] = [("jobs_per_s", out["service.jobs_per_s"], "1/s", len(jobs))]
    for pop in ("hit", "local", "leased"):
        lat = [j.latency * 1e3 for j in jobs if j.population == pop and j.result is not None]
        for q in (50, 95):
            name = f"{pop}_p{q}_ms"
            out[f"service.{name}"] = _pct(lat, q)
            rows.append((name, out[f"service.{name}"], "ms", len(lat)))
    return out, rows


def boot_fresh(ctx: Any, name: str, template: Path, spans: Path | None) -> tuple[Deployment, float]:
    """A fleet on empty stores and caches (traces pre-filled), booted."""
    state = ctx.state / name
    state.mkdir()
    dep = Deployment(state, template, spans)
    try:
        return dep, dep.boot()
    except BaseException:
        dep.stop()
        raise


def run(ctx: Any) -> Outcome:
    """One benchmark run of service-mixed (see ``run.py`` for ``ctx``)."""
    template = ctx.state / "trace-template"
    prefill_traces(template)
    stream = list(job_stream(ctx.seed))
    clients = ctx.nproc
    if ctx.trace:
        return _traced(ctx, template, stream, clients)

    setups = []
    for rep in range(SETUP_REPS - 1):
        dep, secs = boot_fresh(ctx, f"boot{rep}", template, None)
        dep.stop()
        setups.append(secs)
    dep, secs = boot_fresh(ctx, "fleet", template, None)
    setups.append(secs)
    try:
        jobs, wall = drive(dep.router_port, stream, clients, ctx.seconds)
    finally:
        dep.stop()
    failed, results = verify(jobs)
    simulated = [j for j in jobs if j.first and j.result is not None]
    committed = sum(sum(j.result["committed"]) for j in simulated)
    metrics = {
        "setup_s": median(setups),
        "peak_rss_mb": peak_rss_mb(children=True),
        "sim_kips": committed / wall / 1e3,
        "pairs_per_s": len(simulated) / wall,
    }
    _, pop_rows = population_rows(jobs, wall)
    rows = [
        ("setup_s", metrics["setup_s"], "s", len(setups)),
        ("peak_rss_mb", metrics["peak_rss_mb"], "MB", 1),
        ("sim_kips", metrics["sim_kips"], "kinstr/s", len(simulated)),
        ("pairs_per_s", metrics["pairs_per_s"], "1/s", len(simulated)),
        *pop_rows,
    ]
    return Outcome(len(jobs), failed, metrics, rows, notes=[f"{clients} clients"])


def _forward_ms(dep: Deployment, jobs: list[Job], samples: int = 40) -> float:
    """Median GET via the router minus the same GET sent to the owning shard."""
    from repro.service.client import ServiceClient

    via = ServiceClient("127.0.0.1", dep.router_port, timeout=10.0)
    direct = {s: ServiceClient("127.0.0.1", dep.shard_port(s), timeout=10.0)
              for s in ("s0", "s1")}
    routed, plain = [], []
    for i, job in enumerate([j for j in jobs if j.status][:samples]):
        shard, _, local = job.status["id"].partition("@")
        order = [(via, job.status["id"], routed), (direct[shard], local, plain)]
        for client, jid, sink in order if i % 2 == 0 else order[::-1]:
            t0 = time.perf_counter()
            client.status(jid)
            sink.append(time.perf_counter() - t0)
    return (median(routed) - median(plain)) * 1e3 if routed else 0.0


def _hit_ratio(dep: Deployment) -> float:
    """Submissions served without execution over all submissions, both shards."""
    from repro.service.client import ServiceClient

    hits = submitted = 0
    for s in ("s0", "s1"):
        m = ServiceClient("127.0.0.1", dep.shard_port(s), timeout=10.0).metrics()
        c = m["cache"]
        hits += c["store_hits"] + c["runner_cache_hits"] + c["coalesced"]
        submitted += m["jobs"]["submitted"]
    return hits / submitted if submitted else 0.0


def _worker_metrics(path: Path) -> dict[str, float]:
    """worker.* and columnar.* metrics from the traced worker's spans."""
    by: dict[str, list[dict]] = {}
    for line in path.read_text().splitlines():
        span = json.loads(line)
        by.setdefault(span["name"], []).append(span)

    def ms(name: str) -> float:
        spans = by.get(name, [])
        return median((s["t1"] - s["t0"]) * 1e3 for s in spans) if spans else 0.0

    leases = by.get("worker.lease", [])
    sizes = [s["attrs"]["bytes"] / 1024 for s in by.get("columnar.checkpoint", []) if s["attrs"]]
    return {
        "worker.lease_ms": ms("worker.lease"),
        "worker.empty_poll_ratio": (
            sum(1 for s in leases if (s["attrs"] or {}).get("empty")) / len(leases)
            if leases else 0.0
        ),
        "worker.upload_ms": ms("worker.upload"),
        "worker.checkpoint_put_ms": ms("worker.checkpoint_put"),
        "columnar.checkpoint_ms": ms("columnar.checkpoint"),
        "columnar.checkpoint_kb": median(sizes) if sizes else 0.0,
    }


def _traced(ctx: Any, template: Path, stream: list, clients: int) -> Outcome:
    """Untraced traffic for the overhead baseline, then the same jobs traced."""
    from spans import Tracer

    dep, _ = boot_fresh(ctx, "plain", template, None)
    try:
        plain_jobs, plain_wall = drive(dep.router_port, stream, clients, ctx.seconds)
    finally:
        dep.stop()
    spans_path = ctx.state / "worker-spans.jsonl"
    tracer = Tracer()
    dep, _ = boot_fresh(ctx, "traced", template, spans_path)
    try:
        with tracer.span("bench.measure"):
            jobs, wall = drive(dep.router_port, stream[: len(plain_jobs)], clients, None, tracer)
        forward = _forward_ms(dep, jobs)
        hit_ratio = _hit_ratio(dep)
    finally:
        dep.stop()
    tracer.write(ctx.out_dir / f"service-mixed-seed{ctx.seed}-spans.jsonl")
    shutil.copy(spans_path, ctx.out_dir / f"service-mixed-seed{ctx.seed}-worker-spans.jsonl")
    failed_plain, _ = verify(plain_jobs)
    failed, results = verify(jobs)

    def interval_ms(pop: str, a: str, b: str) -> float:
        vals = [(j.status[b] - j.status[a]) * 1e3 for j in jobs
                if j.population == pop and j.status.get(a) and j.status.get(b)]
        return median(vals) if vals else 0.0

    metrics = layer_defaults()
    pop_metrics, _ = population_rows(jobs, wall)
    metrics.update(pop_metrics)
    metrics.update(_worker_metrics(spans_path))
    metrics.update(model_metrics(results))
    misses = [j for j in jobs if j.first and j.status.get("finished_at")]
    metrics.update({
        "router.forward_ms": forward,
        "server.submit_ms": median(j.submit_s * 1e3 for j in jobs if j.status),
        "server.hit_ratio": hit_ratio,
        "server.queue_wait_ms": interval_ms("local", "submitted_at", "started_at"),
        "server.exec_ms": interval_ms("local", "started_at", "finished_at"),
        "worker.lease_wait_ms": interval_ms("leased", "submitted_at", "started_at"),
        "worker.exec_ms": interval_ms("leased", "started_at", "finished_at"),
        "client.notify_ms": median(
            (j.seen_wall - j.status["finished_at"]) * 1e3 for j in misses
        ) if misses else 0.0,
        "trace.overhead_frac": (wall - plain_wall) / plain_wall,
    })
    return Outcome(len(plain_jobs) + len(jobs), failed_plain + failed, metrics, notes=[
        f"{clients} clients; untraced {len(plain_jobs)} jobs in {plain_wall:.3f}s, "
        f"traced {len(jobs)} jobs in {wall:.3f}s"
    ])
