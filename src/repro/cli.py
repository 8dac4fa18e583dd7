"""Command-line interface: ``dwarn-sim`` (or ``python -m repro.cli``).

Subcommands::

    dwarn-sim run 4-MIX --policy dwarn         # one simulation, summary out
    dwarn-sim compare 4-MIX                    # all six policies side by side
    dwarn-sim trace-run 4-MIX -o iv.jsonl      # instrumented run: interval metrics
    dwarn-sim explain 2-MEM --policy dwarn     # why each thread got its priority
    dwarn-sim table2a                          # one experiment by name
    dwarn-sim report -o EXPERIMENTS.md -j 8    # the full paper-vs-measured report
    dwarn-sim cache stats                      # result/trace cache footprint
    dwarn-sim cache clear                      # wipe both caches
    dwarn-sim serve --port 8177                # simulation-as-a-service daemon
    dwarn-sim worker --server URL              # distributed worker for a daemon
    dwarn-sim route --shards 4                 # sharding router over 4 daemons
    dwarn-sim loadtest --jobs 2000             # load harness -> BENCH_service.json
    dwarn-sim ingest inspect f.dwit            # validate + describe a trace file
    dwarn-sim ingest convert t.jsonl -o f.dwit # real JSONL trace -> binary format
    dwarn-sim ingest export mcf -o f.dwit      # synthetic trace -> trace file
    dwarn-sim ingest register f.dwit --name w  # make it a named workload
    dwarn-sim version                          # package + on-disk schema versions
    dwarn-sim list                             # workloads/policies/machines

The trace-cache directory resolves with CLI > environment >
default precedence: an explicit ``--trace-cache DIR`` wins, else
``$DWARN_SIM_TRACE_CACHE``, else ``.cache/traces``
(:func:`resolve_trace_cache_dir`; ``cache stats`` reports which source won).
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from pathlib import Path

from repro import (
    PAPER_POLICIES,
    POLICIES,
    PROFILES,
    SimulationConfig,
    WORKLOADS,
    quick_run,
)
from repro.config import PRESETS
from repro.experiments import ALL_EXPERIMENTS, ExperimentRunner, generate_report
from repro.metrics.reporting import format_table

__all__ = ["main", "build_parser", "resolve_trace_cache_dir"]

#: Environment override for the trace-artifact cache directory.
TRACE_CACHE_ENV = "DWARN_SIM_TRACE_CACHE"
#: Fallback trace-artifact cache directory.
DEFAULT_TRACE_CACHE = ".cache/traces"


def resolve_trace_cache_dir(cli_value: str | None) -> tuple[str, str]:
    """Resolve the trace-artifact cache directory and where it came from.

    Precedence: explicit ``--trace-cache`` > ``$DWARN_SIM_TRACE_CACHE`` >
    the default. Returns ``(directory, source)`` where ``source`` is
    ``"command line"``, ``"$DWARN_SIM_TRACE_CACHE"`` or ``"default"`` —
    ``dwarn-sim cache stats`` prints both, so the directory it reports is
    always the one the other subcommands would actually use.
    """
    if cli_value is not None:
        return cli_value, "command line"
    env = os.environ.get(TRACE_CACHE_ENV)
    if env:
        return env, f"${TRACE_CACHE_ENV}"
    return DEFAULT_TRACE_CACHE, "default"


def build_parser() -> argparse.ArgumentParser:
    """Construct the dwarn-sim argument parser (one subcommand per action)."""
    parser = argparse.ArgumentParser(
        prog="dwarn-sim",
        description="SMT fetch-policy simulator reproducing 'DCache Warn' (IPDPS 2004)",
    )
    parser.add_argument("--machine", default="baseline", choices=sorted(PRESETS))
    parser.add_argument("--seed", type=int, default=12345)
    parser.add_argument("--warmup", type=int, default=5_000, help="warm-up cycles")
    parser.add_argument("--cycles", type=int, default=40_000, help="measured cycles")
    parser.add_argument("--trace-length", type=int, default=60_000)
    sub = parser.add_subparsers(dest="command", required=True)

    # --policy deliberately has no argparse choices=: parameterized meta
    # names (meta-w512-h3) are valid too. main() validates via the policy
    # registry and prints the same valid-name list a KeyError would.
    p_run = sub.add_parser("run", help="simulate one workload under one policy")
    p_run.add_argument("workload")
    p_run.add_argument("--policy", default="dwarn")

    p_cmp = sub.add_parser("compare", help="all six paper policies on one workload")
    p_cmp.add_argument("workload")

    p_tr = sub.add_parser(
        "trace-run",
        help="one instrumented simulation: interval metrics (+ event trace)",
    )
    p_tr.add_argument("workload")
    p_tr.add_argument("--policy", default="dwarn")
    p_tr.add_argument(
        "--window", type=int, default=256,
        help="interval window in cycles (default: 256)",
    )
    p_tr.add_argument(
        "-o", "--output", default="intervals.jsonl",
        help="interval-metrics output path (.jsonl or .csv; default: intervals.jsonl)",
    )
    p_tr.add_argument(
        "--format", choices=("jsonl", "csv"), default=None,
        help="output format (default: inferred from the -o suffix)",
    )
    p_tr.add_argument(
        "--events", default=None, metavar="PATH",
        help="also record the pipeline event trace and write it as JSONL",
    )
    p_tr.add_argument(
        "--event-capacity", type=int, default=8192,
        help="event ring-buffer capacity (default: 8192; oldest events drop)",
    )

    p_ex = sub.add_parser(
        "explain", help="record why each thread got its fetch priority"
    )
    p_ex.add_argument("workload")
    p_ex.add_argument("--policy", default="dwarn")
    p_ex.add_argument(
        "--last", type=int, default=20,
        help="how many of the newest decisions to print (default: 20)",
    )
    p_ex.add_argument(
        "--capacity", type=int, default=4096,
        help="decision ring-buffer capacity (default: 4096)",
    )
    p_ex.add_argument(
        "-o", "--output", default=None, metavar="PATH",
        help="also write the retained decisions as JSONL",
    )

    for module, desc in ALL_EXPERIMENTS:
        p_exp = sub.add_parser(module.NAME, help=desc)
        p_exp.set_defaults(experiment=module)

    p_rep = sub.add_parser("report", help="run everything, write EXPERIMENTS.md")
    p_rep.add_argument("-o", "--output", default="EXPERIMENTS.md")
    p_rep.add_argument("--cache-dir", default=None)
    p_rep.add_argument(
        "-j", "--parallel", type=int, default=1,
        help="worker processes for the simulation sweeps",
    )
    p_rep.add_argument(
        "--trace-cache", default=None, metavar="DIR",
        help="persistent trace-artifact directory "
        f"(default: $DWARN_SIM_TRACE_CACHE, else {DEFAULT_TRACE_CACHE})",
    )
    p_rep.add_argument(
        "--no-trace-cache", action="store_true",
        help="regenerate every trace instead of using the artifact cache",
    )
    p_rep.add_argument(
        "--manifest", default=None, metavar="PATH",
        help="write a sweep-observability manifest (per-pair timing/retries/"
        "cache hits) as JSON",
    )
    p_rep.add_argument(
        "--backend", choices=("process", "vec"), default="process",
        help="sweep engine: process pool, or one in-process batch that "
        "shares setup across lanes (bit-identical results)",
    )

    p_cache = sub.add_parser(
        "cache", help="inspect or wipe the result/trace caches"
    )
    p_cache.add_argument("action", choices=("stats", "clear"))
    p_cache.add_argument(
        "--cache-dir", default=".cache",
        help="simulation-result cache directory (default: .cache)",
    )
    p_cache.add_argument(
        "--trace-cache", default=None, metavar="DIR",
        help="trace-artifact cache directory "
        f"(default: $DWARN_SIM_TRACE_CACHE, else {DEFAULT_TRACE_CACHE})",
    )

    p_srv = sub.add_parser(
        "serve",
        help="run the simulation service daemon (see docs/SERVICE.md)",
    )
    p_srv.add_argument("--host", default="127.0.0.1")
    p_srv.add_argument(
        "--port", type=int, default=8177,
        help="listen port (0 = ephemeral; pair with --port-file)",
    )
    p_srv.add_argument(
        "--port-file", default=None, metavar="PATH",
        help="write the bound port here once listening (for scripts/CI)",
    )
    p_srv.add_argument(
        "--queue-capacity", type=int, default=64,
        help="max queued jobs before 429 backpressure (default: 64)",
    )
    p_srv.add_argument(
        "--store", default=".cache/service/results.jsonl", metavar="PATH",
        help="JSONL result store ('' disables persistence)",
    )
    p_srv.add_argument(
        "--ttl", type=float, default=None, metavar="SECS",
        help="evict stored results older than this (default: keep forever)",
    )
    p_srv.add_argument(
        "--cache-dir", default=".cache",
        help="simulation-result cache shared with report/prefetch",
    )
    p_srv.add_argument(
        "--trace-cache", default=None, metavar="DIR",
        help="persistent trace-artifact directory "
        f"(default: $DWARN_SIM_TRACE_CACHE, else {DEFAULT_TRACE_CACHE})",
    )
    p_srv.add_argument(
        "--lease-ttl", type=float, default=15.0, metavar="SECS",
        help="heartbeat deadline per worker lease (default: 15)",
    )
    p_srv.add_argument(
        "--max-redeliveries", type=int, default=2,
        help="lease expiries before a job is dead-lettered (default: 2)",
    )
    p_srv.add_argument(
        "--worker-grace", type=float, default=5.0, metavar="SECS",
        help="defer local execution while a worker was seen this recently",
    )

    p_wrk = sub.add_parser(
        "worker",
        help="run a distributed worker against a service daemon",
    )
    p_wrk.add_argument(
        "--server", default="http://127.0.0.1:8177", metavar="URL",
        help="daemon address (default: http://127.0.0.1:8177)",
    )
    p_wrk.add_argument(
        "--capacity", type=int, default=4, metavar="N",
        help="jobs requested per lease (default: 4)",
    )
    p_wrk.add_argument(
        "--poll-interval", type=float, default=0.5, metavar="SECS",
        help="longest the daemon holds one lease request waiting for "
        "work, at most 5 (default: 0.5)",
    )
    p_wrk.add_argument(
        "--trace-cache", default=None, metavar="DIR",
        help="persistent trace-artifact directory "
        f"(default: $DWARN_SIM_TRACE_CACHE, else {DEFAULT_TRACE_CACHE})",
    )
    p_wrk.add_argument(
        "--worker-id", default=None, metavar="NAME",
        help="stable worker name (default: hostname-pid)",
    )
    p_wrk.add_argument(
        "--checkpoint-interval", type=int, default=0, metavar="CYCLES",
        help="capture and upload a resume checkpoint every N simulated "
        "cycles (0 = disabled, the default)",
    )
    p_wrk.add_argument(
        "--max-leases", type=int, default=None, metavar="N",
        help="exit after executing N leases (default: run forever)",
    )

    p_rt = sub.add_parser(
        "route",
        help="run the sharding router over N service daemons (docs/SCALING.md)",
    )
    p_rt.add_argument("--host", default="127.0.0.1")
    p_rt.add_argument(
        "--port", type=int, default=8178,
        help="listen port (0 = ephemeral; pair with --port-file)",
    )
    p_rt.add_argument(
        "--port-file", default=None, metavar="PATH",
        help="write the bound port here once listening (for scripts/CI)",
    )
    p_rt.add_argument(
        "--shards", type=int, default=2, metavar="N",
        help="boot and supervise N shard daemons (default: 2)",
    )
    p_rt.add_argument(
        "--shard", action="append", default=None, metavar="HOST:PORT",
        help="front an externally managed shard (repeatable; overrides --shards)",
    )
    p_rt.add_argument(
        "--state-dir", default=".cache/router", metavar="DIR",
        help="state root for supervised shards (per-shard stores/caches)",
    )
    p_rt.add_argument(
        "--rate", type=float, default=0.0, metavar="TOKENS/S",
        help="per-client admission rate (0 = unlimited, the default)",
    )
    p_rt.add_argument(
        "--burst", type=float, default=30.0,
        help="per-client token-bucket capacity (default: 30)",
    )
    p_rt.add_argument(
        "--cooldown", type=float, default=2.0, metavar="SECS",
        help="how long a dead shard's key range answers 503 (default: 2)",
    )
    p_rt.add_argument(
        "--queue-capacity", type=int, default=64,
        help="queue capacity per supervised shard (default: 64)",
    )
    p_rt.add_argument(
        "--lease-ttl", type=float, default=15.0, metavar="SECS",
        help="heartbeat deadline per worker lease on supervised shards",
    )

    p_lt = sub.add_parser(
        "loadtest",
        help="drive concurrent clients through a sharded router; "
        "emit BENCH_service.json (docs/SCALING.md)",
    )
    p_lt.add_argument(
        "--router", default=None, metavar="URL",
        help="existing router address (default: boot shards + router locally)",
    )
    p_lt.add_argument(
        "--shards", type=int, default=2, metavar="N",
        help="shards to boot when no --router is given (default: 2)",
    )
    p_lt.add_argument(
        "--clients", type=int, default=32, metavar="N",
        help="concurrent submitting clients (default: 32)",
    )
    p_lt.add_argument(
        "--stream-clients", type=int, default=2, metavar="N",
        help="of those, clients using /v1/stream sweeps (default: 2)",
    )
    p_lt.add_argument(
        "--jobs", type=int, default=1000, metavar="N",
        help="total job submissions across all clients (default: 1000)",
    )
    p_lt.add_argument(
        "--unique", type=int, default=24, metavar="N",
        help="unique spec pool size (mixed-duplicate traffic; default: 24)",
    )
    p_lt.add_argument(
        "--queue-capacity", type=int, default=256,
        help="queue capacity per booted shard (default: 256)",
    )
    p_lt.add_argument(
        "--rolling-restart", action="store_true",
        help="SIGTERM + relaunch each shard in sequence mid-run",
    )
    p_lt.add_argument(
        "--warmup", type=int, default=200, metavar="CYCLES",
        help="warmup cycles per job (default: 200 — load-test scale)",
    )
    p_lt.add_argument(
        "--cycles", type=int, default=1200, metavar="CYCLES",
        help="measured cycles per job (default: 1200 — load-test scale)",
    )
    p_lt.add_argument(
        "--trace-length", type=int, default=6000,
        help="instructions per generated trace (default: 6000)",
    )
    p_lt.add_argument(
        "--out", default="BENCH_service.json", metavar="PATH",
        help="benchmark report path (default: BENCH_service.json)",
    )
    p_lt.add_argument(
        "--state-dir", default=None, metavar="DIR",
        help="state root for booted shards (default: a temp dir)",
    )
    p_lt.add_argument(
        "--min-jobs-per-min", type=float, default=None, metavar="N",
        help="exit non-zero unless sustained throughput reaches N jobs/min",
    )
    p_lt.add_argument(
        "--seed", type=int, default=0, help="traffic-shape RNG seed",
    )

    p_ing = sub.add_parser(
        "ingest",
        help="convert/inspect/register real-trace files (docs/TRACES.md)",
    )
    ing_sub = p_ing.add_subparsers(dest="ingest_action", required=True)
    i_exp = ing_sub.add_parser(
        "export",
        help="write a benchmark's synthetic trace as a portable trace file",
    )
    i_exp.add_argument("benchmark", help="a profile name, e.g. mcf")
    i_exp.add_argument("-o", "--output", required=True, metavar="FILE.dwit")
    i_exp.add_argument(
        "--name", default=None,
        help="workload name recorded in the header (default: the benchmark)",
    )
    i_cnv = ing_sub.add_parser(
        "convert", help="convert a JSONL instruction trace to the binary format"
    )
    i_cnv.add_argument("source", help="JSONL input (one record per line)")
    i_cnv.add_argument("-o", "--output", required=True, metavar="FILE.dwit")
    i_cnv.add_argument("--name", required=True, help="workload name to record")
    i_cnv.add_argument(
        "--profile", default="gzip",
        help="benchmark profile supplying wrong-path/code statistics "
        "(default: gzip)",
    )
    i_ins = ing_sub.add_parser(
        "inspect", help="validate a trace file and print its header"
    )
    i_ins.add_argument("source", help="trace file to inspect")
    i_reg = ing_sub.add_parser(
        "register",
        help="install a trace file into the ingest directory as a named "
        "workload usable anywhere a benchmark name is",
    )
    i_reg.add_argument("source", help="trace file to register")
    i_reg.add_argument(
        "--name", default=None,
        help="workload name (default: the name recorded in the header)",
    )
    for p in (i_exp, i_cnv, i_ins, i_reg):
        p.add_argument(
            "--ingest-dir", default=None, metavar="DIR",
            help="ingested-workload directory "
            "(default: $DWARN_SIM_INGEST_DIR, else .cache/ingested)",
        )

    sub.add_parser(
        "version", help="package version plus on-disk/wire schema versions"
    )
    sub.add_parser("list", help="available workloads, policies and machines")
    return parser


def _simcfg(args: argparse.Namespace) -> SimulationConfig:
    return SimulationConfig(
        warmup_cycles=args.warmup,
        measure_cycles=args.cycles,
        trace_length=args.trace_length,
        seed=args.seed,
    )


def _cache_command(args: argparse.Namespace) -> int:
    """``dwarn-sim cache stats|clear``: the two on-disk sweep caches (JSON
    simulation results + trace files) without spelunking."""
    from repro.trace import TraceArtifactCache
    from repro.trace.ingest import ingest_stats

    result_dir = Path(args.cache_dir)
    trace_dir, trace_src = resolve_trace_cache_dir(args.trace_cache)
    trace_cache = TraceArtifactCache(trace_dir)
    result_files = sorted(result_dir.glob("*.json")) if result_dir.is_dir() else []

    if args.action == "stats":
        ts = trace_cache.stats()
        ing = ingest_stats()
        rows = [
            [
                "results",
                str(result_dir),
                len(result_files),
                sum(f.stat().st_size for f in result_files),
            ],
            ["traces", ts["directory"], ts["entries"], ts["total_bytes"]],
            # Ingested traces are *inputs*, not cache entries — counted
            # separately so `cache clear` obviously does not touch them.
            ["ingested", ing["directory"], ing["entries"], ing["total_bytes"]],
        ]
        print(format_table(["cache", "directory", "entries", "bytes"],
                           rows, title="dwarn-sim caches"))
        print(f"  trace-cache directory from {trace_src}")
        return 0

    removed_traces = trace_cache.clear()
    for f in result_files:
        f.unlink(missing_ok=True)
    print(f"removed {len(result_files)} cached results, {removed_traces} trace artifacts")
    return 0


def _trace_run_command(args: argparse.Namespace, simcfg: SimulationConfig) -> int:
    """``dwarn-sim trace-run``: one instrumented simulation.

    Writes interval metrics (JSONL or CSV), optionally the pipeline event
    trace, and exits nonzero if the per-interval counters fail to reconcile
    exactly with the final result totals.
    """
    from repro.obs import ObservabilityHub, reconcile, write_csv, write_jsonl

    runner = ExperimentRunner(args.machine, simcfg)
    hub = ObservabilityHub(
        window=args.window,
        trace=args.events is not None,
        trace_capacity=args.event_capacity,
    )
    res = runner.run_instrumented(args.workload, args.policy, hub)
    records = hub.interval.records
    fmt = args.format or ("csv" if args.output.endswith(".csv") else "jsonl")
    writer = write_csv if fmt == "csv" else write_jsonl
    path = writer(records, args.output)
    measured = hub.interval.measured_records()
    print(
        f"wrote {len(records)} intervals ({len(measured)} in the measurement "
        f"window, window={args.window} cycles) to {path}"
    )
    if args.events is not None:
        tracer = hub.tracer
        epath = tracer.to_jsonl(args.events)
        print(
            f"wrote {len(tracer.events)} events to {epath} "
            f"({tracer.dropped} dropped, ring capacity {tracer.capacity})"
        )
    problems = reconcile(records, res)
    if problems:
        print("reconciliation FAILED:")
        for p in problems:
            print(f"  {p}")
        return 1
    print(
        f"reconciliation OK: intervals sum exactly to result totals "
        f"(throughput {res.throughput:.3f})"
    )
    return 0


def _explain_command(args: argparse.Namespace, simcfg: SimulationConfig) -> int:
    """``dwarn-sim explain``: record and print fetch-priority decisions."""
    from repro.obs import ObservabilityHub

    runner = ExperimentRunner(args.machine, simcfg)
    hub = ObservabilityHub(
        explain=True, explain_capacity=args.capacity
    )
    res = runner.run_instrumented(args.workload, args.policy, hub)
    rec = hub.explain
    print(
        f"{args.workload} under {args.policy}: {rec.recorded} fetch decisions "
        f"recorded ({len(rec.decisions)} retained); newest {args.last}:"
    )
    print(rec.render(last=args.last))
    print(f"final throughput {res.throughput:.3f} (IPC: "
          + ", ".join(f"{x:.3f}" for x in res.ipc) + ")")
    if args.output is not None:
        path = rec.to_jsonl(args.output)
        print(f"wrote {len(rec.decisions)} decisions to {path}")
    return 0


def _check_policy(name: str) -> int | None:
    """Validate a --policy value (no argparse choices: parameterized meta
    names are legal); prints the registry's own error and returns an exit
    code on failure, None when valid."""
    from repro.core import make_policy

    try:
        make_policy(name)
    except KeyError as exc:
        print(f"error: {exc.args[0]}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return None


def _ingest_command(args: argparse.Namespace, simcfg: SimulationConfig) -> int:
    """``dwarn-sim ingest``: the real-trace on-ramp (docs/TRACES.md).

    ``export`` writes a benchmark's synthetic trace as a portable file (the
    CI fixture path), ``convert`` turns a JSONL instruction trace into the
    binary format, ``inspect`` validates and describes a file, ``register``
    installs one as a named workload every subcommand and the service then
    accept wherever a benchmark name is accepted.
    """
    from repro.trace import ingest

    if args.ingest_dir is not None:
        # Inherited by worker processes, so a registered name resolves
        # identically across a process pool or a worker fleet.
        os.environ[ingest.INGEST_DIR_ENV] = args.ingest_dir

    try:
        if args.ingest_action == "export":
            from repro.trace import generate_trace, get_profile

            profile = get_profile(args.benchmark)
            trace = generate_trace(
                profile, simcfg.trace_length, 0, simcfg.seed, 0
            )
            path = ingest.export_trace(
                trace, args.output, name=args.name or args.benchmark
            )
            header = ingest.read_header(path)
            print(
                f"exported {args.benchmark} ({header.records} records, "
                f"seed {simcfg.seed}) to {path}"
            )
            return 0

        if args.ingest_action == "convert":
            src = Path(args.source)
            with open(src, "r", encoding="utf-8") as fh:
                path = ingest.convert_jsonl(
                    fh, args.output, name=args.name, profile=args.profile
                )
            header = ingest.read_header(path)
            print(
                f"converted {src} -> {path} ({header.records} records, "
                f"profile {header.profile}, raw addresses)"
            )
            return 0

        if args.ingest_action == "inspect":
            tf = ingest.read_trace_file(args.source)
            h = tf.header
            loads = sum(1 for op in tf.arrays["op"] if op == 2)
            branches = sum(1 for op in tf.arrays["op"] if op == 4)
            print(f"{args.source}: valid trace file (v{h.version})")
            print(f"  name:         {h.name}")
            print(f"  profile:      {h.profile}")
            print(f"  address mode: {h.address_mode} (base {h.base:#x})")
            print(f"  records:      {h.records}")
            print(f"  loads:        {loads}  branches: {branches}")
            print(f"  payload:      {h.payload_bytes} bytes, crc32 {h.crc32:#010x}")
            return 0

        # register
        header = ingest.read_header(args.source)
        name = args.name or header.name
        if name in WORKLOADS or name in PROFILES:
            print(
                f"error: {name!r} is already a built-in workload/benchmark "
                "name; pick another with --name",
                file=sys.stderr,
            )
            return 2
        dest = ingest.ingest_dir() / f"{name}{ingest.INGEST_SUFFIX}"
        dest.parent.mkdir(parents=True, exist_ok=True)
        if Path(args.source).resolve() != dest.resolve():
            dest.write_bytes(Path(args.source).read_bytes())
        ingest.read_trace_file(dest)  # full validation of what we installed
        print(
            f"registered workload {name!r} -> {dest} "
            f"({header.records} records); try: dwarn-sim run {name} --policy meta"
        )
        return 0
    except ingest.IngestError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def _version_command() -> int:
    """``dwarn-sim version``: every version a deployment may need to match.

    The schema versions were previously only discoverable by reading
    source; operators comparing two hosts' caches (or debugging a service
    that ignores another host's artifacts) need them printable.
    """
    import repro
    from repro.core.columnar import CHECKPOINT_VERSION, SNAPSHOT_VERSION
    from repro.core.policies.meta import META_POLICY_VERSION
    from repro.experiments.runner import CACHE_VERSION
    from repro.service.protocol import PROTOCOL_VERSION
    from repro.service.router import ROUTER_VERSION
    from repro.service.store import STORE_VERSION
    from repro.trace.artifact import ARTIFACT_VERSION
    from repro.trace.ingest import ingest_schema_info

    ing = ingest_schema_info()
    print(f"dwarn-sim {repro.__version__}")
    print(
        f"  trace-artifact schema: v{ARTIFACT_VERSION} "
        f"(canonical-mode {ing['magic']} files)"
    )
    print(
        f"  trace-ingest schema:   v{ing['version']} "
        f"(magic {ing['magic']}, {ing['record_bytes']} bytes/record, "
        f"{'/'.join(ing['address_modes'])} addresses)"
    )
    print(f"  meta-policy protocol:  v{META_POLICY_VERSION}")
    print(f"  result-cache schema:   v{CACHE_VERSION}")
    print(f"  service protocol:      v{PROTOCOL_VERSION}")
    print(f"  router schema:         v{ROUTER_VERSION}")
    print(f"  result-store schema:   v{STORE_VERSION}")
    print(f"  snapshot codec:        v{SNAPSHOT_VERSION}")
    print(f"  checkpoint envelope:   v{CHECKPOINT_VERSION}")
    return 0


def _serve_command(args: argparse.Namespace) -> int:
    """``dwarn-sim serve``: run the simulation service daemon (blocking)."""
    from repro.service.server import ServiceConfig, run_service

    trace_dir, _ = resolve_trace_cache_dir(args.trace_cache)
    cfg = ServiceConfig(
        host=args.host,
        port=args.port,
        queue_capacity=args.queue_capacity,
        ttl=args.ttl,
        store_path=args.store or None,
        cache_dir=args.cache_dir or None,
        trace_cache_dir=trace_dir,
        port_file=args.port_file,
        lease_ttl=args.lease_ttl,
        max_redeliveries=args.max_redeliveries,
        worker_grace=args.worker_grace,
    )
    return run_service(cfg)


def _worker_command(args: argparse.Namespace) -> int:
    """``dwarn-sim worker``: lease and execute jobs for a daemon (blocking)."""
    from repro.service.worker import WorkerConfig, parse_server, run_worker

    host, port = parse_server(args.server)
    trace_dir, _ = resolve_trace_cache_dir(args.trace_cache)
    cfg = WorkerConfig(
        host=host,
        port=port,
        worker_id=args.worker_id or "",
        capacity=args.capacity,
        poll_interval=args.poll_interval,
        trace_cache_dir=trace_dir,
        checkpoint_interval=args.checkpoint_interval,
        max_leases=args.max_leases,
    )
    return run_worker(cfg)


def _route_command(args: argparse.Namespace) -> int:
    """``dwarn-sim route``: run the sharding router (blocking)."""
    from repro.service.router import RouterConfig, run_router

    shard_args = [
        "--queue-capacity", str(args.queue_capacity),
        "--lease-ttl", str(args.lease_ttl),
    ]
    cfg = RouterConfig(
        host=args.host,
        port=args.port,
        port_file=args.port_file,
        shard_urls=list(args.shard or []),
        shards=args.shards,
        state_dir=args.state_dir,
        rate=args.rate,
        burst=args.burst,
        cooldown=args.cooldown,
        shard_args=shard_args,
    )
    return run_router(cfg)


def _loadtest_command(args: argparse.Namespace) -> int:
    """``dwarn-sim loadtest``: replay harness over a sharded router."""
    from repro.service.loadtest import LoadTestConfig, run_loadtest

    cfg = LoadTestConfig(
        router_url=args.router,
        shards=args.shards,
        clients=args.clients,
        stream_clients=args.stream_clients,
        jobs=args.jobs,
        unique=args.unique,
        queue_capacity=args.queue_capacity,
        rolling_restart=args.rolling_restart,
        warmup_cycles=args.warmup,
        measure_cycles=args.cycles,
        trace_length=args.trace_length,
        out=args.out,
        state_dir=args.state_dir,
        min_jobs_per_min=args.min_jobs_per_min,
        seed=args.seed,
    )
    return run_loadtest(cfg)


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns a process exit code."""
    args = build_parser().parse_args(argv)

    if args.command == "version":
        return _version_command()

    if args.command == "serve":
        return _serve_command(args)

    if args.command == "worker":
        return _worker_command(args)

    if args.command == "route":
        return _route_command(args)

    if args.command == "loadtest":
        return _loadtest_command(args)

    simcfg = _simcfg(args)

    if args.command == "list":
        from repro.trace import ingested_workloads

        print("workloads:", ", ".join(sorted(WORKLOADS)))
        print("benchmarks:", ", ".join(sorted(PROFILES)))
        print("policies:", ", ".join(sorted(POLICIES)),
              "(+ parameterized meta-w<interval>-h<hysteresis>)")
        print("machines:", ", ".join(sorted(PRESETS)))
        rows = ingested_workloads()
        if rows:
            print("ingested workloads:")
            for row in rows:
                if "error" in row:
                    print(f"  {row['name']}: INVALID — {row['error']}")
                else:
                    print(
                        f"  {row['name']}: {row['records']} instrs "
                        f"({row['address_mode']}, profile {row['profile']}) "
                        f"from {row['path']}"
                    )
        else:
            print("ingested workloads: none (see `dwarn-sim ingest register`)")
        return 0

    if args.command == "ingest":
        return _ingest_command(args, simcfg)

    if args.command in ("run", "trace-run", "explain"):
        err = _check_policy(args.policy)
        if err is not None:
            return err

    if args.command == "run":
        res = quick_run(args.workload, args.policy, args.machine, simcfg)
        print(res.summary())
        return 0

    if args.command == "trace-run":
        return _trace_run_command(args, simcfg)

    if args.command == "explain":
        return _explain_command(args, simcfg)

    if args.command == "compare":
        rows = []
        for pol in PAPER_POLICIES:
            res = quick_run(args.workload, pol, args.machine, simcfg)
            rows.append(
                [pol, round(res.throughput, 3)]
                + [round(x, 3) for x in res.ipc]
            )
        res0 = quick_run(args.workload, PAPER_POLICIES[0], args.machine, simcfg)
        headers = ["policy", "throughput"] + list(res0.benchmarks)
        print(format_table(headers, rows, title=f"{args.workload} on {args.machine}"))
        return 0

    if args.command == "report":
        trace_dir, _ = resolve_trace_cache_dir(args.trace_cache)
        runner = ExperimentRunner(
            args.machine,
            simcfg,
            cache_dir=args.cache_dir,
            verbose=True,
            trace_cache_dir=None if args.no_trace_cache else trace_dir,
        )
        manifest = None
        if args.manifest is not None:
            from repro.obs import RunManifest

            manifest = RunManifest(label="report")
        if args.parallel > 1 or args.backend == "vec":
            from repro.experiments import (
                ext_seeds,
                prefetch,
                prefetch_seed_sweep,
                sweep_pairs,
            )

            # with_machine shares the runner's caches, so prefetched results
            # are visible to every experiment module.
            for machine in ("baseline", "small", "deep"):
                sub_runner = runner.with_machine(machine)

                def progress(done, total, wl, pol, secs, _m=machine):
                    print(f"[sweep {_m}] {done}/{total} {wl}/{pol} ({secs:.1f}s)", flush=True)

                t0 = time.perf_counter()
                n = prefetch(
                    sub_runner,
                    sweep_pairs(sub_runner, PAPER_POLICIES),
                    args.parallel,
                    progress=progress,
                    manifest=manifest,
                    sweep=machine,
                    backend=args.backend,
                )
                print(
                    f"[prefetch] {machine}: {n} simulations "
                    f"in {time.perf_counter() - t0:.1f}s",
                    flush=True,
                )

            # The seed-robustness extension re-runs its pairs once per trace
            # seed; without this it is the report's largest serial tail.
            def seed_progress(done, total, wl, pol, secs):
                print(f"[sweep seeds] {done}/{total} {wl}/{pol} ({secs:.1f}s)", flush=True)

            t0 = time.perf_counter()
            n = prefetch_seed_sweep(
                runner,
                [(wl, pol) for wl in ext_seeds.WORKLOADS for pol in ext_seeds.POLICIES],
                ext_seeds.SEEDS,
                args.parallel,
                progress=seed_progress,
                manifest=manifest,
                backend=args.backend,
            )
            print(
                f"[prefetch] seed sweep: {n} simulations "
                f"in {time.perf_counter() - t0:.1f}s",
                flush=True,
            )
        path = generate_report(args.output, runner)
        if runner.trace_cache is not None:
            s = runner.trace_cache.stats()
            pool = args.parallel > 1 and args.backend == "process"
            print(
                f"[trace-cache] {s['entries']} artifacts "
                f"({s['total_bytes'] / 1e6:.1f} MB), "
                f"{s['disk_hits']} loads, {s['stores']} stores this run"
                + (" (pool workers' loads and stores not counted)" if pool else "")
            )
        if manifest is not None:
            manifest.extras["report"] = str(path)
            mpath = manifest.write_json(args.manifest)
            print(manifest.render())
            print(f"wrote {mpath}")
        print(f"wrote {path}")
        return 0

    if args.command == "cache":
        return _cache_command(args)

    # Named experiment.
    runner = ExperimentRunner(args.machine, simcfg, verbose=True)
    result = args.experiment.run(runner)
    print(result.to_text())
    return 0 if result.all_checks_pass else 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
