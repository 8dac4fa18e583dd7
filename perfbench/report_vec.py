"""report-vec: ``dwarn-sim report --backend vec`` at a reduced window.

The three machine sweeps and the seed sweep are prefetched as vec batches
into a cold result cache, then ``run_all`` runs every experiment's analysis
and shape checks. Many short lanes make per-run setup (artifact load,
program build, warm-hierarchy cloning) and idle skipping matter here, and
traces are loaded from the artifact cache rather than walked. The paper's
shape checks are this workload's accuracy output. A run repeats the whole
pass (each with a cold result cache) and reports the fastest. The inputs
do not depend on the benchmark seed: the report is one fixed computation
at the CLI's default seed, its shape checks pinned by reference.json.
Other trace seeds changed how long a pass takes by up to 8%, and
reordering the machine sweeps moved peak memory by 40%.
"""

from __future__ import annotations

import dataclasses
import time
from pathlib import Path
from typing import Any

from metrics import Outcome, SETUP_REPS, layer_defaults, median, model_metrics, peak_rss_mb, result_digest

#: The reduced window (the load-test job size): small enough for several
#: passes to fit one run.
WARMUP, CYCLES, TRACE_LENGTH = 200, 1200, 6000
#: Throughput comes from the fastest of at least this many passes: a
#: shared host's speed can swing by tens of percent over tens of seconds,
#: and the fastest of repeats is the steadiest estimate (the
#: max-of-repeats discipline of docs/PERFORMANCE.md).
MIN_PASSES = 3
MACHINES = ("baseline", "small", "deep")


def sim_config() -> Any:
    """The report's simulation config (the CLI's default seed)."""
    from repro import SimulationConfig

    return SimulationConfig(warmup_cycles=WARMUP, measure_cycles=CYCLES, trace_length=TRACE_LENGTH)


def _seed_sweep_pairs() -> list[tuple[str, str]]:
    from repro.experiments import ext_seeds

    return [(wl, pol) for wl in ext_seeds.WORKLOADS for pol in ext_seeds.POLICIES]


def fill_trace_cache(simcfg: Any, trace_dir: Path) -> float:
    """Set-up: walk and store every trace the sweeps load; returns seconds."""
    from repro.experiments import ExperimentRunner, ext_seeds, sweep_pairs
    from repro.trace import TraceArtifactCache, clear_trace_cache
    from repro.workloads import build_programs, build_single, get_workload

    needed: dict[tuple[str, int], None] = {}
    runner = ExperimentRunner("baseline", simcfg)
    for machine in MACHINES:
        for wl, _ in sweep_pairs(runner.with_machine(machine), ("icount",)):
            needed[(wl, simcfg.seed)] = None
    for seed in ext_seeds.SEEDS:
        for wl, _ in _seed_sweep_pairs():
            needed[(wl, seed)] = None

    clear_trace_cache()
    cache = TraceArtifactCache(trace_dir)
    t0 = time.perf_counter()
    for wl, seed in needed:
        cfg = dataclasses.replace(simcfg, seed=seed)
        try:
            build_programs(get_workload(wl), cfg, trace_cache=cache)
        except KeyError:
            build_single(wl, cfg, trace_cache=cache)
    return time.perf_counter() - t0


def report_pass(simcfg: Any, trace_dir: Path) -> tuple[Any, list[Any], float]:
    """One cold-result-cache report; returns (runner, experiment results, wall)."""
    from repro import PAPER_POLICIES
    from repro.experiments import (
        ExperimentRunner,
        ext_seeds,
        prefetch,
        prefetch_seed_sweep,
        report,
        sweep_pairs,
    )
    from repro.trace import clear_trace_cache

    clear_trace_cache()
    runner = ExperimentRunner("baseline", simcfg, trace_cache_dir=trace_dir)
    t0 = time.perf_counter()
    # The same sequence as `dwarn-sim report --backend vec` (cli.py), minus
    # the markdown file.
    for machine in MACHINES:
        sub = runner.with_machine(machine)
        prefetch(sub, sweep_pairs(sub, PAPER_POLICIES), 1, backend="vec")
    prefetch_seed_sweep(runner, _seed_sweep_pairs(), ext_seeds.SEEDS, 1, backend="vec")
    results = report.run_all(runner, verbose=False)
    return runner, results, time.perf_counter() - t0


def checks_passed(results: list[Any]) -> int:
    """How many of the paper's shape checks passed."""
    return sum(sum(r.checks.values()) for r in results)


def digests(runner: Any) -> dict[str, str]:
    """Result-cache key -> digest, for every result the report produced."""
    # The runner's memory cache is the only place that lists every result,
    # including the ones run_all simulated itself (prefetch reads it too).
    return {key: result_digest(res) for key, res in runner._mem_cache.items()}


def check(runner: Any, results: list[Any], reference: dict[str, Any]) -> tuple[int, int]:
    """(operations attempted, failed): one per result, one for the checks."""
    got = digests(runner)
    failed = sum(1 for key, d in got.items() if reference["results"].get(key) != d)
    failed += len(set(reference["results"]) - set(got))
    failed += checks_passed(results) != reference["paper_checks_pass"]
    return len(got) + 1, failed


def run(ctx: Any) -> Outcome:
    """One benchmark run of report-vec (see ``run.py`` for ``ctx``)."""
    simcfg = sim_config()
    reference = ctx.reference["report-vec"]

    if ctx.trace:
        from layers import coverage, install_layers, layer_metrics
        from spans import Tracer

        tracer = Tracer()
        trace_dir = ctx.state / "traces"
        install_layers(tracer)
        with tracer.span("bench.setup"):
            fill_trace_cache(simcfg, trace_dir)
        tracer.uninstall()
        runner, results, plain_wall = report_pass(simcfg, trace_dir)
        attempted, failed = check(runner, results, reference)
        del runner
        install_layers(tracer)
        t0 = time.perf_counter()
        with tracer.span("bench.measure"):
            runner, results, _ = report_pass(simcfg, trace_dir)
        traced_wall = time.perf_counter() - t0
        tracer.uninstall()
        tracer.write(ctx.out_dir / f"report-vec-seed{ctx.seed}-spans.jsonl")
        more_attempted, more_failed = check(runner, results, reference)
        metrics = layer_defaults()
        metrics.update(layer_metrics(tracer))
        metrics.update(model_metrics(runner._mem_cache.values()))
        metrics["accuracy.paper_checks_pass"] = float(checks_passed(results))
        metrics["trace.coverage"] = coverage(tracer)
        metrics["trace.overhead_frac"] = (traced_wall - plain_wall) / plain_wall
        return Outcome(attempted + more_attempted, failed + more_failed, metrics, notes=[
            f"untraced pass {plain_wall:.3f}s, traced pass {traced_wall:.3f}s"
        ])

    setups = []
    for rep in range(SETUP_REPS):
        trace_dir = ctx.state / f"traces{rep}"
        setups.append(fill_trace_cache(simcfg, trace_dir))
    attempted = failed = 0
    walls: list[float] = []
    t0 = time.perf_counter()
    while True:  # whole report passes, each with a cold result cache
        runner, results, wall = report_pass(simcfg, trace_dir)
        walls.append(wall)
        a, f = check(runner, results, reference)
        attempted += a
        failed += f
        # Every pass simulates the same results, so these are per pass.
        sims = len(runner._mem_cache)
        committed = sum(sum(res.committed) for res in runner._mem_cache.values())
        paper = checks_passed(results)
        del runner, results
        elapsed = time.perf_counter() - t0
        if len(walls) >= MIN_PASSES and elapsed + wall / 2 >= ctx.seconds:
            break  # another pass would overshoot by more than it fills
    best = min(walls)
    metrics = {
        "setup_s": median(setups),
        "peak_rss_mb": peak_rss_mb(),
        "sim_kips": committed / best / 1e3,
        "pairs_per_s": sims / best,
    }
    rows = [
        ("setup_s", metrics["setup_s"], "s", len(setups)),
        ("peak_rss_mb", metrics["peak_rss_mb"], "MB", 1),
        ("sim_kips", metrics["sim_kips"], "kinstr/s", len(walls)),
        ("pairs_per_s", metrics["pairs_per_s"], "1/s", len(walls)),
        ("paper_checks_pass", float(paper), "count", len(walls)),
    ]
    notes = ["pass wall clocks: " + ", ".join(f"{w:.3f}s" for w in walls)]
    return Outcome(attempted, failed, metrics, rows, notes)
