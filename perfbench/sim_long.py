"""sim-long: the ``dwarn-sim run``/``compare`` path, one simulation at a time.

``quick_run`` runs the six paper policies over 2-MEM, 4-MIX and 8-MIX at
the default window in this process. Nearly all host time is the fused
per-cycle loop; the vec backend, both caches and the service stay idle,
which makes this the workload for hot-loop changes and the bypass case for
every other layer. A run repeats the whole pass and reports the fastest.
The simulations always use the CLI's default seed; the benchmark seed only
shuffles the order they run in, because other trace seeds change how long
a pass takes by up to 8%.
"""

from __future__ import annotations

import random
import time
from typing import Any

from metrics import Outcome, SETUP_REPS, layer_defaults, median, model_metrics, peak_rss_mb, result_digest

WORKLOADS = ("2-MEM", "4-MIX", "8-MIX")
#: Throughput comes from the fastest of at least this many whole passes
#: (the max-of-repeats discipline of docs/PERFORMANCE.md; a shared host's
#: speed can swing by tens of percent over tens of seconds).
MIN_PASSES = 2


def pairs(seed: int) -> list[tuple[str, str]]:
    """The (workload, policy) pairs of one pass, in run order."""
    from repro import PAPER_POLICIES

    order = [(wl, pol) for wl in WORKLOADS for pol in PAPER_POLICIES]
    random.Random(seed).shuffle(order)
    return order


def walk_traces(simcfg: Any) -> float:
    """Set-up: the trace walks every ``dwarn-sim run`` pays; returns seconds."""
    from repro import build_programs, get_workload
    from repro.trace import clear_trace_cache

    clear_trace_cache()
    t0 = time.perf_counter()
    for wl in WORKLOADS:
        build_programs(get_workload(wl), simcfg)
    return time.perf_counter() - t0


def one_pass(simcfg: Any, seed: int) -> list[tuple[str, Any, float]]:
    """Run every pair once; returns (pair label, result, seconds)."""
    from repro import quick_run

    out = []
    for wl, pol in pairs(seed):
        t0 = time.perf_counter()
        res = quick_run(wl, pol, simcfg=simcfg)
        out.append((f"{wl}/{pol}", res, time.perf_counter() - t0))
    return out


def check(runs: list[tuple[str, Any, float]], reference: dict[str, str]) -> int:
    """Number of results whose digest differs from the committed one."""
    return sum(1 for label, res, _ in runs if reference.get(label) != result_digest(res))


def run(ctx: Any) -> Outcome:
    """One benchmark run of sim-long (see ``run.py`` for ``ctx``)."""
    from repro import SimulationConfig

    simcfg = SimulationConfig()
    reference = ctx.reference["sim-long"]

    if ctx.trace:
        from layers import coverage, install_layers, layer_metrics
        from spans import Tracer

        tracer = Tracer()
        install_layers(tracer)
        with tracer.span("bench.setup"):
            walk_traces(simcfg)
        tracer.uninstall()
        t0 = time.perf_counter()
        plain = one_pass(simcfg, ctx.seed)
        plain_wall = time.perf_counter() - t0
        install_layers(tracer)
        t0 = time.perf_counter()
        with tracer.span("bench.measure"):
            traced = one_pass(simcfg, ctx.seed)
        traced_wall = time.perf_counter() - t0
        tracer.uninstall()
        tracer.write(ctx.out_dir / f"sim-long-seed{ctx.seed}-spans.jsonl")
        metrics = layer_defaults()
        metrics.update(layer_metrics(tracer))
        metrics.update(model_metrics(res for _, res, _ in traced))
        metrics["trace.coverage"] = coverage(tracer)
        metrics["trace.overhead_frac"] = (traced_wall - plain_wall) / plain_wall
        runs = plain + traced
        return Outcome(len(runs), check(runs, reference), metrics, notes=[
            f"untraced pass {plain_wall:.3f}s, traced pass {traced_wall:.3f}s"
        ])

    setups = [walk_traces(simcfg) for _ in range(SETUP_REPS)]
    runs: list[tuple[str, Any, float]] = []
    walls: list[float] = []
    t0 = time.perf_counter()
    while True:  # whole passes, so every run simulates the same mix
        t_pass = time.perf_counter()
        runs.extend(one_pass(simcfg, ctx.seed))
        now = time.perf_counter()
        walls.append(now - t_pass)
        if len(walls) >= MIN_PASSES and now - t0 + walls[-1] / 2 >= ctx.seconds:
            break  # another pass would overshoot by more than it fills
    best = min(walls)
    # Every pass simulates the same results, so one pass's count serves.
    committed = sum(sum(res.committed) for _, res, _ in runs[: len(runs) // len(walls)])
    metrics = {
        "setup_s": median(setups),
        "peak_rss_mb": peak_rss_mb(),
        "sim_kips": committed / best / 1e3,
        "pairs_per_s": len(runs) / len(walls) / best,
    }
    rows = [
        ("setup_s", metrics["setup_s"], "s", len(setups)),
        ("peak_rss_mb", metrics["peak_rss_mb"], "MB", 1),
        ("sim_kips", metrics["sim_kips"], "kinstr/s", len(walls)),
        ("pairs_per_s", metrics["pairs_per_s"], "1/s", len(walls)),
        ("sim_p50_s", median(secs for _, _, secs in runs), "s", len(runs)),
    ]
    notes = ["pass wall clocks: " + ", ".join(f"{w:.3f}s" for w in walls)]
    return Outcome(len(runs), check(runs, reference), metrics, rows, notes)
