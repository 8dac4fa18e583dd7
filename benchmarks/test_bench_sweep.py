"""Engineering benchmarks for the sweep execution engine.

Tracks the two quantities PR 2 optimizes: trace *load* versus *generate*
cost (the artifact cache's reason to exist), and end-to-end multi-pair sweep
wall-clock through ``run_pairs`` with a warm trace cache — the path
``dwarn-sim report -j N`` takes.
"""

from __future__ import annotations

import pytest

from repro.config import SimulationConfig, baseline
from repro.experiments.parallel import run_pairs
from repro.trace import (
    SyntheticTrace,
    TraceArtifactCache,
    clear_trace_cache,
    get_profile,
)

TRACE_LENGTH = 60_000

SWEEP_SIMCFG = SimulationConfig(
    warmup_cycles=200, measure_cycles=2_000, trace_length=8_000, seed=777
)
SWEEP_PAIRS = [
    ("4-MIX", "dwarn"),
    ("4-MIX", "icount"),
    ("2-MEM", "dwarn"),
    ("2-ILP", "icount"),
    ("gzip", "icount"),
    ("mcf", "icount"),
]


def test_bench_trace_artifact_load(benchmark, tmp_path):
    """Loading a persisted trace must be several times cheaper than
    regenerating it — that multiple is the artifact cache's entire value."""
    profile = get_profile("gcc")
    trace = SyntheticTrace(profile, TRACE_LENGTH, 0, 123, 0)
    cache = TraceArtifactCache(tmp_path)
    cache.store(trace)

    loaded = benchmark.pedantic(
        lambda: cache.load(profile, TRACE_LENGTH, 0, 123, 0), rounds=5, iterations=1
    )
    assert loaded is not None and len(loaded) == TRACE_LENGTH
    assert loaded.cols == trace.cols


@pytest.mark.parametrize("processes", [1, 2])
def test_bench_sweep_wall_clock(benchmark, tmp_path, processes):
    """End-to-end run_pairs over a small policy-diverse sweep, warm trace
    cache (steady state of a repeat ``dwarn-sim report -j N``)."""
    clear_trace_cache()
    trace_dir = str(tmp_path / f"traces-j{processes}")

    def sweep():
        return run_pairs(
            baseline(), SWEEP_SIMCFG, SWEEP_PAIRS, processes, trace_cache_dir=trace_dir
        )

    out = benchmark.pedantic(sweep, rounds=2, iterations=1, warmup_rounds=1)
    assert len(out) == len(SWEEP_PAIRS)
    benchmark.extra_info["pairs"] = len(SWEEP_PAIRS)
    benchmark.extra_info["processes"] = processes
