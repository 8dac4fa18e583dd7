"""Profiling helpers for the simulator hot loop.

The hpc-parallel guides' first rule — *no optimization without measuring* —
applied to this codebase: ``profile_simulation`` wraps cProfile around a
short run and returns the top offenders, and ``cycles_per_second`` is the
quick speedometer used by the microbenches.

Run from the shell::

    python -m repro.utils.profiling 4-MIX dwarn
"""

from __future__ import annotations

import cProfile
import io
import pstats
import time

from repro.config import SimulationConfig, get_preset
from repro.core import Simulator, make_policy
from repro.core.simulator import _fast_loop
from repro.workloads import build_programs

__all__ = ["profile_simulation", "cycles_per_second"]


def _build(workload: str, policy: str, machine: str, simcfg: SimulationConfig) -> Simulator:
    programs = build_programs(workload, simcfg)
    _fast_loop()  # built once per process, on first use: keep that out of the timers
    return Simulator(get_preset(machine), programs, make_policy(policy), simcfg)


def profile_simulation(
    workload: str = "4-MIX",
    policy: str = "dwarn",
    machine: str = "baseline",
    cycles: int = 10_000,
    top: int = 25,
) -> str:
    """cProfile a run of ``cycles`` cycles; returns the stats table text."""
    simcfg = SimulationConfig(warmup_cycles=0, measure_cycles=cycles, trace_length=30_000)
    sim = _build(workload, policy, machine, simcfg)
    profiler = cProfile.Profile()
    profiler.enable()
    sim.run_cycles(cycles)
    profiler.disable()
    out = io.StringIO()
    stats = pstats.Stats(profiler, stream=out)
    stats.sort_stats("cumulative").print_stats(top)
    return out.getvalue()


def cycles_per_second(
    workload: str = "4-MIX",
    policy: str = "dwarn",
    machine: str = "baseline",
    cycles: int = 10_000,
) -> float:
    """Wall-clock simulation speed for one configuration."""
    simcfg = SimulationConfig(warmup_cycles=0, measure_cycles=cycles, trace_length=30_000)
    sim = _build(workload, policy, machine, simcfg)
    t0 = time.perf_counter()
    sim.run_cycles(cycles)
    return cycles / (time.perf_counter() - t0)


if __name__ == "__main__":  # pragma: no cover
    import sys

    wl = sys.argv[1] if len(sys.argv) > 1 else "4-MIX"
    pol = sys.argv[2] if len(sys.argv) > 2 else "dwarn"
    print(f"{cycles_per_second(wl, pol):,.0f} cycles/second")
    print(profile_simulation(wl, pol))
