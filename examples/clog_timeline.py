#!/usr/bin/env python3
"""Watching the clog happen: time-series view of the paper's §1 pathology.

Aggregated IPCs hide the mechanism DWarn attacks. This example records a
2-MEM run (mcf + twolf) in 200-cycle windows and renders ASCII intensity
strips: under ICOUNT you can see mcf's in-flight-miss episodes (dmiss) line
up with collapses of the *other* thread's IPC and of the free issue-queue
entries — the clog. Under DWarn the same misses occur, but the partner
thread's IPC strip stays bright.

Run:  python examples/clog_timeline.py
"""

from repro import SimulationConfig, Simulator, baseline, make_policy
from repro.metrics import interval_strips
from repro.obs import IntervalCollector
from repro.workloads import build_programs, get_workload

# No commit limit: every policy runs the whole 20,000-cycle window.
SIMCFG = SimulationConfig(
    warmup_cycles=0, measure_cycles=20_000, trace_length=40_000, commit_limit=0
)
WORKLOAD = "2-MEM"
WINDOW = 200


def show(policy: str, simcfg: SimulationConfig = SIMCFG) -> None:
    programs = build_programs(get_workload(WORKLOAD), simcfg)
    sim = Simulator(baseline(), programs, make_policy(policy), simcfg)
    sim.obs = collector = IntervalCollector(window=WINDOW)
    sim.run()
    records = collector.records

    names = [p.profile.name for p in programs]
    print(f"== {policy} on {WORKLOAD} ({names[0]}=t0, {names[1]}=t1) ==")
    print(interval_strips(records, ("ipc", "dmiss", "ls_q_free"), width=72))
    per_thread = [sum(r.ipc[t] for r in records) for t in range(len(programs))]
    print(f"   throughput: {sum(per_thread) / len(records):.3f}")
    print()


def main() -> None:
    for policy in ("icount", "dwarn", "flush"):
        show(policy)
    print("Reading the strips: dark = low, bright = high. Look for t0 (mcf)")
    print("dmiss episodes coinciding with dark patches in t1's IPC and in")
    print("ls_q_free under ICOUNT, and how DWarn/FLUSH break that coupling.")


if __name__ == "__main__":
    main()
