#!/usr/bin/env python3
"""Using the substrates standalone: characterize the synthetic benchmarks.

The trace generator and the memory hierarchy are ordinary library components
— you can drive them without the pipeline. This example replays each
benchmark's memory stream through a fresh cache hierarchy (via
``repro.trace.calibration``, the same tooling the shipped profiles were
calibrated with) and prints a Table 2(a)-style characterization plus
code-footprint and branch statistics.

Run:  python examples/workload_characterization.py
"""

from repro import PROFILES, generate_trace
from repro.isa.opcodes import BranchKind, OpClass
from repro.metrics.reporting import format_table
from repro.trace.calibration import replay_miss_rates


def characterize(bench: str, length: int = 60_000):
    profile = PROFILES[bench]
    trace = generate_trace(profile, length, base=1 << 30, seed=42)
    replay = replay_miss_rates(trace)

    counts = trace.op_counts()
    branches = counts.get(int(OpClass.BRANCH), 0)
    # One column per field, in repro.trace.RECORD_FIELDS order.
    ops, brkinds, takens = trace.cols[0], trace.cols[6], trace.cols[7]
    taken = sum(t for op, t in zip(ops, takens) if op == OpClass.BRANCH)
    calls = brkinds.count(BranchKind.CALL)

    return [
        bench,
        profile.thread_type,
        round(100 * replay.l1_missrate, 2),
        round(100 * replay.l2_missrate, 2),
        round(100 * replay.l1_to_l2_ratio, 1),
        round(counts.get(int(OpClass.LOAD), 0) / length, 3),
        round(branches / length, 3),
        round(taken / branches, 2) if branches else 0,
        f"{trace.code_bytes // 1024}K",
        calls,
    ]


def main() -> None:
    headers = [
        "benchmark", "type", "L1 miss %", "L2 miss %", "L1->L2 %",
        "load frac", "branch frac", "taken frac", "code", "calls",
    ]
    rows = [characterize(b) for b in sorted(PROFILES)]
    print(format_table(headers, rows, title="Synthetic SPECINT2000 characterization"))
    print()
    print("Compare the first four columns against the paper's Table 2(a);")
    print("these are the calibration targets of repro.trace.profiles.")


if __name__ == "__main__":
    main()
