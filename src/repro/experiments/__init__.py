"""Experiment harness: regenerates every table and figure of the paper.

========== =========================================================
module      reproduces
========== =========================================================
table2a     Table 2(a): isolated cache behaviour of the 12 benchmarks
figure1     Figure 1(a/b): throughput per policy + DWarn improvements
figure2     Figure 2: flushed/fetched fraction under FLUSH
figure3     Figure 3: Hmean improvement of DWarn over the others
table4      Table 4: per-thread relative IPCs in 4-MIX
figure4     Figure 4(a/b): the smaller (4-wide, 1.4) machine
figure5     Figure 5(a/b): the deeper (16-stage) machine
figure_meta extension: dynamic meta-policy vs. the static policies
========== =========================================================

Each module exposes ``run(runner) -> ExperimentResult``; ``repro.experiments.
report.generate_report()`` executes everything and writes EXPERIMENTS.md.
"""

from repro.experiments.runner import ExperimentRunner, ExperimentResult
from repro.experiments import (
    ext_metrics,
    ext_seeds,
    figure1,
    figure2,
    figure3,
    figure4,
    figure5,
    figure_meta,
    table2a,
    table4,
)
from repro.experiments.parallel import (
    SweepError,
    prefetch,
    prefetch_seed_sweep,
    run_pairs,
    sweep_pairs,
)
from repro.experiments.report import generate_report, ALL_EXPERIMENTS

__all__ = [
    "ExperimentRunner",
    "ExperimentResult",
    "table2a",
    "figure1",
    "figure2",
    "figure3",
    "figure4",
    "figure5",
    "figure_meta",
    "table4",
    "ext_metrics",
    "ext_seeds",
    "SweepError",
    "prefetch",
    "prefetch_seed_sweep",
    "run_pairs",
    "sweep_pairs",
    "generate_report",
    "ALL_EXPERIMENTS",
]
