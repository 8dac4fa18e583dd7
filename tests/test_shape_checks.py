"""The paper's shape checks that pass today keep passing: a gate on the model.

Digests prove behaviour is *unchanged*, not that it is *right*. This test
runs the sequence of ``dwarn-sim report --backend vec -j 1`` in-process —
the three machine sweeps and the seed sweep as vec batches into a cold
result cache, then ``report.run_all`` — at perfbench's report-vec window
(warm-up 200, measure 1,200, trace 6,000, seed 12345). At that scale 54 of
the 83 checks pass; each is pinned below by (experiment, check) and must
keep passing. A check that newly passes is only printed: re-pin the list
when a model fix (such as the I-cache refill fix) moves it.
"""

from __future__ import annotations

from repro import PAPER_POLICIES, SimulationConfig
from repro.experiments import (
    ExperimentRunner,
    ext_seeds,
    prefetch,
    prefetch_seed_sweep,
    report,
    sweep_pairs,
)

SIMCFG = SimulationConfig(warmup_cycles=200, measure_cycles=1_200, trace_length=6_000, seed=12345)

#: Experiment name -> the checks that pass at :data:`SIMCFG`.
PASSING = {
    "table2a": (
        "mcf: classified MEM",
        "twolf: L1 miss rate within band",
        "twolf: L2 miss rate within band",
        "twolf: classified MEM",
        "vpr: classified MEM",
        "parser: L1 miss rate within band",
        "parser: L2 miss rate within band",
        "parser: classified MEM",
        "vortex: L1 miss rate within band",
        "vortex: L2 miss rate within band",
        "vortex: classified ILP",
        "gcc: L1 miss rate within band",
        "gcc: L2 miss rate within band",
        "gcc: classified ILP",
        "perlbmk: L1 miss rate within band",
        "perlbmk: L2 miss rate within band",
        "perlbmk: classified ILP",
        "bzip2: L1 miss rate within band",
        "bzip2: L2 miss rate within band",
        "bzip2: classified ILP",
        "crafty: L2 miss rate within band",
        "crafty: classified ILP",
        "gzip: L2 miss rate within band",
        "gzip: classified ILP",
        "eon: L1 miss rate within band",
        "eon: L2 miss rate within band",
        "eon: classified ILP",
    ),
    "figure1": (
        "DWarn >= DG on every class average",
        "DWarn/ICOUNT gain at 8 threads >= gain at 2 threads (MIX+MEM)",
        "DWarn/DG gain shrinks with thread count (paper §5.1)",
    ),
    "figure2": (
        "class ordering ILP < MIX < MEM (paper: 2 / 7 / 35)",
        "MEM average is substantial (>= 15%)",
        "ILP average is small (<= 8%)",
    ),
    "table4": (
        "DWarn protects mcf better than DG/PDG/FLUSH",
        "Gating policies lift gzip above ICOUNT",
        "ICOUNT favours MEM threads (mcf rel highest under ICOUNT among gating-vs-icount "
        "comparison)",
    ),
    "figure4": (
        "throughput: DWarn beats DG on MIX+MEM (paper: +23%)",
        "throughput: DWarn beats PDG on MIX+MEM (paper: +40%)",
        "hmean: DWarn beats DG on MIX+MEM (paper: +28%)",
        "hmean: DWarn beats PDG on MIX+MEM (paper: +50%)",
        "hmean: ICOUNT competitive or better than DWarn on MIX (paper: +5% for IC)",
    ),
    "figure5": (
        "throughput: DWarn beats ICOUNT on MIX+MEM",
        "throughput: DWarn beats DG everywhere",
        "throughput: DWarn beats PDG on MIX+MEM",
        "throughput: FLUSH competitive-or-better on MEM (paper: +6% for FLUSH)",
        "hmean: DWarn beats DG and PDG on MIX+MEM",
        "FLUSH refetch cost on MEM grows vs baseline (paper: 35% -> 56%)",
    ),
    "ext_metrics": (
        "4-MIX: PDG ranks no better under Hmean than under throughput",
        "8-MIX: PDG ranks no better under Hmean than under throughput",
    ),
    "ext_seeds": (
        "4-MIX: DWarn beats ICOUNT on most seeds",
    ),
    "figure_meta": (
        "meta mean tput clear of always-picking-the-worst",
        "meta within 10% of best static on >= half the workloads",
        "ingested fixture runs under every policy",
        "meta actually switches on 2-MEM",
    ),
}


def test_passing_shape_checks_still_pass(tmp_path):
    runner = ExperimentRunner(
        "baseline",
        SIMCFG,
        cache_dir=tmp_path / "cache",
        verbose=False,
        trace_cache_dir=tmp_path / "traces",
    )
    for machine in ("baseline", "small", "deep"):
        sub = runner.with_machine(machine)
        prefetch(sub, sweep_pairs(sub, PAPER_POLICIES), 1, backend="vec")
    prefetch_seed_sweep(
        runner,
        [(wl, pol) for wl in ext_seeds.WORKLOADS for pol in ext_seeds.POLICIES],
        ext_seeds.SEEDS,
        1,
        backend="vec",
    )
    checks = {
        (res.name, check): ok
        for res in report.run_all(runner, verbose=False)
        for check, ok in res.checks.items()
    }
    pinned = {(name, check) for name, names in PASSING.items() for check in names}
    assert len(pinned) == 54
    missing = sorted(pinned - set(checks))
    assert not missing, f"pinned checks no longer reported: {missing}"
    regressed = sorted(key for key in pinned if not checks[key])
    assert not regressed, f"shape checks that passed now fail: {regressed}"
    for key in sorted(k for k, ok in checks.items() if ok and k not in pinned):
        print(f"newly passing (not pinned): {key}")
