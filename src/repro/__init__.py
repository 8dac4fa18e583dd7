"""repro — reproduction of *DCache Warn: an I-Fetch Policy to Increase SMT
Efficiency* (Cazorla, Ramirez, Valero, Fernández; IPDPS 2004).

A cycle-level, trace-driven SMT processor simulator with pluggable
instruction-fetch policies (ICOUNT, STALL, FLUSH, DG, PDG, DC-PRED and the
paper's DWarn), a synthetic SPECINT2000 trace substrate calibrated to the
paper's Table 2(a), and an experiment harness that regenerates every table
and figure of the paper's evaluation.

Quickstart::

    from repro import quick_run

    result = quick_run("4-MIX", "dwarn")
    print(result.summary())

or assemble the pieces yourself::

    from repro.config import baseline, SimulationConfig
    from repro.core import Simulator, make_policy
    from repro.workloads import get_workload, build_programs

    simcfg = SimulationConfig(warmup_cycles=3000, measure_cycles=20000)
    programs = build_programs(get_workload("4-MIX"), simcfg)
    sim = Simulator(baseline(), programs, make_policy("dwarn"), simcfg)
    result = sim.run()
"""

from __future__ import annotations

from repro.config import (
    MachineConfig,
    ProcessorConfig,
    MemoryConfig,
    SimulationConfig,
    baseline,
    small,
    deep,
    get_preset,
)
from repro.core import (
    Simulator,
    SimResult,
    FetchPolicy,
    ICountPolicy,
    StallPolicy,
    FlushPolicy,
    DataGatingPolicy,
    PredictiveDataGatingPolicy,
    DWarnPolicy,
    DCPredPolicy,
    POLICIES,
    PAPER_POLICIES,
    make_policy,
)
from repro.metrics import FairnessReport, hmean_relative, relative_ipcs, weighted_speedup
from repro.trace import PROFILES, get_profile, generate_trace
from repro.workloads import WORKLOADS, get_workload, build_programs, build_single

__version__ = "1.0.0"

__all__ = [
    "MachineConfig",
    "ProcessorConfig",
    "MemoryConfig",
    "SimulationConfig",
    "baseline",
    "small",
    "deep",
    "get_preset",
    "Simulator",
    "SimResult",
    "FetchPolicy",
    "ICountPolicy",
    "StallPolicy",
    "FlushPolicy",
    "DataGatingPolicy",
    "PredictiveDataGatingPolicy",
    "DWarnPolicy",
    "DCPredPolicy",
    "POLICIES",
    "PAPER_POLICIES",
    "make_policy",
    "FairnessReport",
    "hmean_relative",
    "relative_ipcs",
    "weighted_speedup",
    "PROFILES",
    "get_profile",
    "generate_trace",
    "WORKLOADS",
    "get_workload",
    "build_programs",
    "build_single",
    "quick_run",
    "__version__",
]


def quick_run(
    workload: str,
    policy: str = "dwarn",
    machine: str = "baseline",
    simcfg: SimulationConfig | None = None,
) -> SimResult:
    """Run one (workload, policy) simulation with sensible defaults.

    ``workload`` is a Table 2(b) name like ``"4-MIX"``, a single benchmark
    name like ``"mcf"`` (run alone) or an ingested trace name (see
    :func:`build_programs`); ``policy`` and ``machine`` name entries of
    :data:`POLICIES` / the config presets.
    """
    simcfg = simcfg or SimulationConfig()
    programs = build_programs(workload, simcfg)
    sim = Simulator(get_preset(machine), programs, make_policy(policy), simcfg)
    return sim.run()
