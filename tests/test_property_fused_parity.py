"""Property tests: the generated loop is cycle-for-cycle identical to the
staged path, which is what tests the splicer (``repro.core.splice``).

``Simulator.run_cycles`` dispatches to ``_run_fast`` — the loop the splicer
builds from the stage methods, each stage's body spliced into one frame —
unless a stage method is overridden, in which case it falls back to calling
``_step`` per cycle, which calls the same stage methods one frame each. For
any workload, policy and seed both paths must produce exactly the same
``SimResult``; a splicing fault (a rebound local, a wrongly hoisted binding,
a lost guard) shows as a difference. Pinning an instance attribute for any
``_FAST_STAGES`` method (here ``_step`` itself) is the supported way to
force the staged path (see ``Simulator._fast_eligible``).
"""

from __future__ import annotations

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import HealthCheck, given, settings, strategies as st  # noqa: E402

from repro.config import SimulationConfig, baseline  # noqa: E402
from repro.core import Simulator, make_policy  # noqa: E402
from repro.workloads import build_programs, get_workload  # noqa: E402

#: The paper's six-policy comparison — each exercises different hook paths
#: (gating, flush/squash, predictive pmeta protocol) through the generated loop.
SIX_POLICIES = ("icount", "stall", "flush", "dg", "pdg", "dwarn")


def run_one(workload: str, policy: str, seed: int, cycles: int, fused: bool):
    simcfg = SimulationConfig(
        warmup_cycles=0, measure_cycles=cycles, trace_length=3_000, seed=seed
    )
    programs = build_programs(get_workload(workload), simcfg)
    sim = Simulator(baseline(), programs, make_policy(policy), simcfg)
    if not fused:
        # Instance-pinning a stage method makes _fast_eligible() False, so
        # run_cycles takes the staged per-cycle path.
        sim._step = sim._step
        assert not sim._fast_eligible()
    else:
        assert sim._fast_eligible()
    sim.run_cycles(cycles)
    sim.validate_state()
    return sim


@settings(
    max_examples=12,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
@given(
    workload=st.sampled_from(["2-ILP", "2-MEM", "2-MIX", "4-MIX", "4-MEM"]),
    policy=st.sampled_from(SIX_POLICIES),
    seed=st.integers(min_value=0, max_value=2**20),
    cycles=st.integers(min_value=50, max_value=400),
)
def test_fused_loop_matches_staged_reference(workload, policy, seed, cycles):
    fast = run_one(workload, policy, seed, cycles, fused=True)
    ref = run_one(workload, policy, seed, cycles, fused=False)
    # Full windowed statistics — IPC, committed/fetched/squashed counts,
    # mispredicts, load/miss counters — must be identical, not just close.
    assert fast.result() == ref.result()
    # And the raw cumulative stats underneath them.
    assert fast.cycle == ref.cycle
    assert list(fast.stats.committed) == list(ref.stats.committed)
    assert list(fast.stats.fetched) == list(ref.stats.fetched)
    assert list(fast.stats.mispredicts) == list(ref.stats.mispredicts)
    assert fast.stats.dispatched == ref.stats.dispatched


@pytest.mark.parametrize("policy", SIX_POLICIES)
def test_fused_loop_matches_staged_reference_smoke(policy):
    """Deterministic non-hypothesis anchor: one fixed point per policy, so
    a parity break is caught even where hypothesis is unavailable."""
    fast = run_one("4-MIX", policy, 12345, 500, fused=True)
    ref = run_one("4-MIX", policy, 12345, 500, fused=False)
    assert fast.result() == ref.result()
