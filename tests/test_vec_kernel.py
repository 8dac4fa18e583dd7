"""Idle-span skipping is cycle-exact, and the vec batch matches the fused
engine.

No run loop skips idle spans any more; the quiescence primitives stay, with
these tests, until the vec backend and they are deleted together. The
contract under test:

- the quiescence primitives (``quiescent_wake`` / ``advance_idle`` /
  ``run_cycles_skip_idle``) are behavior-identical to plain stepping on
  both the fused and the staged engine;
- a batch equals each of its lanes stepped alone, and plain stepping
  skips no cycles;
- a batch is bit-identical to the fused per-run reference
  (hypothesis-fuzzed across policies x commit limits x seeds, mirroring
  the vec-vs-staged sweep in test_vec_batch.py).
"""

from __future__ import annotations

import pytest

from repro.config import SimulationConfig, baseline
from repro.core import Simulator, make_policy
from repro.core.simulator import IDLE_FOREVER
from repro.core.vec import VecBatchSimulator, run_batch
from repro.workloads import build_programs, build_single, get_workload

SIX_POLICIES = ("icount", "stall", "flush", "dg", "pdg", "dwarn")


def _simcfg(**kw) -> SimulationConfig:
    base = dict(warmup_cycles=60, measure_cycles=240, trace_length=3_000, seed=424242)
    base.update(kw)
    return SimulationConfig(**base)


def _fresh_sim(workload: str, policy: str, simcfg: SimulationConfig) -> Simulator:
    try:
        programs = build_programs(get_workload(workload), simcfg)
    except KeyError:
        programs = build_single(workload, simcfg)
    return Simulator(baseline(), programs, make_policy(policy), simcfg)


# ---------------------------------------------------------------------------
# quiescence primitives
# ---------------------------------------------------------------------------


def test_skip_idle_matches_plain_stepping_fused():
    """run_cycles_skip_idle == run_cycles on the fused engine, and it
    actually skipped something (otherwise this test guards nothing)."""
    simcfg = _simcfg()
    for policy in SIX_POLICIES:
        plain = _fresh_sim("2-MEM", policy, simcfg)
        plain.run_cycles(simcfg.total_cycles)
        skip = _fresh_sim("2-MEM", policy, simcfg)
        skip.run_cycles_skip_idle(simcfg.total_cycles)
        assert skip.cycle == plain.cycle
        assert skip.stats.cycles == plain.stats.cycles
        assert list(skip.stats.committed) == list(plain.stats.committed)
        assert list(skip.stats.gated_cycles) == list(plain.stats.gated_cycles)
        assert skip.result() == plain.result(), policy
    assert skip.idle_cycles_skipped > 0
    assert plain.idle_cycles_skipped == 0


def test_skip_idle_matches_plain_stepping_staged():
    """The staged fallback of run_cycles_skip_idle (any stage override
    refuses the fused loop) honors the same contract."""
    simcfg = _simcfg()
    plain = _fresh_sim("2-MEM", "dwarn", simcfg)
    plain._step = plain._step
    assert not plain._fast_eligible()
    plain.run_cycles(simcfg.total_cycles)
    skip = _fresh_sim("2-MEM", "dwarn", simcfg)
    skip._step = skip._step
    skip.run_cycles_skip_idle(simcfg.total_cycles)
    assert skip.result() == plain.result()
    assert skip.idle_cycles_skipped > 0


def test_quiescent_wake_is_read_only_and_consistent():
    """Calling the predicate must not perturb the run, and on a quiescent
    cycle the wake must be strictly in the future."""
    simcfg = _simcfg()
    probed = _fresh_sim("2-MEM", "icount", simcfg)
    wakes = []
    for _ in range(simcfg.total_cycles):
        wakes.append(probed.quiescent_wake())
        probed.run_cycles(1)
    clean = _fresh_sim("2-MEM", "icount", simcfg)
    clean.run_cycles(simcfg.total_cycles)
    assert probed.result() == clean.result()
    assert any(w is None for w in wakes)  # busy cycles exist
    quiet = [(c, w) for c, w in enumerate(wakes) if w is not None]
    assert quiet  # idle cycles exist at this shape
    assert all(w > c for c, w in quiet)


def test_advance_idle_counts_cycles():
    simcfg = _simcfg()
    sim = _fresh_sim("2-MEM", "icount", simcfg)
    before = (sim.cycle, sim.stats.cycles)
    sim.advance_idle(0)
    assert (sim.cycle, sim.stats.cycles) == before
    sim.advance_idle(7)
    assert sim.cycle == before[0] + 7
    assert sim.stats.cycles == before[1] + 7
    assert sim.idle_cycles_skipped == 7


def test_idle_forever_sentinel_is_far_future():
    assert IDLE_FOREVER > 10**15


# ---------------------------------------------------------------------------
# batch vs plain per-lane stepping
# ---------------------------------------------------------------------------


def test_array_and_lane_kernels_agree_and_report():
    """The batch agrees with each lane stepped alone, and plain stepping
    reports no skipped cycles."""
    simcfg = _simcfg()
    lanes = [("4-MIX", pol) for pol in SIX_POLICIES]
    batch = VecBatchSimulator(baseline(), simcfg, lanes)
    batch_results = batch.run()
    plain_sims = [_fresh_sim(wl, pol, simcfg) for wl, pol in lanes]
    plain_results = [sim.run() for sim in plain_sims]
    assert batch_results == plain_results
    assert all(sim.idle_cycles_skipped == 0 for sim in plain_sims)


# ---------------------------------------------------------------------------
# hypothesis: batch vs the *fused* reference engine
# ---------------------------------------------------------------------------

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import HealthCheck, given, settings, strategies as st  # noqa: E402


@settings(
    max_examples=10,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
@given(
    workload=st.sampled_from(["2-ILP", "2-MEM", "2-MIX", "4-MIX"]),
    policies=st.lists(st.sampled_from(SIX_POLICIES), min_size=2, max_size=4),
    seed=st.integers(min_value=0, max_value=2**20),
    warmup=st.sampled_from([0, 50]),
    cycles=st.integers(min_value=60, max_value=300),
    limit=st.sampled_from([0, 150]),
)
def test_array_kernel_matches_fused_reference(
    workload, policies, seed, warmup, cycles, limit
):
    """Randomized short runs: every batched lane must equal the fused
    per-run engine run alone — crossing shared lane setup, warm-up
    boundaries and commit-limit checkpoints."""
    simcfg = SimulationConfig(
        warmup_cycles=warmup,
        measure_cycles=cycles,
        trace_length=3_000,
        seed=seed,
        commit_limit=limit,
    )
    lanes = [(workload, pol) for pol in policies]
    results = run_batch(baseline(), simcfg, lanes)
    for (wl, pol), got in zip(lanes, results):
        sim = _fresh_sim(wl, pol, simcfg)
        assert got == sim.run(), f"{wl}/{pol} diverged"
