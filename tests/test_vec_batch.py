"""The vectorized batch backend is cycle-exact and wiring-correct.

``repro.core.vec`` advances many (workload, policy, seed) lanes in lockstep
through one process. Its contract is *bit-identity*: every lane's
``SimResult`` equals the one ``Simulator.run()`` would produce for that run
alone — across policies, thread mixes, per-lane seeds, pre-warm template
cloning, idle-span parking and commit-limit early exit. On every perfguard
digest pair the staged, fused and vec engines agree exactly, gating
statistics included. A hypothesis sweep fuzzes the batch against the
*staged* reference engine, crossing both the lockstep driver and the
fused/staged boundary in one property.
"""

from __future__ import annotations

import dataclasses
import gc
import subprocess
import sys
import weakref

import pytest

from repro.config import SimulationConfig, baseline
from repro.core import Simulator, make_policy
from repro.core.vec import Lane, VecBatchSimulator, VecLaneError, run_batch
from repro.experiments.parallel import run_pairs
from repro.utils.perfguard import _DIGEST_SIMCFG, GUARDED_POLICIES, GUARDED_WORKLOADS
from repro.workloads import build_programs, build_single, get_workload

SIX_POLICIES = ("icount", "stall", "flush", "dg", "pdg", "dwarn")


def _simcfg(**kw) -> SimulationConfig:
    base = dict(warmup_cycles=60, measure_cycles=240, trace_length=3_000, seed=424242)
    base.update(kw)
    return SimulationConfig(**base)


def _serial_result(workload: str, policy: str, simcfg: SimulationConfig, *, staged=False):
    """The per-run reference: one Simulator, the public run() loop."""
    try:
        programs = build_programs(get_workload(workload), simcfg)
    except KeyError:
        programs = build_single(workload, simcfg)
    sim = Simulator(baseline(), programs, make_policy(policy), simcfg)
    if staged:
        sim._step = sim._step
        assert not sim._fast_eligible()
    return sim.run()


def test_batch_matches_serial_across_policies():
    """Six policies x two thread mixes in one batch: the canonical screening
    shape (shared trace walks, shared pre-warm template per group)."""
    simcfg = _simcfg()
    lanes = [(wl, pol) for wl in ("2-MEM", "4-MIX") for pol in SIX_POLICIES]
    batch = VecBatchSimulator(baseline(), simcfg, lanes)
    results = batch.run()
    assert len(results) == len(lanes)
    for (wl, pol), got in zip(lanes, results):
        assert got == _serial_result(wl, pol, simcfg), f"{wl}/{pol} diverged"
    # Idle skipping actually engaged (otherwise this guards nothing).
    assert batch.idle_cycles_skipped > 0


def test_batch_matches_serial_with_mixed_seeds_and_lone_benchmark():
    """Per-lane seeds split lanes into different setup groups; a lone
    benchmark name (not a workload) takes the build_single path; duplicate
    lanes must not alias each other's state."""
    simcfg = _simcfg()
    lanes = [
        Lane("2-MEM", "dwarn"),
        Lane("2-MEM", "dwarn", seed=7),
        Lane("mcf", "icount"),
        Lane("2-MEM", "dwarn"),
    ]
    results = run_batch(baseline(), simcfg, lanes)
    for lane, got in zip(lanes, results):
        cfg = simcfg if lane.seed is None else dataclasses.replace(simcfg, seed=lane.seed)
        assert got == _serial_result(lane.workload, lane.policy, cfg), lane
    assert results[0] == results[3]  # duplicates agree
    assert results[0] != results[1]  # reseeded lane actually differs


def test_batch_matches_serial_with_commit_limit():
    """Early exit: the 64-cycle-aligned checkpoint logic must fire on the
    same cycle for a batched lane as for the lone run."""
    simcfg = _simcfg(commit_limit=120)
    lanes = [("2-MEM", pol) for pol in SIX_POLICIES]
    results = run_batch(baseline(), simcfg, lanes)
    for (wl, pol), got in zip(lanes, results):
        assert got == _serial_result(wl, pol, simcfg), f"{wl}/{pol} diverged"
    # The limit actually bit: lanes finished before the full window.
    assert any(res.cycles < simcfg.total_cycles for res in results)


def test_chunk_size_is_behavior_neutral():
    simcfg = _simcfg()
    lanes = [("4-MIX", "dwarn"), ("4-MIX", "flush")]
    coarse = run_batch(baseline(), simcfg, lanes, chunk=4096)
    fine = run_batch(baseline(), simcfg, lanes, chunk=64)
    assert coarse == fine


def test_progress_callback_and_timing_attribution():
    simcfg = _simcfg()
    lanes = [("2-MEM", "icount"), ("2-MEM", "stall")]
    seen = []
    batch = VecBatchSimulator(
        baseline(), simcfg, lanes, progress=lambda done, total, cyc: seen.append((done, total))
    )
    batch.run()
    assert seen == [(1, 2), (2, 2)]
    assert len(batch.lane_seconds) == 2
    assert all(s >= 0.0 for s in batch.lane_seconds)
    assert batch.batch_seconds > 0.0
    # run() is idempotent: the cached results come back, no re-simulation.
    again = batch.run()
    assert again is batch.results


def test_batch_frees_previous_batches_lanes():
    """A finished Simulator is cyclic garbage (its policy points back at
    it), so with GC paused it would outlive its batch. The next batch
    collects before it builds, whatever the caller's GC state."""
    simcfg = _simcfg()
    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        first = VecBatchSimulator(
            baseline(), simcfg, [("2-MEM", "icount"), ("2-MEM", "dwarn"), ("4-MIX", "meta")]
        )
        first.run()
        refs = [weakref.ref(r.sim) for r in first._runs]
        del first
        run_batch(baseline(), simcfg, [("2-MEM", "flush")])
        assert [ref() for ref in refs] == [None, None, None]
    finally:
        if gc_was_enabled:
            gc.enable()


def test_import_pulls_in_no_numpy():
    """The package, CLI, daemon and sweep engine are pure Python."""
    code = (
        "import sys\n"
        "import repro, repro.cli, repro.service.server, repro.experiments.parallel\n"
        "assert 'numpy' not in sys.modules, 'numpy was imported'\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr


def test_lane_coercion_and_errors():
    assert Lane.coerce(("2-MEM", "dwarn")) == Lane("2-MEM", "dwarn")
    assert Lane.coerce(("2-MEM", "dwarn", 9)) == Lane("2-MEM", "dwarn", 9)
    with pytest.raises(ValueError):
        Lane.coerce(("2-MEM",))
    with pytest.raises(ValueError):
        VecBatchSimulator(baseline(), _simcfg(), [])
    with pytest.raises(VecLaneError) as exc:
        run_batch(baseline(), _simcfg(), [("2-MEM", "no-such-policy")])
    assert exc.value.workload == "2-MEM"
    assert exc.value.policy == "no-such-policy"


def test_run_pairs_vec_backend_matches_process_backend(tmp_path):
    simcfg = _simcfg()
    pairs = [("2-MEM", pol) for pol in ("icount", "dwarn", "flush")]
    serial = run_pairs(baseline(), simcfg, list(pairs), 1)
    vec = run_pairs(baseline(), simcfg, list(pairs), 1, backend="vec")
    assert [(w, p) for w, p, _ in vec] == [(w, p) for w, p, _ in serial]
    assert [r for _, _, r in vec] == [r for _, _, r in serial]
    with pytest.raises(ValueError):
        run_pairs(baseline(), simcfg, list(pairs), 1, backend="bogus")


# ---------------------------------------------------------------------------
# engine parity on the perfguard digest pairs

PARITY_LANES = [(wl, pol) for wl in GUARDED_WORKLOADS for pol in GUARDED_POLICIES]


@pytest.fixture(scope="module")
def parity_batch():
    """Every guarded pair in one vec batch, the way the backend amortizes
    setup in production: lane -> (result, per-thread gated cycles)."""
    batch = VecBatchSimulator(baseline(), SimulationConfig(**_DIGEST_SIMCFG), PARITY_LANES)
    results = batch.run()
    return {
        lane: (res, list(run.sim.stats.gated_cycles))
        for lane, res, run in zip(PARITY_LANES, results, batch._runs)
    }


@pytest.mark.parametrize("workload,policy", PARITY_LANES)
def test_engines_agree_on_guarded_pair(parity_batch, workload, policy):
    """Staged, fused and vec runs of one guarded pair give the same
    SimResult and the same per-thread gated cycles. The meta lanes pin
    mid-run policy switches (shared gate counts, interval callbacks)."""
    simcfg = SimulationConfig(**_DIGEST_SIMCFG)

    def alone(staged: bool):
        programs = build_programs(get_workload(workload), simcfg)
        sim = Simulator(baseline(), programs, make_policy(policy), simcfg)
        if staged:
            sim._step = sim._step  # instance override -> staged engine
        assert sim._fast_eligible() is not staged
        return sim.run(), list(sim.stats.gated_cycles)

    assert alone(staged=True) == alone(staged=False) == parity_batch[(workload, policy)]


# ---------------------------------------------------------------------------
# hypothesis: vec batch vs the *staged* reference engine
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
def test_vec_matches_staged_reference(workload, policies, seed, warmup, cycles, limit):
    """Randomized short runs: every batched lane must equal the staged
    per-cycle engine run alone — one property crossing the lockstep driver,
    the fused kernel, warm-up boundaries, and commit-limit checkpoints."""
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
        assert got == _serial_result(wl, pol, simcfg, staged=True), f"{wl}/{pol} diverged"
