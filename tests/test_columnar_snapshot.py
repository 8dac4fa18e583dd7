"""Columnar snapshot round-trips: a mid-run simulator serialized, restored
into a fresh instance, and resumed must be bit-identical to one that never
paused.

``ColumnarState.capture`` flattens the live object graph (in-flight
DynInstrs, ROBs, ready heaps, event wheel, rename maps, caches, predictors)
into typed columns; ``restore_into`` re-inflates it onto a fresh simulator
built from the same ``(machine, programs, policy, simcfg)``. ``to_bytes`` /
``from_bytes`` add the on-disk codec (magic/version/CRC header, JSON
structural section, packed columns). These tests pin all three layers at
several pause points, across policies, and through both engines — plus the
codec's failure modes (corruption, truncation, closures in the wheel).
"""

from __future__ import annotations

import pytest

from repro.config import SimulationConfig, baseline
from repro.core import Simulator, make_policy
from repro.core.columnar import (
    SNAPSHOT_VERSION,
    ColumnarState,
    SnapshotError,
    checkpoint_to_bytes,
    run_checkpointed,
)
from repro.workloads import build_programs, get_workload

POLICIES = ("icount", "stall", "flush", "dg", "pdg", "dwarn")


def _simcfg(**kw) -> SimulationConfig:
    base = dict(warmup_cycles=0, measure_cycles=400, trace_length=3_000, seed=2024)
    base.update(kw)
    return SimulationConfig(**base)


def _fresh_sim(workload: str, policy: str, simcfg: SimulationConfig) -> Simulator:
    programs = build_programs(get_workload(workload), simcfg)
    return Simulator(baseline(), programs, make_policy(policy), simcfg)


def _assert_same_outcome(a: Simulator, b: Simulator) -> None:
    assert a.result() == b.result()
    assert a.cycle == b.cycle
    assert list(a.stats.committed) == list(b.stats.committed)
    assert list(a.stats.fetched) == list(b.stats.fetched)
    assert list(a.stats.gated_cycles) == list(b.stats.gated_cycles)
    assert list(a.stats.mispredicts) == list(b.stats.mispredicts)


def _run_interrupted(
    workload: str,
    policy: str,
    simcfg: SimulationConfig,
    pause_at: int,
    total: int,
    *,
    through_bytes: bool = False,
    staged_resume: bool = False,
) -> Simulator:
    """Run to ``pause_at``, snapshot, restore into a fresh sim, finish."""
    sim = _fresh_sim(workload, policy, simcfg)
    sim._begin_window()
    sim.run_cycles(pause_at)
    state = ColumnarState.capture(sim)
    if through_bytes:
        state = ColumnarState.from_bytes(state.to_bytes())
    resumed = _fresh_sim(workload, policy, simcfg)
    state.restore_into(resumed)
    if staged_resume:
        resumed._step = resumed._step  # pin => staged reference path
        assert not resumed._fast_eligible()
    resumed.run_cycles(total - pause_at)
    resumed.validate_state()
    return resumed


@pytest.mark.parametrize("policy", POLICIES)
def test_midrun_roundtrip_matches_uninterrupted(policy):
    simcfg = _simcfg()
    straight = _fresh_sim("2-MEM", policy, simcfg)
    straight._begin_window()
    straight.run_cycles(400)
    resumed = _run_interrupted("2-MEM", policy, simcfg, pause_at=170, total=400)
    _assert_same_outcome(straight, resumed)


@pytest.mark.parametrize("pause_at", [1, 64, 199, 399])
def test_roundtrip_at_varied_pause_points(pause_at):
    """Odd pause points land mid-flight in every structure: the wheel holds
    pending completes/fills, heaps hold ready work, ROBs are partly full."""
    simcfg = _simcfg()
    straight = _fresh_sim("4-MIX", "dwarn", simcfg)
    straight._begin_window()
    straight.run_cycles(400)
    resumed = _run_interrupted("4-MIX", "dwarn", simcfg, pause_at=pause_at, total=400)
    _assert_same_outcome(straight, resumed)


def test_bytes_codec_roundtrip_matches_uninterrupted():
    """Serialize -> bytes -> deserialize -> restore -> resume: the full
    ship-it path, and the serialized form itself is deterministic."""
    simcfg = _simcfg()
    straight = _fresh_sim("2-MEM", "pdg", simcfg)
    straight._begin_window()
    straight.run_cycles(400)
    resumed = _run_interrupted(
        "2-MEM", "pdg", simcfg, pause_at=170, total=400, through_bytes=True
    )
    _assert_same_outcome(straight, resumed)

    sim = _fresh_sim("2-MEM", "pdg", simcfg)
    sim._begin_window()
    sim.run_cycles(170)
    blob = ColumnarState.capture(sim).to_bytes()
    assert ColumnarState.capture(sim).to_bytes() == blob  # stable encoding
    assert blob[:4] == b"DWCS"


def test_resume_on_staged_engine_matches_fused():
    """A snapshot taken under the fused engine restores onto the staged
    reference path and still finishes bit-identically (state is engine-
    agnostic, as the fused/staged parity suite requires)."""
    simcfg = _simcfg()
    straight = _fresh_sim("2-MEM", "dg", simcfg)
    straight._begin_window()
    straight.run_cycles(400)
    resumed = _run_interrupted(
        "2-MEM", "dg", simcfg, pause_at=170, total=400, staged_resume=True
    )
    _assert_same_outcome(straight, resumed)


def test_snapshot_version_constant():
    # v2: policy-bound EV_CALL markers + meta-policy state (checkpoint PR).
    # v3: each cache's tags as one packed array.
    assert SNAPSHOT_VERSION == 3


def test_restored_cache_tags_equal_captured():
    simcfg = _simcfg()
    sim = _fresh_sim("4-MIX", "dwarn", simcfg)
    sim._begin_window()
    sim.run_cycles(250)
    state = ColumnarState.from_bytes(ColumnarState.capture(sim).to_bytes())
    resumed = _fresh_sim("4-MIX", "dwarn", simcfg)
    state.restore_into(resumed)
    for name in ("icache", "dcache", "l2"):
        captured = getattr(sim.hierarchy, name)._tags
        restored = getattr(resumed.hierarchy, name)._tags
        assert restored == captured
        assert restored is not captured
        assert any(t >= 0 for t in captured)


def test_checkpoint_smaller_than_per_set_lists():
    """The 2-MIX/dwarn checkpoint at cycle 512 of a 200 + 1,200-cycle run
    over 6,000-record traces: with one JSON list per cache set it took
    38,606 bytes; the packed tag arrays must keep it below that."""
    simcfg = SimulationConfig(warmup_cycles=200, measure_cycles=1200, trace_length=6_000)
    sim = _fresh_sim("2-MIX", "dwarn", simcfg)
    sizes: list[int] = []

    def capture(s: Simulator) -> None:
        if not sizes:
            sizes.append(len(checkpoint_to_bytes(s)))

    run_checkpointed(sim, 512, capture)
    assert sizes and sizes[0] < 38_606


def test_bad_tag_array_raises_snapshot_error():
    simcfg = _simcfg()
    sim = _fresh_sim("2-MEM", "icount", simcfg)
    state = ColumnarState.capture(sim)
    state.meta["hierarchy"]["caches"]["l2"]["tags"] = "not base64!"
    with pytest.raises(SnapshotError):
        state.restore_into(_fresh_sim("2-MEM", "icount", simcfg))
    state = ColumnarState.capture(sim)
    caches = state.meta["hierarchy"]["caches"]
    caches["dcache"]["tags"] = caches["l2"]["tags"]  # 8,192 ways for 1,024
    with pytest.raises(SnapshotError):
        state.restore_into(_fresh_sim("2-MEM", "icount", simcfg))


def test_corrupt_payload_raises_snapshot_error():
    simcfg = _simcfg()
    sim = _fresh_sim("2-MEM", "icount", simcfg)
    sim._begin_window()
    sim.run_cycles(100)
    blob = bytearray(ColumnarState.capture(sim).to_bytes())
    blob[-1] ^= 0xFF  # flip one payload byte -> CRC mismatch
    with pytest.raises(SnapshotError):
        ColumnarState.from_bytes(bytes(blob))


def test_truncated_and_bad_magic_raise_snapshot_error():
    simcfg = _simcfg()
    sim = _fresh_sim("2-MEM", "icount", simcfg)
    sim._begin_window()
    sim.run_cycles(100)
    blob = ColumnarState.capture(sim).to_bytes()
    with pytest.raises(SnapshotError):
        ColumnarState.from_bytes(blob[: len(blob) // 2])
    with pytest.raises(SnapshotError):
        ColumnarState.from_bytes(b"XXXX" + blob[4:])


def test_ev_call_closure_in_wheel_is_not_serializable():
    """External ``schedule_call`` closures are code, not data: capture must
    refuse rather than silently drop the pending callback."""
    simcfg = _simcfg()
    sim = _fresh_sim("2-MEM", "icount", simcfg)
    sim._begin_window()
    sim.run_cycles(50)
    sim.schedule_call(sim.cycle + 10, lambda: None)
    with pytest.raises(SnapshotError):
        ColumnarState.capture(sim)
