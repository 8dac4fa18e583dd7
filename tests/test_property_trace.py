"""Property-based tests for the trace substrate across benchmarks and seeds."""

from __future__ import annotations

from hypothesis import HealthCheck, given, settings, strategies as st

from repro.isa.opcodes import BranchKind, OpClass
from repro.isa.registers import REG_NONE
from repro.trace import PROFILES, RECORD_FIELDS, generate_trace, get_profile

BENCH = st.sampled_from(sorted(PROFILES))
SEED = st.integers(min_value=0, max_value=2**20)


def _columns(trace) -> dict[str, list]:
    """The trace's columns by field name: one value per record."""
    return dict(zip(RECORD_FIELDS, trace.cols))


@settings(max_examples=20, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(bench=BENCH, seed=SEED, tid=st.integers(min_value=0, max_value=7))
def test_successor_consistency_property(bench, seed, tid):
    """trace[i+1] is always the architectural successor of trace[i]."""
    trace = generate_trace(get_profile(bench), 1500, base=tid << 30, seed=seed)
    t = _columns(trace)
    for i in range(len(trace) - 1):
        if t["op"][i] == OpClass.BRANCH:
            expected = t["target"][i] if t["taken"][i] else t["pc"][i] + 4
        else:
            expected = t["pc"][i] + 4
        assert t["pc"][i + 1] == expected


@settings(max_examples=20, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(bench=BENCH, seed=SEED)
def test_record_wellformedness_property(bench, seed):
    """Every record satisfies the structural contract the simulator assumes."""
    trace = generate_trace(get_profile(bench), 1200, base=1 << 30, seed=seed)
    for op, _, dest, _, _, addr, brkind, taken, target in zip(*trace.cols):
        if op in (OpClass.LOAD, OpClass.STORE):
            assert addr >> 30 == 1  # inside the thread's slice
        if op == OpClass.STORE:
            assert dest == REG_NONE
        if op == OpClass.LOAD:
            assert 0 <= dest < 28
        if op == OpClass.FP:
            assert dest >= 32
        if op != OpClass.BRANCH:
            assert brkind == BranchKind.NONE
        else:
            assert brkind != BranchKind.NONE
            if taken:
                assert target > 0


@settings(max_examples=15, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(bench=BENCH, seed=SEED)
def test_wrap_patch_property(bench, seed):
    t = _columns(generate_trace(get_profile(bench), 900, base=2 << 30, seed=seed))
    last = len(t["op"]) - 1
    assert t["brkind"][last] == BranchKind.JUMP
    assert t["target"][last] == t["pc"][0]


@settings(max_examples=10, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(bench=BENCH, seed=SEED)
def test_generation_deterministic_property(bench, seed):
    from repro.trace import clear_trace_cache

    a = _columns(generate_trace(get_profile(bench), 600, base=0, seed=seed))
    sig_a = (a["pc"][:100], a["addr"][:100])
    clear_trace_cache()
    b = _columns(generate_trace(get_profile(bench), 600, base=0, seed=seed))
    assert sig_a == (b["pc"][:100], b["addr"][:100])
