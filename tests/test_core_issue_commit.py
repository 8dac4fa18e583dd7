"""Back-end mechanics: issue-width/FU limits, commit width, load timing paths."""

from __future__ import annotations


from repro.config import SimulationConfig, baseline
from repro.core import Simulator, make_policy
from repro.isa.opcodes import OpClass
from repro.mem import Cache, MemoryHierarchy
from repro.workloads import build_programs, build_single, get_workload

CFG = SimulationConfig(warmup_cycles=0, measure_cycles=2500, trace_length=9000, seed=23)


def fresh(workload="2-ILP", policy="icount", machine=None, simcfg=CFG):
    programs = (
        build_programs(get_workload(workload), simcfg)
        if "-" in workload
        else build_single(workload, simcfg)
    )
    return Simulator(machine or baseline(), programs, make_policy(policy), simcfg)


class TestIssueLimits:
    def test_issue_width_respected(self):
        sim = fresh("4-ILP")
        prev = 0
        for _ in range(400):
            sim.run_cycles(1)
            issued = sim.stats.issued - prev
            prev = sim.stats.issued
            assert issued <= sim.machine.proc.issue_width

    def test_fu_class_limits(self):
        """Per-cycle issues per class never exceed the FU count."""
        sim = fresh("4-MIX")
        from repro.isa.opcodes import QUEUE_OF

        per_class = [0, 0, 0]
        orig = sim._execute_load

        # Count by wrapping the ready-heap pops: simplest reliable probe is
        # the issue_cycle stamps after the fact.
        sim.run_cycles(1500)
        by_cycle: dict[tuple[int, int], int] = {}
        for tc in sim.threads:
            for i in tc.rob:
                if i.issued:
                    key = (i.issue_cycle, QUEUE_OF[i.op])
                    by_cycle[key] = by_cycle.get(key, 0) + 1
        units = sim._units
        for (cyc, q), count in by_cycle.items():
            assert count <= units[q], f"cycle {cyc} class {q}: {count} > {units[q]}"

    def test_issue_is_oldest_first_within_class(self):
        sim = fresh("2-ILP")
        # Issue order must respect dataflow, and among simultaneously-ready
        # instrs, age order. Proxy check: every instruction issues no
        # earlier than the cycle after it dispatched.
        dispatched_at = {}
        orig = sim._dispatch

        def spy_dispatch():
            pending = list(sim.pipe)
            orig()
            for i in pending:
                if i.dispatched:
                    dispatched_at[i] = sim.cycle

        sim._dispatch = spy_dispatch
        sim.run_cycles(800)
        issued = [(i, cyc) for i, cyc in dispatched_at.items() if i.issued]
        assert issued
        for i, cyc in issued:
            assert i.issue_cycle >= cyc + 1


class TestCommit:
    def test_commit_width_respected(self):
        sim = fresh("4-ILP")
        prev = [0] * 4
        for _ in range(400):
            sim.run_cycles(1)
            total = sum(sim.stats.committed) - sum(prev)
            prev = list(sim.stats.committed)
            assert total <= sim.machine.proc.commit_width

    def test_commit_is_in_order_per_thread(self):
        """Committed count can never exceed the oldest uncommitted seq."""
        sim = fresh("2-ILP")
        checked = 0
        for _ in range(20):
            sim.run_cycles(50)
            for tc in sim.threads:
                if tc.rob:
                    # Everything older than the ROB head has committed
                    # (correct path) or was squashed; committed instructions
                    # are a prefix of the architectural stream, whose length
                    # is the thread's committed count.
                    assert tc.rob[0].idx >= sim.stats.committed[tc.tid]
                    checked += 1
        assert checked

    def test_rotating_commit_start_is_fair(self):
        sim = fresh("8-ILP")
        sim.run_cycles(3000)
        committed = sim.stats.committed
        assert min(committed) > 0
        # Loose bound at this tiny scale (threads warm up at different
        # speeds); systematic starvation would blow way past this.
        assert max(committed) < 50 * max(1, min(committed))


class TestLoadTimingInPipeline:
    def test_l2_missing_load_takes_memory_latency(self):
        sim = fresh("mcf", simcfg=CFG)
        completed_at = {}
        orig = sim._complete

        def spy_complete(i):
            completed_at[i] = sim.cycle
            orig(i)

        sim._complete = spy_complete
        sim.run_cycles(2500)
        # Find completed L2-missing loads and check their lifetime.
        long_loads = 0
        for tc in sim.threads:
            for i in tc.rob:
                if i.op == OpClass.LOAD and i.l2_miss and i.completed:
                    dur = completed_at[i] - i.issue_cycle
                    assert dur >= sim.machine.mem.l2_miss_latency - 1
                    long_loads += 1
        # mcf misses constantly; the window should contain some in-ROB.
        # (not asserting >0 strictly: commit may have drained them)

    def test_tlb_miss_charged(self, monkeypatch):
        """D-TLB misses happen and each one adds the walk penalty to the
        load. ``MemoryHierarchy`` has ``__slots__``: wrap on the class."""
        orig = MemoryHierarchy.load_access
        latencies = []

        def spy(self, *args):
            out = orig(self, *args)
            if out[4]:  # tlb_miss
                latencies.append(out[0])
            return out

        monkeypatch.setattr(MemoryHierarchy, "load_access", spy)
        sim = fresh("mcf", simcfg=CFG)
        sim.run_cycles(2500)
        assert latencies
        assert min(latencies) > sim.machine.mem.dtlb.miss_penalty

    def test_bank_conflicts_occur_under_load(self, monkeypatch):
        """Eight ILP threads issue enough loads per cycle that some find
        their D-cache bank already taken."""
        orig = Cache.bank_conflict
        conflicts = [0]

        def spy(self, line_addr, cycle):
            hit = orig(self, line_addr, cycle)
            conflicts[0] += hit
            return hit

        monkeypatch.setattr(Cache, "bank_conflict", spy)
        sim = fresh("8-ILP")
        sim.run_cycles(2500)
        assert conflicts[0] > 0


class TestGatingMixinRules:
    def test_keep_one_running(self):
        sim = fresh("2-MEM", "stall")
        pol = sim.policy
        # Gate thread 0 artificially; gating thread 1 must then be refused.
        pol._gate_count[0] = 1
        assert not pol.can_gate(1)
        assert pol.can_gate(0)  # 1 is still running
        pol._gate_count[0] = 0

    def test_gate_until_fill_refuses_past_fills(self):
        from repro.isa.instruction import DynInstr

        sim = fresh("2-MEM", "stall")
        load = DynInstr(0, 1, 1, int(OpClass.LOAD), 0x100)
        load.fill_cycle = sim.cycle  # already (about to be) filled
        assert not sim.policy.gate_until_fill(load)

    def test_gate_ungates_at_advance_signal(self):
        from repro.isa.instruction import DynInstr

        sim = fresh("2-MEM", "stall")
        load = DynInstr(0, 1, 1, int(OpClass.LOAD), 0x100)
        load.fill_cycle = sim.cycle + 50
        assert sim.policy.gate_until_fill(load)
        assert sim.policy.is_gated(0)
        sim.run_cycles(50 - sim.machine.mem.fill_advance_cycles + 1)
        assert not sim.policy.is_gated(0)

    def test_gated_cycles_stat(self):
        from repro.isa.instruction import DynInstr

        sim = fresh("2-MEM", "stall")
        load = DynInstr(0, 1, 1, int(OpClass.LOAD), 0x100)
        load.fill_cycle = sim.cycle + 30
        before = sim.stats.gated_cycles[0]
        sim.policy.gate_until_fill(load)
        assert sim.stats.gated_cycles[0] == before + 30 - sim.machine.mem.fill_advance_cycles
