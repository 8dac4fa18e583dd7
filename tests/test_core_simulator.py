"""Pipeline-level tests: construction, invariants, determinism, squash safety."""

from __future__ import annotations


import pytest

from repro.config import SimulationConfig, baseline
from repro.core import Simulator, make_policy
from repro.workloads import build_programs, build_single, get_workload


def run_sim(workload, policy="icount", simcfg=None, machine=None):
    simcfg = simcfg or SimulationConfig(
        warmup_cycles=300, measure_cycles=1500, trace_length=6000, seed=777
    )
    machine = machine or baseline()
    if isinstance(workload, str) and "-" in workload:
        programs = build_programs(get_workload(workload), simcfg)
    else:
        programs = build_single(workload, simcfg)
    return Simulator(machine, programs, make_policy(policy), simcfg)


class TestConstruction:
    def test_rejects_empty_workload(self, tiny_simcfg):
        with pytest.raises(ValueError, match="at least one"):
            Simulator(baseline(), [], make_policy("icount"), tiny_simcfg)

    def test_rejects_too_many_threads(self, tiny_simcfg):
        programs = build_programs(get_workload("4-ILP"), tiny_simcfg)
        machine = baseline().with_proc(max_contexts=2)
        with pytest.raises(ValueError, match="max_contexts"):
            Simulator(machine, programs, make_policy("icount"), tiny_simcfg)

    def test_register_arithmetic(self, tiny_simcfg):
        sim = run_sim("4-MIX", simcfg=tiny_simcfg)
        # 384 total minus 32 architectural per context.
        assert sim.free_int_regs == 384 - 4 * 32
        assert sim.free_fp_regs == 384 - 4 * 32

    def test_prewarm_populates_caches(self, tiny_simcfg):
        sim = run_sim("gzip", simcfg=tiny_simcfg)
        assert sim.hierarchy.dcache.occupancy() > 0
        assert sim.hierarchy.l2.occupancy() > 0

    def test_prewarm_can_be_disabled(self):
        cfg = SimulationConfig(
            warmup_cycles=10, measure_cycles=50, trace_length=2048, prewarm_caches=False
        )
        sim = run_sim("gzip", simcfg=cfg)
        assert sim.hierarchy.dcache.occupancy() == 0


class TestProgress:
    def test_commits_instructions(self, tiny_simcfg):
        sim = run_sim("gzip", simcfg=tiny_simcfg)
        res = sim.run()
        assert res.committed[0] > 100
        assert res.ipc[0] > 0.1

    def test_all_threads_progress(self, tiny_simcfg):
        sim = run_sim("4-MIX", simcfg=tiny_simcfg)
        res = sim.run()
        assert all(c > 0 for c in res.committed)

    def test_trace_wraps_seamlessly(self):
        # Trace far shorter than the run: the thread must wrap and keep going.
        cfg = SimulationConfig(
            warmup_cycles=100, measure_cycles=4000, trace_length=1100, seed=3
        )
        sim = run_sim("gzip", simcfg=cfg)
        res = sim.run()
        assert res.committed[0] > 2000  # committed more than the trace length

    def test_commit_limit_stops_early(self):
        cfg = SimulationConfig(
            warmup_cycles=100, measure_cycles=50_000, trace_length=6000,
            commit_limit=500, seed=3,
        )
        sim = run_sim("gzip", simcfg=cfg)
        res = sim.run()
        assert res.cycles < 50_000
        assert max(res.committed) >= 500


class TestDeterminism:
    def test_same_seed_same_result(self, tiny_simcfg):
        r1 = run_sim("2-MIX", "dwarn", tiny_simcfg).run()
        r2 = run_sim("2-MIX", "dwarn", tiny_simcfg).run()
        assert r1.committed == r2.committed
        assert r1.fetched == r2.fetched
        assert r1.ipc == r2.ipc

    def test_different_seed_differs(self):
        a = SimulationConfig(warmup_cycles=300, measure_cycles=1500, trace_length=6000, seed=1)
        b = SimulationConfig(warmup_cycles=300, measure_cycles=1500, trace_length=6000, seed=2)
        r1 = run_sim("2-MIX", "icount", a).run()
        r2 = run_sim("2-MIX", "icount", b).run()
        assert r1.committed != r2.committed


class TestInvariants:
    """Resource-conservation invariants checked after running."""

    @pytest.fixture(scope="class", params=["icount", "flush", "dwarn", "pdg"])
    def finished_sim(self, request):
        cfg = SimulationConfig(
            warmup_cycles=200, measure_cycles=2000, trace_length=6000, seed=42
        )
        sim = run_sim("4-MIX", request.param, cfg)
        sim.run()
        return sim

    def test_queue_occupancy_consistent(self, finished_sim):
        sim = finished_sim
        used = [0, 0, 0]
        from repro.isa.opcodes import QUEUE_OF

        for tc in sim.threads:
            for i in tc.rob:
                if not i.issued:
                    used[QUEUE_OF[i.op]] += 1
        sizes = sim._q_size
        for q in range(3):
            assert sim.q_free[q] + used[q] == sizes[q], f"queue {q} leaked"

    def test_register_accounting(self, finished_sim):
        sim = finished_sim
        held_int = held_fp = 0
        for tc in sim.threads:
            for i in tc.rob:
                if i.dest >= 32:
                    held_fp += 1
                elif i.dest >= 0:
                    held_int += 1
        proc = sim.machine.proc
        n = sim.num_threads
        assert sim.free_int_regs + held_int == proc.int_regs - 32 * n
        assert sim.free_fp_regs + held_fp == proc.fp_regs - 32 * n

    def test_icount_matches_preissue_population(self, finished_sim):
        sim = finished_sim
        pipe_count = [0] * sim.num_threads
        for i in sim.pipe:
            if not i.squashed:
                pipe_count[i.tid] += 1
        for tc in sim.threads:
            waiting = sum(1 for i in tc.rob if not i.issued)
            assert tc.icount == pipe_count[tc.tid] + waiting, f"icount drift t{tc.tid}"

    def test_rob_is_program_ordered(self, finished_sim):
        for tc in finished_sim.threads:
            seqs = [i.seq for i in tc.rob]
            assert seqs == sorted(seqs)

    def test_pipe_counts_match(self, finished_sim):
        sim = finished_sim
        per_tid = [0] * sim.num_threads
        for i in sim.pipe:
            per_tid[i.tid] += 1
        for tc in sim.threads:
            assert tc.pipe_count == per_tid[tc.tid]

    def test_dmiss_counters_nonnegative(self, finished_sim):
        for tc in finished_sim.threads:
            assert tc.dmiss >= 0

    def test_committed_matches_stats(self, finished_sim):
        sim = finished_sim
        for tc in sim.threads:
            assert tc.committed == sim.stats.committed[tc.tid]


class TestResult:
    def test_result_fields(self, tiny_simcfg):
        res = run_sim("2-MIX", "flush", tiny_simcfg).run()
        assert res.machine == "baseline"
        assert res.policy == "flush"
        assert res.benchmarks == ("gzip", "twolf")
        assert res.num_threads == 2
        assert res.throughput == pytest.approx(sum(res.ipc))
        assert res.cycles == 1500

    def test_summary_renders(self, tiny_simcfg):
        res = run_sim("2-MIX", "flush", tiny_simcfg).run()
        text = res.summary()
        assert "gzip" in text and "twolf" in text
        assert "throughput" in text

    def test_window_excludes_warmup(self):
        # With cache pre-warming disabled, a measurement window preceded by a
        # warm-up phase must not count the cold-start stalls that an
        # unwarmed window eats (first-touch code/data misses).
        cfg_short = SimulationConfig(
            warmup_cycles=0, measure_cycles=1000, trace_length=6000, prewarm_caches=False
        )
        cfg_warm = SimulationConfig(
            warmup_cycles=3000, measure_cycles=1000, trace_length=6000, prewarm_caches=False
        )
        cold = run_sim("gzip", "icount", cfg_short).run()
        warm = run_sim("gzip", "icount", cfg_warm).run()
        assert warm.cycles == cold.cycles == 1000
        assert warm.committed[0] > cold.committed[0]


class TestRunControls:
    def test_run_cycles_advances_exactly(self, tiny_simcfg):
        sim = run_sim("gzip", simcfg=tiny_simcfg)
        sim.run_cycles(123)
        assert sim.cycle == 123

    def test_occupancy_shape(self, tiny_simcfg):
        sim = run_sim("2-ILP", simcfg=tiny_simcfg)
        sim.run_cycles(500)
        occ = sim.occupancy()
        assert set(occ) == {
            "free_int_regs", "free_fp_regs", "q_free", "rob", "pipe",
            "icount", "dmiss",
        }
        assert len(occ["rob"]) == 2


class TestPrewarmContents:
    def test_code_footprint_l2_resident(self, tiny_simcfg):
        sim = run_sim("gzip", simcfg=tiny_simcfg)
        tc = sim.threads[0]
        trace = tc.trace
        shift = sim.hierarchy.line_shift
        lines = range(
            trace.code_base >> shift,
            (trace.code_base + trace.code_bytes) >> shift,
        )
        resident = sum(sim.hierarchy.l2.contains(ln) for ln in lines)
        assert resident >= 0.9 * len(list(lines))

    def test_hot_tier_l1_resident(self, tiny_simcfg):
        sim = run_sim("gzip", simcfg=tiny_simcfg)
        tc = sim.threads[0]
        shift = sim.hierarchy.line_shift
        for addr in tc.trace.aspace.l1_resident_lines():
            assert sim.hierarchy.dcache.contains(addr >> shift)

    def test_dtlb_prewarmed(self, tiny_simcfg):
        sim = run_sim("gzip", simcfg=tiny_simcfg)
        tc = sim.threads[0]
        addr = tc.trace.aspace.l1_resident_lines()[0]
        assert sim.hierarchy.dtlb.access(addr)  # hit: page installed

    def test_prewarm_does_not_skew_stats(self, tiny_simcfg):
        sim = run_sim("gzip", simcfg=tiny_simcfg)
        assert sim.hierarchy.l2.accesses == 0
        assert sim.hierarchy.dtlb.accesses == 0


class TestDataAccessRule:
    def test_stages_call_the_hierarchy_access_methods(self, monkeypatch):
        """The load and store stages run every data access through
        ``MemoryHierarchy.load_access``/``store_access``, the methods the
        Table 2(a) calibration replay calls, so the rule is written once.
        The class has ``__slots__``, so the wrappers go on the class."""
        from repro.mem import MemoryHierarchy

        cfg = SimulationConfig(
            warmup_cycles=200, measure_cycles=1000, trace_length=6000, seed=777
        )
        expected = run_sim("2-MEM", "dwarn", simcfg=cfg).run()
        calls = {"load_access": 0, "store_access": 0}
        for name in calls:
            orig = getattr(MemoryHierarchy, name)

            def wrapper(self, *args, _orig=orig, _name=name):
                calls[_name] += 1
                return _orig(self, *args)

            monkeypatch.setattr(MemoryHierarchy, name, wrapper)
        sim = run_sim("2-MEM", "dwarn", simcfg=cfg)
        assert sim._fast_eligible()  # the generated loop, not the staged path
        assert sim.run() == expected
        assert calls["load_access"] >= sum(sim.hierarchy.loads) > 0
        assert calls["store_access"] >= sum(sim.hierarchy.stores) > 0
