"""Fetch-unit mechanics: x.y limits, fragmentation, I-cache stalls, machines."""

from __future__ import annotations

import pytest

from repro.config import SimulationConfig, baseline, deep, small
from repro.core import Simulator, make_policy
from repro.workloads import build_programs, build_single, get_workload

CFG = SimulationConfig(warmup_cycles=0, measure_cycles=3000, trace_length=10_000, seed=13)


def fresh(workload, policy="icount", machine=None, simcfg=CFG):
    programs = (
        build_programs(get_workload(workload), simcfg)
        if "-" in workload
        else build_single(workload, simcfg)
    )
    return Simulator(machine or baseline(), programs, make_policy(policy), simcfg)


class TestFetchLimits:
    def test_fetch_width_bound(self):
        sim = fresh("2-ILP")
        prev = 0
        for _ in range(200):
            before = sim.stats.fetch_slots_used
            sim.run_cycles(1)
            fetched = sim.stats.fetch_slots_used - before
            assert fetched <= sim.machine.proc.fetch_width

    def test_single_thread_machine_14(self):
        """On the small machine only one thread fetches per cycle; total
        per-cycle fetch is capped at 4."""
        sim = fresh("4-MIX", machine=small())
        for _ in range(200):
            before = sim.stats.fetch_slots_used
            sim.run_cycles(1)
            assert sim.stats.fetch_slots_used - before <= 4

    def test_fragmentation_limits_single_thread(self):
        """With taken branches every ~6 instructions, a single thread cannot
        keep an 8-wide fetch busy — the effect the paper's 2.8 mechanism and
        DWarn's 2-thread problem both hinge on."""
        sim = fresh("gzip")
        sim.run_cycles(2000)
        fetched = sim.stats.fetch_slots_used
        assert fetched < 8 * 2000 * 0.8  # well below the theoretical peak

    def test_two_threads_fill_more_bandwidth_than_one(self):
        one = fresh("gzip")
        two = fresh("2-ILP")
        one.run_cycles(2000)
        two.run_cycles(2000)
        assert two.stats.fetch_slots_used > one.stats.fetch_slots_used


class TestMachineVariants:
    @pytest.mark.parametrize("machine", [baseline(), small(), deep()])
    def test_all_policies_run_on_all_machines(self, machine):
        for pol in ("icount", "stall", "flush", "dg", "pdg", "dwarn", "dcpred"):
            wl = "2-MIX"
            sim = fresh(wl, pol, machine)
            res = sim.run()
            assert all(c > 0 for c in res.committed), f"{pol} on {machine.name}"

    def test_deep_pipeline_slower_recovery(self):
        """Deeper front end -> costlier mispredicts -> lower single-thread
        IPC for a branchy benchmark, all else equal."""
        b = fresh("gzip", machine=baseline(), simcfg=CFG)
        d = fresh("gzip", machine=deep(), simcfg=CFG)
        rb = b.run()
        rd = d.run()
        assert rd.ipc[0] < rb.ipc[0]

    def test_deep_memory_hurts_mem_threads_more(self):
        cfg = SimulationConfig(warmup_cycles=500, measure_cycles=4000, trace_length=12_000, seed=3)
        rb = fresh("mcf", machine=baseline(), simcfg=cfg).run()
        rd = fresh("mcf", machine=deep(), simcfg=cfg).run()
        # 200-cycle memory vs 100-cycle: mcf should lose far more than the
        # pipeline-depth effect alone.
        assert rd.ipc[0] < rb.ipc[0] * 0.85

    def test_small_machine_lower_throughput(self):
        rb = fresh("4-ILP", machine=baseline()).run()
        rs = fresh("4-ILP", machine=small()).run()
        assert rs.throughput < rb.throughput


def icache_stalls(sim, cycles, monkeypatch):
    """Run ``sim`` for ``cycles`` and count the fetch-stage I-cache probes
    that returned a ready cycle later than the one asked for (misses, or
    fills still in flight). ``MemoryHierarchy`` has ``__slots__``, so the
    wrapper goes on the class; the generated loop reads it through
    ``self.hierarchy`` as the staged path does."""
    from repro.mem import MemoryHierarchy

    orig = MemoryHierarchy.ifetch_ready
    stalls = [0]

    def counting(self, tid, pc, cycle):
        ready = orig(self, tid, pc, cycle)
        if ready > cycle:
            stalls[0] += 1
        return ready

    with monkeypatch.context() as m:
        m.setattr(MemoryHierarchy, "ifetch_ready", counting)
        sim.run_cycles(cycles)
    return stalls[0]


class TestICacheEffects:
    def test_icache_misses_counted(self, monkeypatch):
        assert icache_stalls(fresh("gcc"), 3000, monkeypatch) > 0

    def test_code_footprint_drives_icache_pressure(self, monkeypatch):
        cfg = SimulationConfig(warmup_cycles=0, measure_cycles=4000, trace_length=12_000, seed=7)
        sim_gcc = fresh("gcc", simcfg=cfg)
        sim_gzip = fresh("gzip", simcfg=cfg)
        per_kinstr_gcc = icache_stalls(sim_gcc, 4000, monkeypatch) / max(
            1, sim_gcc.stats.committed[0]
        )
        per_kinstr_gzip = icache_stalls(sim_gzip, 4000, monkeypatch) / max(
            1, sim_gzip.stats.committed[0]
        )
        assert per_kinstr_gcc > per_kinstr_gzip


class TestPipeBackpressure:
    def test_pipe_never_exceeds_capacity(self):
        sim = fresh("4-MEM", "icount")
        for _ in range(60):
            sim.run_cycles(50)
            assert len(sim.pipe) <= sim._pipe_cap

    def test_blocked_rename_stalls_fetch(self):
        """When the pipe is full and rename frees nothing, fetch must stop
        entirely — the rigid in-order front end."""
        sim = fresh("4-MEM", "icount")
        for _ in range(3000):
            sim.run_cycles(1)
            if len(sim.pipe) >= sim._pipe_cap:
                break
        assert len(sim.pipe) >= sim._pipe_cap, "pipe never filled on 4-MEM"
        # Freeze dispatch for one cycle: with the pipe still full, the fetch
        # stage must not fetch a single instruction.
        orig_dispatch = sim._dispatch
        sim._dispatch = lambda: None
        before = sim.stats.fetch_slots_used
        sim.run_cycles(1)
        sim._dispatch = orig_dispatch
        assert sim.stats.fetch_slots_used == before


class TestDelayedMissDetection:
    """The deep machine's '+3 cycles to determine an L1 miss' (§6)."""

    def test_baseline_counts_at_probe(self):
        assert baseline().mem.l1_detect_extra == 0

    def test_deep_preset_has_extra(self):
        assert deep().mem.l1_detect_extra == 3

    def test_counters_stay_balanced_with_delay(self):
        cfg = SimulationConfig(warmup_cycles=0, measure_cycles=3000, trace_length=9000, seed=5)
        sim = fresh("2-MEM", "dwarn", machine=deep(), simcfg=cfg)
        sim.run_cycles(3000)
        sim.validate_state()
        # Drain: stop fetching and let fills land, counters must go to ~0.
        sim.threads[0].fetch_ready_cycle = 10**9
        sim.threads[1].fetch_ready_cycle = 10**9
        sim.run_cycles(1500)
        for tc in sim.threads:
            assert tc.dmiss == 0, "dmiss counter leaked with delayed detection"

    def test_delay_reduces_early_warnings(self):
        """With a detection delay, short (L2-hit) misses that resolve before
        the indication reaches the front end never raise the counter, so
        detection events <= actual L1 misses."""
        cfg = SimulationConfig(warmup_cycles=0, measure_cycles=4000, trace_length=12000, seed=5)
        machine = baseline().with_mem(l1_detect_extra=30)  # exaggerated
        sim = fresh("gzip", "dwarn", machine=machine, simcfg=cfg)
        sim.run_cycles(4000)
        # gzip's misses are almost all L2 hits (11-cycle fills < 30): the
        # counter should essentially never rise.
        counted = sum(
            1 for tc in sim.threads for i in tc.rob if i.dmiss_counted
        )
        assert counted == 0
