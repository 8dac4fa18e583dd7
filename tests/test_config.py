"""Tests for machine/simulation configuration and the three paper presets."""

from __future__ import annotations

import dataclasses

import pytest

from repro.config import (
    CacheConfig,
    MemoryConfig,
    SimulationConfig,
    TLBConfig,
    baseline,
    deep,
    get_preset,
    small,
)


class TestBaselinePreset:
    """Table 3 values, verbatim."""

    def test_widths(self):
        cfg = baseline()
        assert cfg.proc.fetch_width == 8
        assert cfg.proc.issue_width == 8
        assert cfg.proc.commit_width == 8
        assert cfg.proc.fetch_threads == 2  # ICOUNT 2.8

    def test_queues_and_units(self):
        cfg = baseline()
        assert (cfg.proc.int_queue, cfg.proc.fp_queue, cfg.proc.ls_queue) == (32, 32, 32)
        assert (cfg.proc.int_units, cfg.proc.fp_units, cfg.proc.ls_units) == (6, 3, 4)

    def test_registers_and_rob(self):
        cfg = baseline()
        assert cfg.proc.int_regs == 384
        assert cfg.proc.fp_regs == 384
        assert cfg.proc.rob_entries == 256

    def test_branch_predictor(self):
        cfg = baseline()
        assert cfg.proc.branch.gshare_entries == 2048
        assert cfg.proc.branch.btb_entries == 256
        assert cfg.proc.branch.btb_assoc == 4
        assert cfg.proc.branch.ras_entries == 256

    def test_memory(self):
        cfg = baseline()
        assert cfg.mem.icache.size_bytes == 64 * 1024
        assert cfg.mem.dcache.size_bytes == 64 * 1024
        assert cfg.mem.dcache.assoc == 2
        assert cfg.mem.dcache.banks == 8
        assert cfg.mem.l2.size_bytes == 512 * 1024
        assert cfg.mem.l2.latency == 10
        assert cfg.mem.memory_latency == 100
        assert cfg.mem.dtlb.miss_penalty == 160
        assert cfg.mem.l2_declare_cycles == 15
        assert cfg.mem.fill_advance_cycles == 2

    def test_latency_helpers(self):
        cfg = baseline()
        assert cfg.mem.l1_miss_l2_hit_latency == 11
        assert cfg.mem.l2_miss_latency == 111


class TestSmallPreset:
    """§6 'less aggressive' machine: 4-wide, 1.4 fetch, 256 regs."""

    def test_values(self):
        cfg = small()
        assert cfg.proc.fetch_width == 4
        assert cfg.proc.fetch_threads == 1  # 1.4 fetch
        assert cfg.proc.int_regs == 256
        assert (cfg.proc.int_units, cfg.proc.fp_units, cfg.proc.ls_units) == (3, 2, 2)
        assert cfg.proc.max_contexts == 4


class TestDeepPreset:
    """§6 'deeper' machine: 16 stages, 64-entry queues, slower hierarchy."""

    def test_values(self):
        cfg = deep()
        assert cfg.proc.frontend_depth > baseline().proc.frontend_depth
        assert cfg.proc.int_queue == 64
        assert cfg.mem.l2.latency == 15
        assert cfg.mem.memory_latency == 200


class TestPresetRegistry:
    def test_get_preset(self):
        assert get_preset("baseline").name == "baseline"
        assert get_preset("small").name == "small"
        assert get_preset("deep").name == "deep"

    def test_unknown_raises_with_names(self):
        with pytest.raises(KeyError, match="small"):
            get_preset("nope")

    def test_presets_are_hashable_and_distinct(self):
        assert len({baseline(), small(), deep()}) == 3

    def test_presets_validate(self):
        for cfg in (baseline(), small(), deep()):
            cfg.validate()


class TestValidation:
    def test_negative_width_rejected(self):
        with pytest.raises(ValueError, match="fetch_width"):
            dataclasses.replace(baseline().proc, fetch_width=0).validate()

    def test_rename_headroom_required(self):
        with pytest.raises(ValueError, match="rename"):
            dataclasses.replace(baseline().proc, int_regs=256, max_contexts=8).validate()

    def test_cache_power_of_two_sets(self):
        with pytest.raises(ValueError):
            # 24KB 2-way/64B -> 192 sets: not a power of two.
            CacheConfig("x", 24 * 1024, 2, 64).validate()

    def test_cache_line_power_of_two(self):
        with pytest.raises(ValueError, match="line_bytes"):
            CacheConfig("x", 64 * 1024, 2, 48).validate()

    def test_tlb_validation(self):
        with pytest.raises(ValueError):
            TLBConfig(entries=0).validate()
        with pytest.raises(ValueError):
            TLBConfig(page_bytes=3000).validate()

    def test_memory_line_size_mismatch(self):
        mem = dataclasses.replace(
            MemoryConfig(), dcache=CacheConfig("dcache", 64 * 1024, 2, 32)
        )
        with pytest.raises(ValueError, match="line"):
            mem.validate()

    def test_simulation_validation(self):
        with pytest.raises(ValueError):
            SimulationConfig(measure_cycles=0).validate()
        with pytest.raises(ValueError):
            SimulationConfig(warmup_cycles=-1).validate()
        with pytest.raises(ValueError):
            SimulationConfig(trace_length=0).validate()

    def test_history_bits_bounded(self):
        from repro.config.processor import BranchPredictorConfig

        with pytest.raises(ValueError, match="history_bits"):
            BranchPredictorConfig(gshare_entries=256, history_bits=20).validate()


class TestMachineConfigHelpers:
    def test_with_proc(self):
        cfg = baseline().with_proc(fetch_width=4)
        assert cfg.proc.fetch_width == 4
        assert cfg.proc.issue_width == 8  # untouched

    def test_with_mem(self):
        cfg = baseline().with_mem(memory_latency=200)
        assert cfg.mem.memory_latency == 200

    def test_renamed(self):
        assert baseline().renamed("foo").name == "foo"


class TestSimulationConfig:
    def test_total_cycles_default(self):
        cfg = SimulationConfig(warmup_cycles=100, measure_cycles=400)
        assert cfg.total_cycles == 500

    def test_scaled(self):
        cfg = SimulationConfig(warmup_cycles=1000, measure_cycles=10_000).scaled(0.5)
        assert cfg.warmup_cycles == 500
        assert cfg.measure_cycles == 5_000
        cfg.validate()
