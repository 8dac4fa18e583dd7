"""Tests for the interval-record strips and multi-seed aggregation."""

from __future__ import annotations

import pytest

from repro.config import SimulationConfig, baseline
from repro.core import Simulator, make_policy
from repro.experiments.runner import ExperimentRunner
from repro.metrics import interval_strips, sparkline
from repro.obs import IntervalCollector
from repro.workloads import build_programs, get_workload

CFG = SimulationConfig(warmup_cycles=0, measure_cycles=2000, trace_length=8000, seed=4)


def make_sim(workload="2-MEM", policy="icount"):
    programs = build_programs(get_workload(workload), CFG)
    return Simulator(baseline(), programs, make_policy(policy), CFG)


class TestSparkline:
    def test_empty(self):
        assert sparkline([]) == ""

    def test_constant_series(self):
        s = sparkline([1.0] * 10)
        assert len(s) == 10
        assert len(set(s)) == 1

    def test_min_max_mapping(self):
        s = sparkline([0.0, 1.0])
        assert s[0] == " " and s[-1] == "@"

    def test_downsampling(self):
        s = sparkline(list(map(float, range(300))), width=50)
        assert len(s) == 50


class TestIntervalStrips:
    @pytest.fixture(scope="class")
    def records(self):
        sim = make_sim()
        sim.obs = collector = IntervalCollector(window=200)
        sim.run()
        return collector.records

    def test_per_thread_queue_and_scalar_strips(self, records):
        text = interval_strips(records, ("ipc", "ls_q_free", "free_int_regs"), width=40)
        lines = text.splitlines()
        assert lines[0] == "timeline: 10 samples x 200 cycles"
        assert [line.split("|")[0] for line in lines[1:]] == [
            "  ipc      t0: ",
            "  ipc      t1: ",
            "  ls_q_free   : ",
            "  free_int_regs   : ",
        ]
        ipc0 = [r.ipc[0] for r in records]
        assert lines[1] == (
            f"  ipc      t0: |{sparkline(ipc0, 40)}| [{min(ipc0):.2f}..{max(ipc0):.2f}]"
        )
        ls_free = [float(r.q_free[2]) for r in records]
        assert f"|{sparkline(ls_free, 40)}|" in lines[3]

    def test_no_records(self):
        text = interval_strips([], ("ipc", "ls_q_free"))
        assert text.splitlines()[0] == "timeline: 0 samples x 0 cycles"


class TestMultiSeed:
    def test_aggregation(self, tmp_path):
        runner = ExperimentRunner("baseline", CFG, cache_dir=tmp_path)
        multi = runner.run_multi("2-ILP", "dwarn", seeds=[1, 2, 3])
        assert len(multi) == 3
        assert len(multi.throughputs) == 3
        assert multi.mean_throughput == pytest.approx(
            sum(multi.throughputs) / 3
        )
        assert multi.throughput_stdev >= 0
        assert len(multi.mean_ipc()) == 2

    def test_seeds_cached_individually(self, tmp_path):
        runner = ExperimentRunner("baseline", CFG, cache_dir=tmp_path)
        runner.run_multi("2-ILP", "icount", seeds=[5, 6])
        n = runner.simulations_run
        runner.run_multi("2-ILP", "icount", seeds=[5, 6])
        assert runner.simulations_run == n  # disk-cache hits

    def test_single_seed_stdev_zero(self, tmp_path):
        runner = ExperimentRunner("baseline", CFG, cache_dir=tmp_path)
        multi = runner.run_multi("2-ILP", "icount", seeds=[9])
        assert multi.throughput_stdev == 0.0

    def test_seeds_actually_vary(self, tmp_path):
        runner = ExperimentRunner("baseline", CFG, cache_dir=tmp_path)
        multi = runner.run_multi("2-MIX", "icount", seeds=[1, 2, 3])
        assert len(set(multi.throughputs)) > 1
