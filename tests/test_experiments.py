"""Tests for the experiment harness (runner caching, result objects, CLI).

Experiment *content* at paper scale is exercised by the benchmarks; here we
verify the machinery on very small simulations.
"""

from __future__ import annotations

import pytest

from repro.cli import build_parser, main
from repro.config import SimulationConfig
from repro.experiments import ExperimentRunner
from repro.experiments.runner import ExperimentResult


TINY = SimulationConfig(warmup_cycles=200, measure_cycles=1200, trace_length=5000, seed=21)


@pytest.fixture()
def runner(tmp_path):
    return ExperimentRunner("baseline", TINY, cache_dir=tmp_path)


class TestRunnerCaching:
    def test_memory_cache(self, runner):
        r1 = runner.run("2-MIX", "icount")
        n = runner.simulations_run
        r2 = runner.run("2-MIX", "icount")
        assert runner.simulations_run == n
        assert r1 is r2

    def test_disk_cache_across_runners(self, runner, tmp_path):
        r1 = runner.run("2-MIX", "dwarn")
        fresh = ExperimentRunner("baseline", TINY, cache_dir=tmp_path)
        r2 = fresh.run("2-MIX", "dwarn")
        assert fresh.simulations_run == 0
        assert r2.committed == r1.committed
        assert r2.benchmarks == r1.benchmarks

    def test_different_policies_not_conflated(self, runner):
        r1 = runner.run("2-MIX", "icount")
        r2 = runner.run("2-MIX", "flush")
        assert r1.policy != r2.policy

    def test_corrupt_disk_cache_recovers(self, runner, tmp_path):
        runner.run("2-MIX", "icount")
        for f in tmp_path.glob("*.json"):
            f.write_text("{not json")
        fresh = ExperimentRunner("baseline", TINY, cache_dir=tmp_path)
        res = fresh.run("2-MIX", "icount")
        assert fresh.simulations_run == 1
        assert res.policy == "icount"

    def test_single_benchmark_runs(self, runner):
        res = runner.run_single("gzip")
        assert res.benchmarks == ("gzip",)
        assert res.ipc[0] > 0

    def test_alone_ipc_cached(self, runner):
        a = runner.alone_ipc("gzip")
        n = runner.simulations_run
        b = runner.alone_ipc("gzip")
        assert a == b and runner.simulations_run == n

    def test_fairness_report(self, runner):
        rep = runner.fairness("2-MIX", "dwarn")
        assert len(rep.relative) == 2
        assert 0 < rep.hmean <= max(rep.relative)

    def test_with_machine_switches(self, runner):
        small = runner.with_machine("small")
        assert small.machine.name == "small"
        res = small.run("2-MIX", "icount")
        assert res.machine == "small"

    def test_run_multi_counts_seed_runs_trace_stores(self, tmp_path):
        from repro.trace import clear_trace_cache

        runner = ExperimentRunner(
            "baseline", TINY, cache_dir=tmp_path / "results",
            trace_cache_dir=tmp_path / "traces",
        )
        clear_trace_cache()  # every seed's traces are walked and stored
        runner.run_multi("2-MIX", "icount", seeds=(31, 32))
        # Two seeds x two threads, all stored through the parent's cache.
        assert runner.trace_cache.stats()["stores"] == 4


class TestExperimentResult:
    def make(self, checks=None):
        return ExperimentResult(
            name="x",
            title="Title",
            headers=["a", "b"],
            rows=[[1, 2]],
            notes=["hello"],
            checks=checks or {"works": True},
        )

    def test_to_text(self):
        text = self.make().to_text()
        assert "Title" in text and "[PASS] works" in text and "note: hello" in text

    def test_to_markdown(self):
        md = self.make().to_markdown()
        assert md.startswith("### Title")
        assert "| a" in md
        assert "**pass**" in md

    def test_all_checks_pass(self):
        assert self.make().all_checks_pass
        assert not self.make({"ok": True, "nope": False}).all_checks_pass
        assert "MISS" in self.make({"nope": False}).to_text()


class TestCLI:
    def test_parser_lists_experiments(self):
        parser = build_parser()
        for cmd in ("run", "compare", "report", "list", "table2a", "figure1"):
            assert cmd in parser.format_help()

    def test_list_command(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "4-MIX" in out and "dwarn" in out and "baseline" in out

    def test_run_command(self, capsys):
        rc = main([
            "--warmup", "200", "--cycles", "1000", "--trace-length", "5000",
            "run", "gzip", "--policy", "icount",
        ])
        assert rc == 0
        assert "gzip" in capsys.readouterr().out

    def test_compare_command(self, capsys):
        rc = main([
            "--warmup", "100", "--cycles", "600", "--trace-length", "4000",
            "compare", "2-ILP",
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "dwarn" in out and "flush" in out


class TestCLIExperiment:
    def test_table2a_subcommand(self, capsys):
        rc = main([
            "--warmup", "100", "--cycles", "500", "--trace-length", "3000",
            "table2a",
        ])
        out = capsys.readouterr().out
        assert "Table 2(a)" in out
        assert rc in (0, 1)  # checks may miss at this tiny scale


class TestProfilingUtil:
    def test_cycles_per_second(self):
        from repro.utils.profiling import cycles_per_second

        cps = cycles_per_second("2-ILP", "icount", cycles=400)
        assert cps > 500

    def test_profile_simulation_output(self):
        from repro.utils.profiling import profile_simulation

        text = profile_simulation("2-ILP", "icount", cycles=300, top=5)
        assert "function calls" in text
