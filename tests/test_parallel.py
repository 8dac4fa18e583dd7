"""Tests for the process-pool sweep executor: widest-first dispatch,
streaming completion, fault tolerance (worker death, failing pairs), and
prefetch cache semantics."""

from __future__ import annotations

import os

import pytest

from repro.config import SimulationConfig
from repro.experiments import (
    ExperimentRunner,
    SweepError,
    prefetch,
    run_pairs,
    sweep_pairs,
)
from repro.experiments.parallel import _simulate_one

TINY = SimulationConfig(warmup_cycles=100, measure_cycles=700, trace_length=4000, seed=3)

_KILL_FLAG_ENV = "DWARN_TEST_KILL_FLAG"
_KILL_PAIR_ENV = "DWARN_TEST_KILL_WL"


def _killing_worker(machine, simcfg, workload, policy, trace_cache_dir=None):
    """Worker that hard-kills its process (no exception, no cleanup — like
    an OOM kill) the first time it sees the designated workload."""
    flag = os.environ.get(_KILL_FLAG_ENV)
    if flag and os.path.exists(flag) and workload == os.environ.get(_KILL_PAIR_ENV):
        os.remove(flag)  # once only: the retry must succeed
        os._exit(42)
    return _simulate_one(machine, simcfg, workload, policy, trace_cache_dir)


def _failing_worker(machine, simcfg, workload, policy, trace_cache_dir=None):
    """Worker that deterministically raises for one (workload, policy)."""
    if (workload, policy) == ("2-MIX", "dwarn"):
        raise ValueError("injected failure")
    return _simulate_one(machine, simcfg, workload, policy, trace_cache_dir)


def _raise_once_worker(machine, simcfg, workload, policy, trace_cache_dir=None):
    """Worker that raises (cleanly, unlike a kill) while the flag file
    exists — a transient failure the bounded retry must absorb."""
    flag = os.environ.get(_KILL_FLAG_ENV)
    if flag and os.path.exists(flag) and workload == os.environ.get(_KILL_PAIR_ENV):
        os.remove(flag)
        raise RuntimeError("transient failure")
    return _simulate_one(machine, simcfg, workload, policy, trace_cache_dir)


class TestSweepPairs:
    def test_baseline_pairs(self):
        runner = ExperimentRunner("baseline", TINY)
        pairs = sweep_pairs(runner, ("icount", "dwarn"))
        wls = {wl for wl, _ in pairs}
        assert "8-MEM" in wls and "2-ILP" in wls
        # 12 workloads x 2 policies + 12 single baselines
        assert len(pairs) == 12 * 2 + 12

    def test_small_machine_pairs(self):
        runner = ExperimentRunner("small", TINY)
        pairs = sweep_pairs(runner, ("icount",), include_singles=False)
        assert {wl for wl, _ in pairs} == {
            "2-ILP", "2-MIX", "2-MEM", "4-ILP", "4-MIX", "4-MEM",
        }


class TestRunPairs:
    def test_serial_path(self):
        runner = ExperimentRunner("baseline", TINY)
        out = run_pairs(runner.machine, TINY, [("2-ILP", "icount")], processes=1)
        assert len(out) == 1
        wl, pol, res = out[0]
        assert (wl, pol) == ("2-ILP", "icount")
        assert res.throughput > 0

    def test_parallel_matches_serial(self):
        runner = ExperimentRunner("baseline", TINY)
        pairs = [("2-ILP", "icount"), ("2-MIX", "dwarn"), ("gzip", "icount")]
        serial = run_pairs(runner.machine, TINY, pairs, processes=1)
        parallel = run_pairs(runner.machine, TINY, pairs, processes=2)
        s = {(w, p): r.committed for w, p, r in serial}
        q = {(w, p): r.committed for w, p, r in parallel}
        assert s == q  # determinism across process boundaries

    def test_empty(self):
        runner = ExperimentRunner("baseline", TINY)
        assert run_pairs(runner.machine, TINY, [], processes=2) == []

    def test_widest_workload_first(self):
        # The serial path dispatches in scheduling order: widest first,
        # equal widths in the order given, a lone benchmark as one thread.
        runner = ExperimentRunner("baseline", TINY)
        started: list[str] = []
        run_pairs(
            runner.machine, TINY,
            [("gzip", "icount"), ("2-ILP", "icount"), ("4-MIX", "icount"), ("2-MIX", "icount")],
            processes=1,
            progress=lambda done, total, wl, pol, secs: started.append(wl),
        )
        assert started == ["4-MIX", "2-ILP", "2-MIX", "gzip"]


class TestPrefetch:
    def test_fills_caches(self, tmp_path):
        runner = ExperimentRunner("baseline", TINY, cache_dir=tmp_path)
        pairs = [("2-ILP", "icount"), ("2-ILP", "dwarn")]
        n = prefetch(runner, pairs, processes=2)
        assert n == 2
        # The cache directory holds the two results and nothing else.
        assert sorted(tmp_path.iterdir()) == sorted(
            runner._disk_path(runner._key(wl, pol)) for wl, pol in pairs
        )
        before = runner.simulations_run
        runner.run("2-ILP", "icount")  # cache hit
        assert runner.simulations_run == before

    def test_skips_cached(self, tmp_path):
        runner = ExperimentRunner("baseline", TINY, cache_dir=tmp_path)
        runner.run("2-ILP", "icount")
        n = prefetch(runner, [("2-ILP", "icount")], processes=2)
        assert n == 0

    def test_dedupes(self, tmp_path):
        runner = ExperimentRunner("baseline", TINY, cache_dir=tmp_path)
        n = prefetch(runner, [("2-MIX", "flush")] * 3, processes=2)
        assert n == 1

    def test_prefetched_equals_direct(self, tmp_path):
        r1 = ExperimentRunner("baseline", TINY, cache_dir=tmp_path / "a")
        prefetch(r1, [("2-MEM", "dwarn")], processes=2)
        via_pool = r1.run("2-MEM", "dwarn")
        r2 = ExperimentRunner("baseline", TINY, cache_dir=tmp_path / "b")
        direct = r2.run("2-MEM", "dwarn")
        assert via_pool.committed == direct.committed

    def test_disk_hits_installed_into_memory_cache(self, tmp_path):
        # A pair already on disk must be parsed once and *kept* (the old
        # code parsed it in the skip-check, discarded it, and re-parsed on
        # every later runner.run).
        r1 = ExperimentRunner("baseline", TINY, cache_dir=tmp_path)
        r1.run("2-ILP", "icount")
        r2 = ExperimentRunner("baseline", TINY, cache_dir=tmp_path)
        executed = prefetch(r2, [("2-ILP", "icount")], processes=2)
        assert executed == 0
        key = r2._key("2-ILP", "icount")
        assert key in r2._mem_cache
        assert r2._mem_cache[key].committed == r1.run("2-ILP", "icount").committed

    def test_prefetch_with_trace_cache_matches(self, tmp_path):
        from repro.trace import clear_trace_cache

        # Forked workers inherit this process's in-memory trace memo; clear
        # it so the workers actually exercise the generate-and-persist path.
        clear_trace_cache()
        r1 = ExperimentRunner(
            "baseline", TINY, cache_dir=tmp_path / "a",
            trace_cache_dir=tmp_path / "traces",
        )
        prefetch(r1, [("2-MEM", "dwarn")], processes=2)
        r2 = ExperimentRunner("baseline", TINY, cache_dir=tmp_path / "b")
        assert r1.run("2-MEM", "dwarn").committed == r2.run("2-MEM", "dwarn").committed
        # Workers persisted their generated traces for the next sweep.
        assert r1.trace_cache.stats()["entries"] > 0

    def test_seed_sweep_feeds_run_multi(self, tmp_path):
        from repro.experiments import prefetch_seed_sweep

        seeds = (111, 222)
        runner = ExperimentRunner("baseline", TINY, cache_dir=tmp_path)
        n = prefetch_seed_sweep(
            runner, [("2-ILP", "icount")], seeds, processes=2
        )
        assert n == len(seeds)
        before = runner.simulations_run
        multi = runner.run_multi("2-ILP", "icount", seeds)  # all cache hits
        assert runner.simulations_run == before
        assert len(multi.throughputs) == len(seeds)
        # Parity with an uncached runner, per seed.
        fresh = ExperimentRunner("baseline", TINY, cache_dir=tmp_path / "fresh")
        ref = fresh.run_multi("2-ILP", "icount", seeds)
        assert multi.throughputs == ref.throughputs

    def test_progress_callback_streams(self, tmp_path):
        runner = ExperimentRunner("baseline", TINY, cache_dir=tmp_path)
        seen = []
        prefetch(
            runner,
            [("2-ILP", "icount"), ("2-ILP", "dwarn"), ("gzip", "icount")],
            processes=2,
            progress=lambda done, total, wl, pol, secs: seen.append((done, total)),
        )
        assert [d for d, _ in seen] == [1, 2, 3]
        assert all(t == 3 for _, t in seen)


class TestFaultTolerance:
    def test_worker_death_is_retried(self, tmp_path, monkeypatch):
        """Kill one worker process mid-sweep (os._exit, as an OOM killer
        would): the pool is rebuilt, the pair re-queued, and the sweep still
        completes with correct results."""
        flag = tmp_path / "kill-once"
        flag.touch()
        monkeypatch.setenv(_KILL_FLAG_ENV, str(flag))
        monkeypatch.setenv(_KILL_PAIR_ENV, "2-MIX")
        runner = ExperimentRunner("baseline", TINY)
        pairs = [("2-ILP", "icount"), ("2-MIX", "dwarn"), ("gzip", "icount")]
        out = run_pairs(runner.machine, TINY, pairs, processes=2, worker=_killing_worker)
        assert not flag.exists()  # the kill really fired
        got = {(w, p): r.committed for w, p, r in out}
        ref = {
            (w, p): r.committed
            for w, p, r in run_pairs(runner.machine, TINY, pairs, processes=1)
        }
        assert got == ref

    def test_failing_pair_is_named(self, tmp_path):
        runner = ExperimentRunner("baseline", TINY)
        pairs = [("2-ILP", "icount"), ("2-MIX", "dwarn"), ("gzip", "icount")]
        with pytest.raises(SweepError) as exc_info:
            run_pairs(runner.machine, TINY, pairs, processes=2, worker=_failing_worker)
        err = exc_info.value
        assert (err.workload, err.policy) == ("2-MIX", "dwarn")
        assert "2-MIX" in str(err) and "dwarn" in str(err)

    def test_failing_pair_serial_path(self):
        runner = ExperimentRunner("baseline", TINY)
        with pytest.raises(SweepError) as exc_info:
            run_pairs(
                runner.machine, TINY, [("2-MIX", "dwarn")], processes=1,
                worker=_failing_worker,
            )
        assert exc_info.value.workload == "2-MIX"

    def test_failing_pair_names_seed(self):
        """Regression: the error must name the seed, not just the pair —
        a multi-seed sweep can fail under one seed and pass under others."""
        runner = ExperimentRunner("baseline", TINY)
        for processes in (1, 2):
            with pytest.raises(SweepError) as exc_info:
                run_pairs(
                    runner.machine, TINY, [("2-MIX", "dwarn")],
                    processes=processes, worker=_failing_worker,
                )
            err = exc_info.value
            assert err.seed == TINY.seed  # simcfg seed when no label given
            assert f"seed={TINY.seed}" in str(err)

    def test_failing_pair_seed_label_overrides(self):
        """An explicit seed label (prefetch_seed_sweep's case) wins."""
        runner = ExperimentRunner("baseline", TINY)
        with pytest.raises(SweepError) as exc_info:
            run_pairs(
                runner.machine, TINY, [("2-MIX", "dwarn")], processes=1,
                worker=_failing_worker, seed=909,
            )
        assert exc_info.value.seed == 909
        assert "seed=909" in str(exc_info.value)

    def test_transient_exception_is_retried(self, tmp_path, monkeypatch):
        # The worker raises exactly once: the one retry a pair gets
        # re-queues it, the attempt succeeds and the sweep completes.
        flag = tmp_path / "raise-once"
        flag.touch()
        monkeypatch.setenv(_KILL_FLAG_ENV, str(flag))
        monkeypatch.setenv(_KILL_PAIR_ENV, "gzip")
        runner = ExperimentRunner("baseline", TINY)
        out = run_pairs(
            runner.machine, TINY, [("gzip", "icount")], processes=2,
            worker=_raise_once_worker,
        )
        assert not flag.exists()
        assert len(out) == 1 and out[0][2].throughput > 0

