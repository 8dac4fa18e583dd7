"""Rolling-restart drain correctness through the router, via the load
harness.

The scale-out acceptance criterion: with clients continuously submitting a
mixed-duplicate stream through a 2-shard router, restarting *both* shards
mid-run (SIGTERM drain -> relaunch at the same address) must lose nothing
and duplicate nothing. ``dwarn-sim loadtest --rolling-restart`` is that
scenario end to end — harness-owned shards so each can be relaunched on
its original port — and its ``BENCH_service.json`` report carries the
evidence: per-key result sets of size one (exactly-once), zero failed
jobs, and a restart count covering every shard.

This runs a real fleet (3 daemons + threads of real HTTP clients), so it
is the most expensive test in tier-1 — kept to ~80 tiny jobs.
"""

from __future__ import annotations

import json

import pytest

from repro.service import loadtest
from repro.service.loadtest import BENCH_SCHEMA, LoadTestConfig, build_spec_pool, run_loadtest


class TestRollingRestartDrain:
    def test_restart_both_shards_exactly_once(self, tmp_path):
        out = tmp_path / "bench.json"
        cfg = LoadTestConfig(
            shards=2,
            clients=8,
            stream_clients=1,
            jobs=80,
            unique=12,
            rolling_restart=True,
            out=str(out),
            state_dir=str(tmp_path / "state"),
            seed=7,
        )
        assert run_loadtest(cfg) == 0

        report = json.loads(out.read_text())
        assert report["schema"] == BENCH_SCHEMA
        assert report["jobs"]["requested"] == 80
        assert report["jobs"]["completed"] == 80
        assert report["jobs"]["failed"] == 0
        assert report["dedup"]["exactly_once"] is True
        assert report["dedup"]["unique_specs"] == 12
        assert report["dedup"]["distinct_results"] == 12
        assert report["rolling_restart"] == {"enabled": True, "restarts": 2}
        assert set(report["per_shard"]) == {"s0", "s1"}
        assert report["latency"]["p95"] >= report["latency"]["p50"] >= 0.0
        assert report["throughput"]["jobs_per_min"] > 0

        # Every submission was accounted to a source, and the shards'
        # result stores served repeats (coalesced duplicates report their
        # underlying job's source, so "simulated" counts submissions, not
        # executions — exactly-once above is the execution-count proof).
        by_source = report["by_source"]
        assert sum(by_source.values()) == 80
        assert by_source.get("store", 0) > 0


class TestHarnessConfig:
    def test_spec_pool_is_deterministic_and_unique(self):
        cfg = LoadTestConfig(unique=24)
        pool = build_spec_pool(cfg)
        assert pool == build_spec_pool(cfg)
        assert len(pool) == 24
        keys = {(s["workload"], s["policy"], s["seed"]) for s in pool}
        assert len(keys) == 24

    def test_external_router_refuses_rolling_restart(self, capsys):
        cfg = LoadTestConfig(router_url="http://127.0.0.1:1", rolling_restart=True)
        assert run_loadtest(cfg) == 2
        assert "rolling-restart" in capsys.readouterr().err

    def test_bad_router_url_rejected(self):
        cfg = LoadTestConfig(router_url="nonsense")
        assert run_loadtest(cfg) == 2


class TestFailedBoot:
    def test_router_without_port_stops_every_started_daemon(self, tmp_path, monkeypatch):
        """The router never reports a port: ``run_loadtest`` raises, and
        the shards and router it already started have all exited."""
        started: list[loadtest._Proc] = []
        real_start = loadtest._Proc.start
        real_await_port = loadtest._Proc.await_port

        def start(proc):
            real_start(proc)
            started.append(proc)

        def await_port(proc, timeout=30.0):
            if proc.name == "router":
                raise RuntimeError("router did not report a port")
            return real_await_port(proc, timeout)

        monkeypatch.setattr(loadtest._Proc, "start", start)
        monkeypatch.setattr(loadtest._Proc, "await_port", await_port)
        cfg = LoadTestConfig(shards=2, jobs=1, state_dir=str(tmp_path / "state"))
        try:
            with pytest.raises(RuntimeError, match="router"):
                run_loadtest(cfg)
            assert [p.name for p in started] == ["s0", "s1", "router"]
            leaked = [p.name for p in started if p.proc.poll() is None]
            assert not leaked, f"daemons leaked: {leaked}"
        finally:
            for p in started:
                if p.proc.poll() is None:
                    p.proc.kill()
                    p.proc.wait(timeout=10)


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(pytest.main([__file__, "-v"]))
