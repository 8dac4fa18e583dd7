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
import queue

import pytest

from repro.service import loadtest
from repro.service.client import ServiceClient
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


class TestStreamClientResubmits:
    """A stream client resubmits exactly the chunk specs that got no
    ``done`` line, so every spec is recorded once."""

    SPECS = [{"workload": "2-MIX", "policy": "dwarn", "seed": seed} for seed in range(5)]

    @classmethod
    def _done(cls, index):
        return {
            "index": index, "id": f"s0@j{index}", "state": "done", "source": "store",
            "key": f"k{index}", "spec": cls.SPECS[index], "result": {"throughput": index},
        }

    def _run(self, monkeypatch, stream):
        submitted = []

        def submit(client, spec, deadline=None):
            submitted.append(spec["seed"])
            return {"id": f"s0@r{spec['seed']}", "key": f"k{spec['seed']}"}

        def wait(client, job_id, timeout=60.0):
            return self._done(int(job_id.rpartition("r")[2]))

        monkeypatch.setattr(ServiceClient, "stream", stream)
        monkeypatch.setattr(ServiceClient, "submit", submit)
        monkeypatch.setattr(ServiceClient, "wait", wait)
        work: queue.SimpleQueue = queue.SimpleQueue()
        for spec in self.SPECS:
            work.put(spec)
        work.put(None)
        acct = loadtest._Accounting()
        loadtest._stream_client(0, "127.0.0.1", 1, work, acct)
        recorded = sorted(p.seed for p in acct.manifest.pairs)
        return acct, submitted, recorded

    def test_stream_ending_early(self, monkeypatch):
        """Indices 3 and 4 get no line at all: they are resubmitted along
        with the failed index 1."""

        def stream(client, specs, timeout=300.0):
            yield self._done(0)
            yield {"index": 1, "state": "failed", "error": "shard s1 unavailable"}
            yield self._done(2)

        acct, submitted, recorded = self._run(monkeypatch, stream)
        assert submitted == [1, 3, 4]
        assert recorded == [0, 1, 2, 3, 4]
        assert (acct.completed, acct.resubmits, acct.failed) == (5, 3, 0)

    def test_stream_raising_after_some_lines(self, monkeypatch):
        """A transport error after two done lines resubmits only the other
        three specs; the two done ones are not recorded again."""

        def stream(client, specs, timeout=300.0):
            yield self._done(0)
            yield self._done(2)
            raise OSError("connection reset")

        acct, submitted, recorded = self._run(monkeypatch, stream)
        assert submitted == [1, 3, 4]
        assert recorded == [0, 1, 2, 3, 4]
        assert (acct.completed, acct.resubmits, acct.failed) == (5, 3, 0)


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
