"""The daemon's local dispatcher: one job at a time through
``simulate_resumable``.

The daemon runs on the test's own event loop, as in
tests/test_service_longpoll.py, so ``python -X dev -m pytest`` (asyncio
debug mode) watches the ``asyncio.to_thread`` call each local job awaits.
The jobs of a scenario are admitted with ``_admit`` and no ``await`` in
between, so the dispatcher finds them queued together. ``Simulator.run``
is patched per policy to fail or to hold a job mid-run, and a real
checkpoint is planted in the resume table to test a local resume.
"""

from __future__ import annotations

import asyncio
import base64
import threading
import time

from repro.core import Simulator
from repro.core.columnar import checkpoint_to_bytes
from repro.experiments.parallel import simulate_resumable
from repro.service.protocol import Checkpoint, JobSpec, JobState, result_payload
from repro.trace import clear_trace_cache, synthetic

from test_service_e2e import TINY
from test_service_longpoll import _boot, _call, _drain


def _admit_all(svc, policies: tuple[str, ...]) -> list:
    """Queue one job per policy in a single config group, without yielding
    to the event loop between them."""
    jobs = []
    for pol in policies:
        spec = JobSpec.from_dict({"workload": "2-MIX", "policy": pol, "seed": 31, **TINY})
        job, queued = svc._admit(spec, 0)
        assert queued
        jobs.append(job)
    return jobs


async def _until(predicate, timeout: float = 30.0) -> None:
    deadline = time.monotonic() + timeout
    while not predicate():
        assert time.monotonic() < deadline, "dispatcher made no progress"
        await asyncio.sleep(0.005)


class TestLocalDispatcher:
    def test_metrics_count_the_trace_memo(self):
        """After a local job, ``/metrics`` reports the records the trace
        memo holds: the sum of the memoized traces' lengths."""
        clear_trace_cache()

        async def scenario():
            svc, task = await _boot()
            (job,) = _admit_all(svc, ("icount",))
            await _until(lambda: job.state in JobState.TERMINAL)
            status, metrics, _ = await _call(svc, "GET", "/metrics")
            await _drain(svc, task)
            assert status == 200
            return job, metrics["traces"]

        job, traces = asyncio.run(scenario())
        assert job.state == "done"
        memo = list(synthetic._TRACE_CACHE.values())
        assert traces["memoized"] == len(memo) == 2  # 2-MIX: two threads
        assert traces["records"] == sum(t.length for t in memo) == 2 * TINY["trace_length"]
        assert traces["generated"] >= 1

    def test_failing_job_fails_alone(self, monkeypatch):
        """A simulation that raises fails its own job; the job queued with
        it still completes and is stored."""
        run = Simulator.run

        def failing_flush(sim):
            if sim.policy.name == "flush":
                raise RuntimeError("injected flush failure")
            return run(sim)

        monkeypatch.setattr(Simulator, "run", failing_flush)

        async def scenario():
            svc, task = await _boot()
            jobs = _admit_all(svc, ("dwarn", "flush"))
            await _until(lambda: all(j.state in JobState.TERMINAL for j in jobs))
            await _drain(svc, task)
            return svc, jobs

        svc, (dwarn, flush) = asyncio.run(scenario())
        assert [(j.spec.policy, j.state) for j in (dwarn, flush)] == [
            ("dwarn", "done"),
            ("flush", "failed"),
        ]
        assert dwarn.source == "simulated" and dwarn.result["throughput"] > 0
        pair = svc.store.get_by_key(dwarn.key)["pair"]
        assert set(pair) == {
            "sweep", "workload", "policy", "source", "secs", "retries", "seed", "resumed_from"
        }
        assert (pair["sweep"], pair["source"], pair["seed"]) == ("service", "simulated", 31)
        assert pair["resumed_from"] == 0  # the worker upload path's shape
        assert "injected flush failure" in flush.error
        assert "(2-MIX, flush, seed=31)" in flush.error
        assert svc.counters["batches"] == 2  # one local execution per job
        assert svc.counters["completed"] == 1 and svc.counters["failed"] == 1

    def test_drain_finishes_only_the_job_in_flight(self, monkeypatch):
        """A drain lets the running local job finish and cancels the jobs
        still queued behind it, even those queued in its config group."""
        entered, release = threading.Event(), threading.Event()
        run = Simulator.run

        def held_dwarn(sim):
            if sim.policy.name == "dwarn":
                entered.set()
                release.wait(10.0)
            return run(sim)

        monkeypatch.setattr(Simulator, "run", held_dwarn)

        async def scenario():
            svc, task = await _boot()
            jobs = _admit_all(svc, ("dwarn", "icount", "flush"))
            await _until(entered.is_set)
            svc.request_shutdown()
            release.set()
            assert await asyncio.wait_for(task, 10.0) == 0
            return svc, jobs

        svc, jobs = asyncio.run(scenario())
        assert [(j.spec.policy, j.state) for j in jobs] == [
            ("dwarn", "done"),
            ("icount", "cancelled"),
            ("flush", "cancelled"),
        ]
        assert svc.counters["completed"] == 1 and svc.counters["cancelled"] == 2

    def test_stored_checkpoint_resumes_on_the_local_path(self):
        """A job whose worker died after a checkpoint upload, and which fell
        back to the daemon, continues from the stored cycle instead of
        cycle 0, with the cold run's result."""
        spec = JobSpec.from_dict({"workload": "2-MIX", "policy": "dwarn", "seed": 31, **TINY})
        machine, simcfg = spec.machine_config(), spec.sim_config()
        captured: list[tuple[int, bytes]] = []

        def capture(sim):
            captured.append((sim.cycle, checkpoint_to_bytes(sim)))

        cold, _, _ = simulate_resumable(
            machine, simcfg, "2-MIX", "dwarn", checkpoint_interval=500, on_checkpoint=capture
        )
        cycle, blob = captured[len(captured) // 2]
        assert 0 < cycle < simcfg.total_cycles

        async def scenario():
            svc, task = await _boot()
            svc.checkpoints[spec.cache_key()] = Checkpoint(
                key=spec.cache_key(),
                job_id="job-of-a-dead-worker",
                cycle=cycle,
                total_cycles=simcfg.total_cycles,
                data_b64=base64.b64encode(blob).decode("ascii"),
            )
            job, queued = svc._admit(spec, 0)
            assert queued
            await _until(lambda: job.state in JobState.TERMINAL)
            await _drain(svc, task)
            return svc, job

        svc, job = asyncio.run(scenario())
        assert job.state == "done" and job.source == "simulated"
        assert job.resumed_from == cycle
        assert svc.counters["resumed"] == 1
        assert svc.store.get_by_key(job.key)["pair"]["resumed_from"] == cycle
        assert job.result == result_payload(cold)
        assert spec.cache_key() not in svc.checkpoints  # superseded by the result
