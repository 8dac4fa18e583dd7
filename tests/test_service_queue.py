"""Queue semantics: priority order, capacity/backpressure, coalescing,
priority-ordered batches, and lease-expiry requeue.

Includes the regression tests for the Retry-After bug: the 429 hint was
computed from the median job latency even with zero completed jobs, where
the percentile of the empty sample is 0.0 — "retry in 0 seconds" turns
backpressure into a busy-loop invitation. Every ``QueueFull`` (and the
server's hint derivation) must floor at ``DEFAULT_RETRY_AFTER``.
"""

from __future__ import annotations

import math

import pytest

from repro.service.protocol import Job, JobSpec, JobState
from repro.service.queue import (
    DEFAULT_RETRY_AFTER,
    JobQueue,
    QueueFull,
    RateLimited,
    TokenBucket,
)


def _job(jid: str, workload="2-MIX", policy="dwarn", priority=0, **spec):
    return Job(
        id=jid,
        spec=JobSpec.from_dict({"workload": workload, "policy": policy, **spec}),
        priority=priority,
    )


class TestAdmission:
    def test_fifo_within_priority(self):
        q = JobQueue(8)
        for i in range(3):
            q.submit(_job(f"j{i}", seed=i + 1))
        batch = [q.next_batch(1)[0] for _ in range(3)]
        assert [j.id for j in batch] == ["j0", "j1", "j2"]

    def test_priority_order(self):
        q = JobQueue(8)
        q.submit(_job("low", seed=1, priority=5))
        q.submit(_job("high", seed=2, priority=-1))
        q.submit(_job("mid", seed=3, priority=0))
        order = [q.next_batch(1)[0].id for _ in range(3)]
        assert order == ["high", "mid", "low"]

    def test_capacity_raises_queue_full(self):
        q = JobQueue(2)
        q.submit(_job("a", seed=1))
        q.submit(_job("b", seed=2))
        with pytest.raises(QueueFull) as exc:
            q.submit(_job("c", seed=3), retry_after=2.5)
        assert exc.value.retry_after == 2.5
        assert exc.value.capacity == 2

    def test_len_counts_only_queued(self):
        q = JobQueue(4)
        q.submit(_job("a", seed=1))
        q.submit(_job("b", seed=2))
        assert len(q) == 2 and q.running == 0
        q.next_batch(1)
        assert len(q) == 1 and q.running == 1


class TestCoalescing:
    def test_identical_spec_coalesces(self):
        q = JobQueue(8)
        first, was = q.submit(_job("a"))
        assert not was
        second, was = q.submit(_job("b"))
        assert was
        assert second is first
        assert first.coalesced == 1
        assert len(q) == 1  # one queued execution, two submissions

    def test_coalesces_onto_running_job(self):
        q = JobQueue(8)
        q.submit(_job("a"))
        (running,) = q.next_batch(1)
        dup, was = q.submit(_job("b"))
        assert was and dup is running

    def test_duplicate_accepted_even_when_full(self):
        """Coalescing costs nothing, so a full queue still takes duplicates."""
        q = JobQueue(1)
        q.submit(_job("a"))
        dup, was = q.submit(_job("b"))
        assert was and dup.id == "a"

    def test_finish_releases_key(self):
        q = JobQueue(8)
        q.submit(_job("a"))
        (job,) = q.next_batch(1)
        job.state = JobState.DONE
        q.finish(job)
        fresh, was = q.submit(_job("b"))
        assert not was and fresh.id == "b"


class TestBatching:
    def test_batch_groups_same_config(self):
        q = JobQueue(8)
        q.submit(_job("a", workload="2-MIX", policy="dwarn"))
        q.submit(_job("b", workload="2-MIX", policy="icount"))
        q.submit(_job("c", workload="8-MEM", policy="flush"))
        batch = q.next_batch(8)
        assert {j.id for j in batch} == {"a", "b", "c"}
        assert len(q) == 0

    def test_batch_takes_highest_priority_across_config_groups(self):
        """A lease holds the ``n`` best queued jobs whatever their group:
        a low-priority job from the head's group does not jump the queue."""
        q = JobQueue(8)
        q.submit(_job("A", seed=1, priority=0))
        q.submit(_job("B", seed=2, priority=1))
        q.submit(_job("C", seed=1, policy="icount", priority=2))
        assert [j.id for j in q.next_batch(2)] == ["A", "B"]
        assert [j.id for j in q.next_batch(2)] == ["C"]

    def test_batch_max_bounds_size(self):
        q = JobQueue(16)
        for i in range(6):
            q.submit(_job(f"j{i}", policy=["dwarn", "icount", "flush", "stall", "dg", "pdg"][i]))
        batch = q.next_batch(4)
        assert len(batch) == 4
        assert len(q) == 2

    def test_empty_queue_empty_batch(self):
        assert JobQueue(4).next_batch(4) == []


class TestRetryAfterFloor:
    def test_zero_completions_floor(self):
        """The regression: an empty latency sample gave retry_after=0.0."""
        exc = QueueFull(4, retry_after=0.0)
        assert exc.retry_after == DEFAULT_RETRY_AFTER

    def test_degenerate_values_clamped(self):
        for bad in (0.0, -1.0, 0.3, math.nan, math.inf, -math.inf):
            assert QueueFull(4, retry_after=bad).retry_after == DEFAULT_RETRY_AFTER

    def test_real_median_passes_through(self):
        assert QueueFull(4, retry_after=7.25).retry_after == 7.25

    def test_default_when_unspecified(self):
        assert QueueFull(4).retry_after == DEFAULT_RETRY_AFTER

    def test_server_hint_floors_without_history(self):
        """The server side of the fix: no completed jobs -> the default,
        a real latency history -> the (floored) p50."""
        from repro.service.server import ServiceConfig, SimulationService

        svc = SimulationService(ServiceConfig())
        assert svc._retry_after() == DEFAULT_RETRY_AFTER

        svc.job_manifest.record_pair("service", "2-MIX", "dwarn", "store", 0.0)
        assert svc._retry_after() == DEFAULT_RETRY_AFTER  # cache-hit-only p50=0

        for _ in range(10):
            svc.job_manifest.record_pair("service", "2-MIX", "dwarn", "simulated", 30.0)
        assert svc._retry_after() == pytest.approx(30.0)


class TestRequeue:
    def test_requeue_returns_job_to_heap(self):
        q = JobQueue(8)
        q.submit(_job("a"))
        (job,) = q.next_batch(1)
        assert len(q) == 0 and q.running == 1
        q.requeue(job)
        assert len(q) == 1 and q.running == 0
        assert job.state == JobState.QUEUED
        assert q.next_batch(1) == [job]

    def test_requeue_ignores_terminal_jobs(self):
        """A late upload can complete a job racing the expiry scan; the
        scan's requeue must then be a no-op, not a resurrection."""
        q = JobQueue(8)
        q.submit(_job("a"))
        (job,) = q.next_batch(1)
        job.state = JobState.DONE
        q.finish(job)
        q.requeue(job)
        assert len(q) == 0
        assert job.state == JobState.DONE

    def test_requeue_bypasses_capacity(self):
        """An admitted job still owns its slot: requeue past a full heap
        must not drop accepted work."""
        q = JobQueue(1)
        q.submit(_job("a"))
        (job,) = q.next_batch(1)
        q.submit(_job("b", policy="icount"))  # heap full again
        q.requeue(job)
        assert len(q) == 2

    def test_requeued_job_coalesces_again(self):
        q = JobQueue(8)
        q.submit(_job("a"))
        (job,) = q.next_batch(1)
        q.requeue(job)
        dup, was = q.submit(_job("b"))
        assert was and dup is job


class TestShutdown:
    def test_cancel_queued(self):
        q = JobQueue(8)
        q.submit(_job("a", seed=1))
        q.submit(_job("b", seed=2))
        (running,) = q.next_batch(1)
        cancelled = q.cancel_queued("shutdown")
        ids = {j.id for j in cancelled}
        assert running.id not in ids and len(ids) == 1
        assert all(j.state == JobState.CANCELLED for j in cancelled)
        assert all(j.error == "shutdown" for j in cancelled)
        assert len(q) == 0
        # The running job is still active (it must drain, not vanish).
        assert q.find(running.key) is running


class FakeClock:
    def __init__(self):
        self.now = 100.0

    def __call__(self):
        return self.now


class TestTokenBucket:
    """Per-client admission control (the router's ``--rate`` knob)."""

    def test_burst_then_limited(self):
        clock = FakeClock()
        bucket = TokenBucket(rate=1.0, burst=2.0, clock=clock)
        bucket.acquire("c1")
        bucket.acquire("c1")
        with pytest.raises(RateLimited) as exc:
            bucket.acquire("c1")
        assert exc.value.client == "c1"
        assert exc.value.retry_after == pytest.approx(1.0)

    def test_refill_restores_tokens(self):
        clock = FakeClock()
        bucket = TokenBucket(rate=2.0, burst=2.0, clock=clock)
        bucket.acquire("c1")
        bucket.acquire("c1")
        clock.now += 0.5  # 2 tokens/s * 0.5s = 1 token back
        bucket.acquire("c1")
        with pytest.raises(RateLimited):
            bucket.acquire("c1")

    def test_refill_caps_at_burst(self):
        clock = FakeClock()
        bucket = TokenBucket(rate=10.0, burst=2.0, clock=clock)
        clock.now += 3600.0  # an hour idle must not bank 36k tokens
        bucket.acquire("c1")
        bucket.acquire("c1")
        with pytest.raises(RateLimited):
            bucket.acquire("c1")

    def test_clients_are_independent(self):
        clock = FakeClock()
        bucket = TokenBucket(rate=1.0, burst=1.0, clock=clock)
        bucket.acquire("c1")
        bucket.acquire("c2")  # c2's bucket is untouched by c1's spend
        with pytest.raises(RateLimited):
            bucket.acquire("c1")

    def test_rate_zero_disables(self):
        bucket = TokenBucket(rate=0.0, burst=1.0)
        for _ in range(1000):
            bucket.acquire("c1")
        assert bucket.remaining("c1") == pytest.approx(1.0)

    def test_bulk_cost_capped_at_burst(self):
        """A stream of 500 jobs costs at most one full burst — otherwise a
        single large request could never be admitted at any rate."""
        clock = FakeClock()
        bucket = TokenBucket(rate=1.0, burst=30.0, clock=clock)
        bucket.acquire("c1", tokens=500.0)
        with pytest.raises(RateLimited):
            bucket.acquire("c1")

    def test_remaining_reports_level(self):
        clock = FakeClock()
        bucket = TokenBucket(rate=1.0, burst=4.0, clock=clock)
        assert bucket.remaining("new-client") == pytest.approx(4.0)
        bucket.acquire("new-client")
        assert bucket.remaining("new-client") == pytest.approx(3.0)

    def test_retry_after_scales_with_deficit(self):
        clock = FakeClock()
        bucket = TokenBucket(rate=2.0, burst=4.0, clock=clock)
        bucket.acquire("c1", tokens=4.0)
        with pytest.raises(RateLimited) as exc:
            bucket.acquire("c1", tokens=3.0)
        assert exc.value.retry_after == pytest.approx(1.5)  # 3 tokens @ 2/s

    def test_invalid_burst_rejected(self):
        with pytest.raises(ValueError):
            TokenBucket(rate=1.0, burst=0.0)

    def test_prune_drops_idle_full_buckets(self):
        clock = FakeClock()
        bucket = TokenBucket(rate=1.0, burst=1.0, clock=clock)
        for i in range(TokenBucket.PRUNE_AT):
            bucket.acquire(f"c{i}")
        clock.now += 60.0  # everyone refills to full -> prunable
        bucket.acquire("straw")
        assert len(bucket._buckets) < TokenBucket.PRUNE_AT
