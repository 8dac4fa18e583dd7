"""Bounded priority job queue with dedup/coalescing and priority dispatch.

The queue is the service's admission-control point, and it enforces three
policies the HTTP layer surfaces directly:

- **Backpressure.** Capacity counts *queued* jobs (running ones have already
  left). A full queue raises :class:`QueueFull` carrying a ``retry_after``
  hint, which the server turns into ``429`` + ``Retry-After`` — clients are
  told to come back, not silently buffered into an unbounded heap.
- **Coalescing.** A spec identical to a queued or running job joins that
  job instead of creating a second execution: ``submit`` returns the
  existing :class:`~repro.service.protocol.Job` with ``coalesced`` bumped.
  Identity is the spec's canonical cache key, so JSON key order and
  defaulted-versus-explicit fields cannot defeat it.
- **Priority dispatch.** ``next_batch(n)`` pops the ``n`` best queued
  jobs in priority order, whatever their config group: the daemon's local
  dispatcher takes one at a time, a worker's lease takes ``capacity``.
  Jobs share traces through the persistent trace-artifact cache.

This module also hosts the *other* admission-control primitive,
:class:`TokenBucket` — per-client rate limiting, which the sharding router
(:mod:`repro.service.router`) applies before any shard sees a request. A
full bucket rejection raises :class:`RateLimited`, the 429-with-budget-
headers sibling of :class:`QueueFull`.

Pure in-memory data structures, asyncio-agnostic and lock-free by design:
the server calls them only from the event-loop thread. Waiting for work is
the caller's job (the server keeps an ``asyncio.Event``); this module never
blocks.
"""

from __future__ import annotations

import heapq
import itertools
import math
import time

from repro.service.protocol import Job, JobState

__all__ = [
    "DEFAULT_RETRY_AFTER",
    "JobQueue",
    "QueueFull",
    "RateLimited",
    "TokenBucket",
]

#: Floor (and no-signal default) for the 429 ``Retry-After`` hint, seconds.
#: The server derives the hint from the observed median job latency, but
#: before any job has completed that median is 0.0 (the percentile of an
#: empty sample), and a cache-hit-only history can make it 0.0 or even
#: non-finite under degenerate clocks — advertising "retry in 0 seconds"
#: turns backpressure into a busy-loop invitation.
DEFAULT_RETRY_AFTER = 1.0


class QueueFull(RuntimeError):
    """Queue at capacity; ``retry_after`` is the client back-off hint (s).

    The hint is normalized on construction: non-finite or sub-floor values
    (see :data:`DEFAULT_RETRY_AFTER`) are clamped, so every ``QueueFull`` —
    and therefore every 429 the server emits — carries a usable back-off.
    """

    def __init__(self, capacity: int, retry_after: float = DEFAULT_RETRY_AFTER) -> None:
        super().__init__(f"job queue full ({capacity} queued)")
        self.capacity = capacity
        if not math.isfinite(retry_after) or retry_after < DEFAULT_RETRY_AFTER:
            retry_after = DEFAULT_RETRY_AFTER
        self.retry_after = retry_after


class RateLimited(RuntimeError):
    """A client's token bucket is empty; ``retry_after`` is the time (s)
    until the requested number of tokens will have accrued."""

    def __init__(self, client: str, retry_after: float, remaining: float) -> None:
        super().__init__(f"client {client!r} rate limited (retry in {retry_after:.2f}s)")
        self.client = client
        self.retry_after = max(0.0, retry_after)
        self.remaining = remaining


class TokenBucket:
    """Per-client token buckets: ``rate`` tokens/second, ``burst`` capacity.

    Every client id starts with a full bucket and refills continuously.
    :meth:`acquire` is non-blocking: it either debits and returns, or
    raises :class:`RateLimited` carrying a precise retry hint — the router
    turns that into ``429`` plus ``X-RateLimit-*``/``Retry-After`` headers.
    A ``rate`` of 0 disables limiting entirely (every acquire succeeds),
    which is the default posture for a single-tenant deployment.

    One request costs one token; a stream request costs one token *per
    spec*, capped at ``burst`` so a sweep wider than the bucket is charged
    a full bucket rather than being unadmittable forever.

    The clock is injectable for tests; the bucket table self-prunes (a
    client back at full capacity carries no state worth keeping).
    """

    #: Bucket table size that triggers a prune of full (stateless) buckets.
    PRUNE_AT = 4096

    def __init__(self, rate: float, burst: float = 30.0, clock=time.monotonic) -> None:
        if burst <= 0:
            raise ValueError("token bucket burst must be > 0")
        self.rate = rate
        self.burst = float(burst)
        self._clock = clock
        #: client id -> (tokens at ``stamp``, stamp).
        self._buckets: dict[str, tuple[float, float]] = {}

    def remaining(self, client: str) -> float:
        """Current token balance for a client (full burst if unknown)."""
        if self.rate <= 0:
            return self.burst
        now = self._clock()
        level, stamp = self._buckets.get(client, (self.burst, now))
        return min(self.burst, level + (now - stamp) * self.rate)

    def acquire(self, client: str, tokens: float = 1.0) -> None:
        """Debit ``tokens`` from the client's bucket or raise
        :class:`RateLimited`. No-op when limiting is disabled."""
        if self.rate <= 0:
            return
        tokens = min(float(tokens), self.burst)
        now = self._clock()
        level, stamp = self._buckets.get(client, (self.burst, now))
        level = min(self.burst, level + (now - stamp) * self.rate)
        if level + 1e-9 >= tokens:
            self._buckets[client] = (level - tokens, now)
            self._maybe_prune(now)
            return
        self._buckets[client] = (level, now)
        raise RateLimited(client, (tokens - level) / self.rate, level)

    def _maybe_prune(self, now: float) -> None:
        if len(self._buckets) < self.PRUNE_AT:
            return
        self._buckets = {
            client: (level, stamp)
            for client, (level, stamp) in self._buckets.items()
            if level + (now - stamp) * self.rate < self.burst
        }


class JobQueue:
    """Priority queue of :class:`Job` with coalescing and bounded depth.

    Ordering is ``(priority, submission sequence)`` — lower priority value
    first, FIFO within a priority level. The heap holds only *queued* jobs;
    an index by cache key additionally tracks *running* jobs so duplicates
    coalesce onto in-flight work, not just onto queued work.
    """

    def __init__(self, capacity: int) -> None:
        if capacity < 1:
            raise ValueError("queue capacity must be >= 1")
        self.capacity = capacity
        self._heap: list[tuple[int, int, Job]] = []
        self._seq = itertools.count()
        #: cache key -> Job, for every job that is queued or running.
        self._active: dict[str, Job] = {}

    # -- introspection ---------------------------------------------------

    def __len__(self) -> int:
        """Number of *queued* (not yet dispatched) jobs."""
        return len(self._heap)

    @property
    def running(self) -> int:
        """Number of dispatched-but-unfinished jobs."""
        return len(self._active) - len(self._heap)

    def find(self, key: str) -> Job | None:
        """The queued/running job for a cache key, if any."""
        return self._active.get(key)

    # -- admission -------------------------------------------------------

    def submit(self, job: Job, retry_after: float = 1.0) -> tuple[Job, bool]:
        """Admit a job; returns ``(job, coalesced)``.

        If an identical spec is already queued or running, the *existing*
        job is returned with ``coalesced`` incremented and the new job is
        discarded (it never existed as far as clients are concerned). A
        genuinely new job is heap-pushed, or :class:`QueueFull` is raised
        when the queue is at capacity — coalescing is checked first, so
        duplicates are accepted even when the queue is full (they cost
        nothing to serve).
        """
        existing = self._active.get(job.key)
        if existing is not None:
            existing.coalesced += 1
            return existing, True
        if len(self._heap) >= self.capacity:
            raise QueueFull(self.capacity, retry_after)
        self._active[job.key] = job
        heapq.heappush(self._heap, (job.priority, next(self._seq), job))
        return job, False

    # -- dispatch --------------------------------------------------------

    def next_batch(self, n: int) -> list[Job]:
        """Pop up to ``n`` queued jobs in priority order.

        Returns ``[]`` when the queue is empty. Popped jobs stay in the
        active index (they are now *running*) until :meth:`finish` is
        called for them.
        """
        return [heapq.heappop(self._heap)[2] for _ in range(min(n, len(self._heap)))]

    def requeue(self, job: Job) -> None:
        """Return a dispatched-but-unfinished job to the queue.

        The lease-expiry path: a worker leased the job and went silent, so
        the job goes back into the heap for redelivery. Capacity is *not*
        enforced — the job was admitted once and still owns its slot in the
        active index; bouncing it here would silently drop accepted work.
        Terminal jobs (completed by a late upload racing the expiry scan)
        are left alone.
        """
        if job.state in JobState.TERMINAL:
            return
        job.state = JobState.QUEUED
        self._active[job.key] = job
        heapq.heappush(self._heap, (job.priority, next(self._seq), job))

    def finish(self, job: Job) -> None:
        """Drop a terminal job from the active index (duplicates of its
        spec submitted later will start a fresh execution — by then the
        result store serves them instead)."""
        self._active.pop(job.key, None)

    def cancel_queued(self, reason: str) -> list[Job]:
        """Cancel every still-queued job (shutdown drain); returns them."""
        cancelled: list[Job] = []
        for _, _, job in self._heap:
            job.state = JobState.CANCELLED
            job.error = reason
            self._active.pop(job.key, None)
            cancelled.append(job)
        self._heap.clear()
        return cancelled
