"""Blocking client for the simulation service (stdlib ``http.client`` only).

The client is deliberately boring: one keep-alive connection per client
and thread, explicit timeouts, bounded retries with jittered exponential
backoff on transport errors, and first-class handling of the server's
backpressure signals — a ``429`` (queue full, or the router's per-client
rate limit) and a ``503`` (the router's owning shard is down) are not
errors but instructions, so ``submit`` sleeps the advertised
``Retry-After`` (capped) and tries again, up to ``backpressure_retries``
times. A kept connection that the server closed while it sat idle is
replaced and the request resent once; that resend is not a transport retry
and does not sleep. A reply saying ``Connection: close`` closes it.

Every retry loop is additionally bounded by a **wall-clock deadline**: the
``deadline`` constructor argument (or per-call override) is a total elapsed
budget in seconds covering transport retries *and* backpressure sleeps
together, so a storm of large ``Retry-After`` hints cannot stretch one call
unboundedly — the call raises :class:`ServiceError` once the budget is
spent, no matter how many attempts remain.

Long sweeps can stream instead of poll: :meth:`ServiceClient.stream` POSTs
a list of specs to ``/v1/stream`` and yields one record per job as the
server (or the sharding router) writes them over a chunked response.

Used by the test suite, the load-test harness (``repro.service.loadtest``)
and the examples in docs/SERVICE.md and docs/SCALING.md.

Usage::

    client = ServiceClient("127.0.0.1", 8177, deadline=60.0)
    job = client.submit({"workload": "2-MIX", "policy": "dwarn"})
    record = client.wait(job["id"], timeout=120)
    print(record["result"]["throughput"])

    for rec in client.stream([{"workload": w, "policy": "dwarn"}
                              for w in ("2-MIX", "2-MEM")]):
        print(rec["spec"]["workload"], rec["result"]["throughput"])
"""

from __future__ import annotations

import http.client
import json
import random
import threading
import time
from typing import Any, Iterable, Iterator

__all__ = ["ServiceClient", "ServiceError"]


class ServiceError(RuntimeError):
    """A request that conclusively failed (transport retries exhausted, the
    wall-clock deadline spent, or an HTTP error status); carries ``status``
    and the decoded ``body``."""

    def __init__(self, message: str, status: int | None = None, body: Any = None) -> None:
        super().__init__(message)
        self.status = status
        self.body = body


class ServiceClient:
    """Thin blocking wrapper over the service's endpoints.

    ``deadline`` is the default total elapsed budget (seconds) for one
    logical call including every retry and backpressure sleep; ``None``
    keeps the legacy attempts-only bounds. ``client_id`` rides along as the
    ``X-Client-Id`` header, which is what the router's per-client admission
    control keys its token buckets on.
    """

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 8177,
        timeout: float = 10.0,
        retries: int = 3,
        backoff: float = 0.2,
        backpressure_retries: int = 0,
        max_retry_after: float = 5.0,
        deadline: float | None = None,
        client_id: str | None = None,
        rng: random.Random | None = None,
    ) -> None:
        self.host = host
        self.port = port
        self.timeout = timeout
        self.retries = retries
        self.backoff = backoff
        self.backpressure_retries = backpressure_retries
        self.max_retry_after = max_retry_after
        self.deadline = deadline
        self.client_id = client_id
        self._rng = rng or random.Random()
        #: This thread's keep-alive connection (``.conn``), if it has one.
        self._local = threading.local()

    # -- transport -------------------------------------------------------

    def _headers(self, payload: bytes | None) -> dict[str, str]:
        headers: dict[str, str] = {}
        if payload:
            headers["Content-Type"] = "application/json"
        if self.client_id:
            headers["X-Client-Id"] = self.client_id
        return headers

    def _once(self, method: str, path: str, body: dict | None) -> tuple[int, Any, dict]:
        payload = json.dumps(body).encode("utf-8") if body is not None else None
        headers = self._headers(payload)
        conn = getattr(self._local, "conn", None)
        if conn is not None:
            try:
                return self._exchange(conn, method, path, payload, headers)
            except (ConnectionResetError, BrokenPipeError, ConnectionAbortedError):
                pass  # the server closed the idle connection: resend once
        conn = http.client.HTTPConnection(self.host, self.port, timeout=self.timeout)
        self._local.conn = conn
        return self._exchange(conn, method, path, payload, headers)

    def _exchange(
        self,
        conn: http.client.HTTPConnection,
        method: str,
        path: str,
        payload: bytes | None,
        headers: dict[str, str],
    ) -> tuple[int, Any, dict]:
        """One request on ``conn``, which is dropped unless the reply lets
        it persist."""
        try:
            conn.request(method, path, body=payload, headers=headers)
            resp = conn.getresponse()
            raw = resp.read()
        except BaseException:
            self._drop(conn)
            raise
        if resp.will_close:
            self._drop(conn)
        try:
            decoded = json.loads(raw) if raw else None
        except json.JSONDecodeError:
            decoded = raw.decode("utf-8", "replace")
        return resp.status, decoded, dict(resp.getheaders())

    def _drop(self, conn: http.client.HTTPConnection) -> None:
        conn.close()
        self._local.conn = None

    def close(self) -> None:
        """Close the calling thread's keep-alive connection, if it has one."""
        conn = getattr(self._local, "conn", None)
        if conn is not None:
            self._drop(conn)

    def _deadline_at(self, deadline: float | None) -> float | None:
        """Resolve a per-call budget (param wins over the instance default)
        into an absolute monotonic instant, or ``None`` for unbounded."""
        budget = self.deadline if deadline is None else deadline
        return None if budget is None else time.monotonic() + budget

    def request(
        self,
        method: str,
        path: str,
        body: dict | None = None,
        deadline_at: float | None = None,
    ) -> tuple[int, Any, dict]:
        """One request with transport-level retries and jittered backoff.

        Retries cover *connection* failures (refused, reset, timeout) —
        the cases where no response was produced; HTTP statuses, including
        429/503, are returned to the caller untouched. ``deadline_at`` is
        an absolute ``time.monotonic()`` instant after which no further
        attempt (or backoff sleep) is made.
        """
        last: Exception | None = None
        for attempt in range(self.retries + 1):
            if deadline_at is not None and time.monotonic() >= deadline_at:
                raise ServiceError(
                    f"{method} {path} deadline exceeded after {attempt} attempt(s): "
                    f"{last!r}"
                ) from last
            try:
                return self._once(method, path, body)
            except (ConnectionError, TimeoutError, OSError, http.client.HTTPException) as exc:
                last = exc
                if attempt < self.retries:
                    # Full jitter: 50..100% of the exponential step, so a
                    # burst of clients does not retry in lockstep.
                    delay = self.backoff * (2**attempt) * (0.5 + 0.5 * self._rng.random())
                    if deadline_at is not None:
                        delay = min(delay, max(0.0, deadline_at - time.monotonic()))
                    time.sleep(delay)
        raise ServiceError(
            f"{method} {path} failed after {self.retries + 1} attempts: {last!r}"
        ) from last

    # -- endpoints -------------------------------------------------------

    def submit(
        self,
        spec: dict[str, Any],
        priority: int = 0,
        deadline: float | None = None,
    ) -> dict[str, Any]:
        """POST a job spec; returns the job status payload.

        A 429 (backpressure or rate limit) or 503 (shard down behind the
        router) is retried ``backpressure_retries`` times, honouring the
        server's ``Retry-After`` (capped at ``max_retry_after`` seconds,
        with jitter) — but never past the wall-clock ``deadline``: once the
        elapsed budget is spent the last status surfaces as a
        :class:`ServiceError` even if attempts remain. With the default of
        0 retries the 429/503 surfaces immediately — callers doing their
        own admission control (the e2e tests) want to *see* backpressure.
        """
        body = dict(spec)
        if priority:
            body["priority"] = priority
        deadline_at = self._deadline_at(deadline)
        for attempt in range(self.backpressure_retries + 1):
            status, payload, headers = self.request(
                "POST", "/v1/jobs", body, deadline_at=deadline_at
            )
            if status in (200, 202):
                return payload
            if status in (429, 503) and attempt < self.backpressure_retries:
                advertised = float(headers.get("Retry-After", 1.0))
                delay = min(advertised, self.max_retry_after)
                delay *= 0.5 + 0.5 * self._rng.random()
                if deadline_at is not None:
                    remaining = deadline_at - time.monotonic()
                    if remaining <= 0.0:
                        raise ServiceError(
                            f"job submission deadline exceeded still backpressured "
                            f"(HTTP {status}): {payload}",
                            status=status,
                            body=payload,
                        )
                    delay = min(delay, remaining)
                time.sleep(delay)
                continue
            raise ServiceError(
                f"job submission failed: HTTP {status}: {payload}",
                status=status,
                body=payload,
            )
        raise AssertionError("unreachable")  # pragma: no cover

    def status(self, job_id: str) -> dict[str, Any]:
        """GET /v1/jobs/{id}."""
        code, payload, _ = self.request("GET", f"/v1/jobs/{job_id}")
        if code != 200:
            raise ServiceError(f"status failed: HTTP {code}: {payload}", code, payload)
        return payload

    def result(self, job_id: str) -> dict[str, Any]:
        """GET /v1/results/{id}; raises unless the job is terminal."""
        code, payload, _ = self.request("GET", f"/v1/results/{job_id}")
        if code != 200:
            raise ServiceError(f"result not ready: HTTP {code}: {payload}", code, payload)
        return payload

    def wait(self, job_id: str, timeout: float = 60.0, poll: float = 0.05) -> dict[str, Any]:
        """Poll until the job is terminal; returns the result payload.

        Raises :class:`ServiceError` on timeout or if the job failed/was
        cancelled (the error payload rides along for diagnosis).
        """
        deadline = time.monotonic() + timeout
        while True:
            st = self.status(job_id)
            if st["state"] == "done":
                return self.result(job_id)
            if st["state"] in ("failed", "cancelled", "dead_letter"):
                raise ServiceError(
                    f"job {job_id} {st['state']}: {st.get('error')}", body=st
                )
            if time.monotonic() >= deadline:
                raise ServiceError(f"timed out waiting for job {job_id} ({st['state']})")
            time.sleep(poll)

    # -- result streaming ------------------------------------------------

    def stream(
        self,
        specs: Iterable[dict[str, Any]],
        timeout: float = 300.0,
    ) -> Iterator[dict[str, Any]]:
        """POST /v1/stream — yield one record per job as results arrive.

        Records carry ``index`` (position in ``specs``), ``state``,
        ``source``, ``spec`` and ``result`` and arrive in *completion*
        order, not submission order. ``timeout`` bounds each read (the gap
        between consecutive results), not the whole stream — ``http.client``
        decodes the chunked framing transparently, so each ``readline`` is
        one job record the moment the server emits it. A non-200 status
        raises :class:`ServiceError` before anything is yielded.
        """
        body = {"jobs": [dict(s) for s in specs]}
        payload = json.dumps(body).encode("utf-8")
        conn = http.client.HTTPConnection(self.host, self.port, timeout=timeout)
        try:
            conn.request("POST", "/v1/stream", body=payload, headers=self._headers(payload))
            resp = conn.getresponse()
            if resp.status != 200:
                raw = resp.read()
                try:
                    decoded: Any = json.loads(raw) if raw else None
                except json.JSONDecodeError:
                    decoded = raw.decode("utf-8", "replace")
                raise ServiceError(
                    f"stream failed: HTTP {resp.status}: {decoded}", resp.status, decoded
                )
            while True:
                line = resp.readline()
                if not line:
                    break
                if line.strip():
                    yield json.loads(line)
        finally:
            conn.close()

    def healthz(self) -> dict[str, Any]:
        """GET /healthz — liveness plus every schema version."""
        code, payload, _ = self.request("GET", "/healthz")
        if code != 200:
            raise ServiceError(f"healthz failed: HTTP {code}", code, payload)
        return payload

    def metrics(self) -> dict[str, Any]:
        """GET /metrics — queue, cache, latency and executor counters."""
        code, payload, _ = self.request("GET", "/metrics")
        if code != 200:
            raise ServiceError(f"metrics failed: HTTP {code}", code, payload)
        return payload
