"""Sharding router: one front door for N simulation-service daemons.

``dwarn-sim route`` runs a thin asyncio HTTP process that consistent-hashes
canonical job keys across a fleet of ``dwarn-sim serve`` shards. The router
owns *placement* and *admission*; the shards keep owning execution, dedup
and persistence — because every spec with the same canonical cache key
always lands on the same shard, all three dedup tiers (result store, runner
caches, queue coalescing) keep working exactly as they do single-daemon.

Topology::

    clients ──> router ──(consistent hash on spec.cache_key())──> shard s0
    workers ──>        ──(round-robin over healthy shards)─────> shard s1
                                                          ...    shard sN-1

Routing rules:

- ``POST /v1/jobs`` and ``POST /v1/stream``: the spec is canonicalized
  (:func:`repro.service.server.validate_spec`) and its cache key hashed on
  the ring; the request forwards to the owning shard. Stream requests are
  *partitioned* — each shard receives only its specs, the router relays
  every shard's chunked NDJSON lines into one interleaved response.
- Job and lease ids returned to clients are prefixed ``{shard}@{id}`` so
  ``GET /v1/jobs/{id}``, ``GET /v1/results/{id}`` and the lease endpoints
  route straight back to the owner. Unprefixed ids (from a pre-router
  deployment) fan out to every healthy shard, first hit wins. Job ids
  *inside* a lease grant stay unprefixed: the worker only ever echoes them
  back through the prefixed lease endpoints, which already name the shard.
- ``POST /v1/leases``: round-robin over healthy shards, first non-empty
  grant wins — workers stay shard-agnostic. The sweep asks each shard
  without a hold; only when every shard is empty is the worker's ``wait``
  held on the round-robin shard, so a routed worker never parks on an
  empty shard while another has work.
- ``GET /healthz`` / ``GET /metrics``: aggregated across shards (summed
  counters, per-shard breakdown, ring description).

Degradation is per key range: a shard that refuses connections is marked
down for ``cooldown`` seconds and only *its* keys answer ``503`` with a
``Retry-After`` — the rest of the ring keeps serving. Streams report a
down shard as per-spec ``failed`` lines rather than poisoning the whole
sweep.

Connections persist on both sides: clients keep theirs to the router
(:class:`repro.service.http.HttpServer`), and unary forwards reuse a pool
of keep-alive connections per shard (``Shard.pool``). A pooled connection
that fails before its reply head arrives (the shard closed it while idle,
or restarted) is retried once on a fresh one, so only a fresh connection's
failure marks a shard down. Each stream has a connection of its own.

Admission control is per client id (``X-Client-Id`` header, else
``anonymous``): a token bucket of ``rate`` tokens/sec with ``burst``
capacity guards ``POST /v1/jobs`` (1 token) and ``POST /v1/stream`` (1 per
spec); rejections answer ``429`` with ``X-RateLimit-Limit``,
``X-RateLimit-Remaining`` and ``Retry-After`` budget headers. The default
``rate=0`` disables limiting.

The router can *supervise* its shards (``--shards N`` boots N daemons on
ephemeral ports with per-shard state directories and tears them down on
exit) or front externally managed ones (``--shard URL`` repeated —
what the rolling-restart tests and the load harness use, since an external
shard can be killed and restarted at the same address).

Schema: ``ROUTER_VERSION`` names the routed-id scheme and aggregation
shapes; ``dwarn-sim version`` prints it alongside the service protocol
version. See docs/SCALING.md for capacity planning and the failure matrix.
"""

from __future__ import annotations

import asyncio
import bisect
import contextlib
import dataclasses
import json
import math
import signal
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

import repro
from repro.service.http import (
    ConnectionPool,
    HttpServer,
    Reply,
    Request,
    end_chunked,
    fetch_json,
    json_response,
    open_json_stream,
    start_chunked,
    write_chunk,
)
from repro.service.protocol import (
    PROTOCOL_VERSION,
    LeaseRequest,
    SpecError,
    parse_stream_request,
)
from repro.service.queue import RateLimited, TokenBucket
from repro.service.server import validate_spec
from repro.utils.rng import stable_hash64

__all__ = [
    "ROUTER_VERSION",
    "HashRing",
    "RouterConfig",
    "Shard",
    "SimulationRouter",
    "run_router",
]

#: Version of the routing schema: the ``{shard}@{id}`` routed-id scheme,
#: the ring construction (FNV-1a virtual nodes, see :class:`HashRing`),
#: and the aggregated /healthz & /metrics shapes. Bump on any change that
#: would strand a routed id or reshuffle the ring under existing stores.
ROUTER_VERSION = 1

#: Virtual nodes per shard on the ring. 64 points per shard keeps the
#: max/min key-share ratio near 1.3 for small fleets while keeping ring
#: construction trivial; the golden test pins the resulting assignments.
RING_REPLICAS = 64

_MASK64 = (1 << 64) - 1


def _ring_hash(*parts: object) -> int:
    """FNV-1a plus a splitmix64 finalizer: ring placement needs avalanche.

    Raw FNV-1a leaves the *high* bits of short, similar inputs correlated
    (a one-character difference perturbs bits ~40-44 and barely touches the
    top), and ring ownership is decided by ordering over the full 64-bit
    space — without finishing, ``s0``/``s1`` virtual nodes cluster and key
    distribution skews 2.5:1. The finalizer is stable across processes, so
    restart stability (the golden-tested guarantee) is preserved.
    """
    h = stable_hash64(*parts)
    h = ((h ^ (h >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    h = ((h ^ (h >> 27)) * 0x94D049BB133111EB) & _MASK64
    return h ^ (h >> 31)


class HashRing:
    """Consistent-hash ring over shard names with virtual nodes.

    Every shard contributes :data:`RING_REPLICAS` points, each placed at
    ``_ring_hash("ring-point", name, i)`` — finalized FNV-1a, stable across
    processes and Python versions, so the same shard names *always* produce
    the same ring no matter which router process builds it (restart
    stability is a golden-tested guarantee). A key belongs to the first
    point clockwise from ``_ring_hash("ring-key", key)``; adding one
    shard to an N-shard ring therefore moves only ~1/(N+1) of keys.
    """

    def __init__(self, names: list[str], replicas: int = RING_REPLICAS) -> None:
        if not names:
            raise ValueError("hash ring needs at least one shard")
        if len(set(names)) != len(names):
            raise ValueError("shard names must be unique")
        self.names = list(names)
        self.replicas = replicas
        points = [
            (_ring_hash("ring-point", name, i), name)
            for name in names
            for i in range(replicas)
        ]
        points.sort()
        self._hashes = [h for h, _ in points]
        self._owners = [name for _, name in points]

    def owner(self, key: str) -> str:
        """The shard name owning a canonical job key."""
        h = _ring_hash("ring-key", key)
        i = bisect.bisect_right(self._hashes, h) % len(self._hashes)
        return self._owners[i]


@dataclass
class Shard:
    """One backend daemon: address, health, the router's idle keep-alive
    connections to it, and (optionally) the child process handle when the
    router supervises it."""

    name: str
    host: str
    port: int
    #: ``time.monotonic()`` before which the shard is considered down.
    down_until: float = 0.0
    proc: subprocess.Popen | None = None
    pool: ConnectionPool = field(default_factory=ConnectionPool, repr=False, compare=False)

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"


@dataclass
class RouterConfig:
    """Everything ``dwarn-sim route`` configures."""

    host: str = "127.0.0.1"
    port: int = 8178                      # 0 = ephemeral (OS-assigned)
    port_file: str | None = None          # write the bound port here
    #: External shard addresses ("host:port" or "http://host:port").
    shard_urls: list[str] = field(default_factory=list)
    #: Number of supervised shards to boot (ignored when shard_urls given).
    shards: int = 2
    #: State root for supervised shards (stores/caches/port files).
    state_dir: str | None = None
    #: Per-client admission: tokens/second (0 disables) and bucket size.
    rate: float = 0.0
    burst: float = 30.0
    #: Seconds a connection-refusing shard stays marked down (503 window).
    cooldown: float = 2.0
    #: Forwarding timeout for unary requests (admission is fast; this only
    #: guards against a wedged shard pinning a router task). It must stay
    #: above ``MAX_LEASE_WAIT``: a held lease request is not a wedged shard.
    timeout: float = 30.0
    #: Per-read timeout while relaying a shard's stream (the gap between
    #: two results, not the whole stream).
    stream_timeout: float = 600.0
    #: Extra args passed to every supervised shard's ``serve`` command.
    shard_args: list[str] = field(default_factory=list)


class SimulationRouter:
    """State and routes of one router process (see module docstring)."""

    def __init__(self, cfg: RouterConfig, shards: list[Shard]) -> None:
        self.cfg = cfg
        self.shards = {s.name: s for s in shards}
        self.ring = HashRing([s.name for s in shards])
        self.bucket = TokenBucket(cfg.rate, cfg.burst)
        self.counters = {
            "routed": 0,          # unary requests forwarded to a shard
            "rate_limited": 0,    # 429s from the token bucket
            "shard_down": 0,      # outages: a shard going from up to down
            "unavailable": 0,     # 503s answered for down-shard key ranges
            "fanouts": 0,         # unprefixed-id lookups broadcast to all
            "streams": 0,
            "streamed_jobs": 0,
        }
        self.started_at = time.time()
        self.port: int | None = None
        self._lease_rr = 0
        self._shutdown = asyncio.Event()
        self._draining = False
        self.http = HttpServer(self._handle)

    # ------------------------------------------------------------------
    # Lifecycle

    async def serve(self) -> int:
        """Run the router until SIGTERM/SIGINT; returns the exit status."""
        server = await asyncio.start_server(
            self.http.serve_connection, self.cfg.host, self.cfg.port
        )
        self.port = server.sockets[0].getsockname()[1]
        loop = asyncio.get_running_loop()
        for sig in (signal.SIGTERM, signal.SIGINT):
            with contextlib.suppress(NotImplementedError):
                loop.add_signal_handler(sig, self.request_shutdown)
        if self.cfg.port_file:
            Path(self.cfg.port_file).write_text(str(self.port))
        print(
            f"dwarn-sim router listening on http://{self.cfg.host}:{self.port} "
            f"(shards: {', '.join(s.url for s in self.shards.values())}; "
            f"rate={self.cfg.rate or 'off'})",
            flush=True,
        )
        await self._shutdown.wait()
        server.close()
        self.http.close_idle()
        await server.wait_closed()
        for shard in self.shards.values():
            shard.pool.close()
        print(
            f"dwarn-sim router drained: {self.counters['routed']} routed, "
            f"{self.counters['streams']} streams, "
            f"{self.counters['rate_limited']} rate-limited",
            flush=True,
        )
        return 0

    def request_shutdown(self) -> None:
        """Stop accepting and let ``serve`` return (signal handler)."""
        self._draining = True
        self._shutdown.set()

    # ------------------------------------------------------------------
    # Shard health + placement

    def _mark_down(self, shard: Shard) -> None:
        """Start or extend a shard's cooldown; ``shard_down`` counts the
        outage once, however many in-flight forwards fail with it."""
        now = time.monotonic()
        if now >= shard.down_until:
            self.counters["shard_down"] += 1
        shard.down_until = now + self.cfg.cooldown

    def _is_down(self, shard: Shard) -> bool:
        return time.monotonic() < shard.down_until

    def _healthy(self) -> list[Shard]:
        return [s for s in self.shards.values() if not self._is_down(s)]

    def _shard_for_key(self, key: str) -> Shard:
        return self.shards[self.ring.owner(key)]

    def _unavailable(self, shard: Shard) -> tuple[int, dict[str, Any], dict[str, str]]:
        """503 for one shard's key range, with the remaining cooldown."""
        self.counters["unavailable"] += 1
        retry = max(0.0, shard.down_until - time.monotonic()) or self.cfg.cooldown
        return (
            503,
            {
                "error": f"shard {shard.name} ({shard.url}) is unavailable",
                "shard": shard.name,
                "retry_after": retry,
            },
            {"Retry-After": str(max(1, math.ceil(retry)))},
        )

    async def _forward(
        self,
        shard: Shard,
        method: str,
        path: str,
        body: Any | None = None,
    ) -> tuple[int, Any, dict[str, str]] | None:
        """One unary round trip to a shard over its connection pool;
        ``None`` means it just went down (caller answers 503 for that key
        range)."""
        try:
            status, payload, headers = await fetch_json(
                shard.host, shard.port, method, path, body,
                timeout=self.cfg.timeout, pool=shard.pool,
            )
        except (OSError, ConnectionError, asyncio.TimeoutError):
            self._mark_down(shard)
            return None
        self.counters["routed"] += 1
        extra = {}
        if "retry-after" in headers:  # relay shard backpressure hints
            extra["Retry-After"] = headers["retry-after"]
        return status, payload, extra

    # ------------------------------------------------------------------
    # Routed ids

    @staticmethod
    def _split_routed(rid: str) -> tuple[str | None, str]:
        """``"s1@abc"`` -> ``("s1", "abc")``; bare ids -> ``(None, id)``."""
        name, sep, raw = rid.partition("@")
        return (name, raw) if sep else (None, rid)

    @staticmethod
    def _prefix_ids(shard: Shard, payload: Any, keys: tuple[str, ...] = ("id",)) -> Any:
        """Return ``payload`` with the named id fields shard-prefixed."""
        if not isinstance(payload, dict):
            return payload
        out = dict(payload)
        for key in keys:
            if isinstance(out.get(key), str) and out[key]:
                out[key] = f"{shard.name}@{out[key]}"
        return out

    # ------------------------------------------------------------------
    # Admission control

    def _admission(
        self, request: Request, tokens: float
    ) -> tuple[int, dict[str, Any], dict[str, str]] | None:
        """Charge the client's token bucket; a 429 triple when over budget."""
        if self.bucket.rate <= 0:
            return None
        client = request.headers.get("x-client-id", "").strip() or "anonymous"
        try:
            self.bucket.acquire(client, tokens)
        except RateLimited as exc:
            self.counters["rate_limited"] += 1
            return (
                429,
                {
                    "error": str(exc),
                    "client": client,
                    "retry_after": exc.retry_after,
                },
                {
                    "Retry-After": str(max(1, math.ceil(exc.retry_after))),
                    "X-RateLimit-Limit": f"{self.bucket.burst:g}",
                    "X-RateLimit-Remaining": f"{max(0.0, exc.remaining):.2f}",
                },
            )
        return None

    # ------------------------------------------------------------------
    # HTTP plumbing

    async def _handle(self, request: Request, writer: asyncio.StreamWriter) -> Reply | None:
        """One request off a connection (see :class:`HttpServer`)."""
        if request.method == "POST" and request.path.rstrip("/") == "/v1/stream":
            await self._stream(request, writer)
            return None
        return await self._route(request)

    async def _route(self, request: Request) -> tuple[int, Any, dict[str, str]]:
        """Dispatch one unary request (mirrors the shard's route table)."""
        method = request.method
        path = request.path.split("?", 1)[0].rstrip("/") or "/"
        if path == "/healthz" and method == "GET":
            return 200, await self._healthz(), {}
        if path == "/metrics" and method == "GET":
            return 200, await self._metrics(), {}
        if self._draining:
            return 409, {"error": "router is shutting down"}, {}
        if path == "/v1/jobs":
            if method != "POST":
                return 405, {"error": "use POST to submit a job"}, {}
            return await self._submit(request)
        if path == "/v1/leases":
            if method != "POST":
                return 405, {"error": "use POST to lease jobs"}, {}
            return await self._lease_create(request)
        if path.startswith("/v1/leases/"):
            rid, _, action = path.removeprefix("/v1/leases/").partition("/")
            if action == "checkpoint":
                # Checkpoint uploads are PUT (idempotent latest-wins store);
                # forward verbatim so the owning shard applies its own
                # validation and the worker sees the shard's exact status.
                if method != "PUT":
                    return 405, {"error": "use PUT to upload a checkpoint"}, {}
                return await self._lease_action(rid, action, request, method="PUT")
            if method != "POST":
                return 405, {"error": "lease endpoints are POST-only"}, {}
            if action not in ("heartbeat", "result"):
                return 404, {"error": f"no such lease action {action!r}"}, {}
            return await self._lease_action(rid, action, request)
        if path.startswith("/v1/jobs/") and method == "GET":
            return await self._lookup("/v1/jobs/", path.removeprefix("/v1/jobs/"))
        if path.startswith("/v1/results/") and method == "GET":
            return await self._lookup("/v1/results/", path.removeprefix("/v1/results/"))
        return 404, {"error": f"no such endpoint: {method} {path}"}, {}

    # ------------------------------------------------------------------
    # Jobs

    async def _submit(self, request: Request) -> tuple[int, Any, dict[str, str]]:
        limited = self._admission(request, 1.0)
        if limited is not None:
            return limited
        try:
            data = request.json()
        except ValueError as exc:
            return 400, {"error": f"invalid JSON body: {exc}"}, {}
        validated = validate_spec(data)
        if isinstance(validated[0], int):
            status, payload = validated  # type: ignore[misc]
            return status, payload, {}
        spec, _priority = validated  # type: ignore[misc]
        shard = self._shard_for_key(spec.cache_key())
        if self._is_down(shard):
            return self._unavailable(shard)
        reply = await self._forward(shard, "POST", "/v1/jobs", data)
        if reply is None:
            return self._unavailable(shard)
        status, payload, extra = reply
        return status, self._prefix_ids(shard, payload), extra

    async def _lookup(
        self, base: str, rid: str
    ) -> tuple[int, Any, dict[str, str]]:
        """GET /v1/jobs/{rid} or /v1/results/{rid} on the owning shard —
        or, for an unprefixed id, on every healthy shard (first hit wins)."""
        name, raw = self._split_routed(rid)
        if name is not None:
            shard = self.shards.get(name)
            if shard is None:
                return 404, {"error": f"unknown shard {name!r} in id {rid!r}"}, {}
            if self._is_down(shard):
                return self._unavailable(shard)
            reply = await self._forward(shard, "GET", base + raw)
            if reply is None:
                return self._unavailable(shard)
            status, payload, extra = reply
            return status, self._prefix_ids(shard, payload), extra
        self.counters["fanouts"] += 1
        healthy = self._healthy()
        replies = await asyncio.gather(
            *(self._forward(s, "GET", base + raw) for s in healthy)
        )
        for shard, reply in zip(healthy, replies):
            if reply is not None and reply[0] == 200:
                return 200, self._prefix_ids(shard, reply[1]), reply[2]
        return 404, {"error": f"unknown job {rid!r}"}, {}

    # ------------------------------------------------------------------
    # Leases

    async def _lease_create(self, request: Request) -> tuple[int, Any, dict[str, str]]:
        """Round-robin over healthy shards, without a hold; first non-empty
        grant wins. Only when every shard is empty is the worker's ``wait``
        held, on the first shard that answered."""
        try:
            data = request.json()
        except ValueError as exc:
            return 400, {"error": f"invalid JSON body: {exc}"}, {}
        try:
            req = LeaseRequest.from_dict(data)
        except SpecError as exc:
            return 400, {"error": str(exc)}, {}
        healthy = self._healthy()
        if not healthy:
            self.counters["unavailable"] += 1
            return (
                503,
                {"error": "no shard available", "retry_after": self.cfg.cooldown},
                {"Retry-After": str(max(1, math.ceil(self.cfg.cooldown)))},
            )
        self._lease_rr += 1
        order = healthy[self._lease_rr % len(healthy):] + healthy[: self._lease_rr % len(healthy)]
        sweep = dataclasses.replace(req, wait=0.0).to_dict()
        empty: tuple[Shard, tuple[int, Any, dict[str, str]]] | None = None
        for shard in order:
            reply = await self._forward(shard, "POST", "/v1/leases", sweep)
            if reply is None:
                continue  # just went down; try the next shard
            if reply[0] != 200 or reply[1].get("lease"):
                return self._lease_reply(shard, reply)
            empty = empty or (shard, reply)
        if empty is None:
            return self._unavailable(order[0])
        shard, reply = empty
        if req.wait:
            held = await self._forward(shard, "POST", "/v1/leases", req.to_dict())
            if held is not None:
                return self._lease_reply(shard, held)
        return reply

    def _lease_reply(
        self, shard: Shard, reply: tuple[int, Any, dict[str, str]]
    ) -> tuple[int, Any, dict[str, str]]:
        """A shard's lease answer with its grant's lease id shard-prefixed."""
        status, payload, extra = reply
        if status == 200 and payload.get("lease"):
            payload = dict(payload)
            payload["lease"] = self._prefix_ids(shard, payload["lease"])
        return status, payload, extra

    async def _lease_action(
        self, rid: str, action: str, request: Request, method: str = "POST"
    ) -> tuple[int, Any, dict[str, str]]:
        """Heartbeat, result or checkpoint upload: the prefixed lease id
        names the shard; ``method`` passes through verbatim (checkpoint
        uploads are PUT)."""
        name, raw = self._split_routed(rid)
        if name is None or name not in self.shards:
            return 410, {"error": f"lease {rid!r} names no known shard"}, {}
        shard = self.shards[name]
        if self._is_down(shard):
            return self._unavailable(shard)
        try:
            data = request.json()
        except ValueError as exc:
            return 400, {"error": f"invalid JSON body: {exc}"}, {}
        reply = await self._forward(shard, method, f"/v1/leases/{raw}/{action}", data)
        if reply is None:
            return self._unavailable(shard)
        return reply

    # ------------------------------------------------------------------
    # Result streaming (scatter to shards, interleave one chunked reply)

    async def _stream(self, request: Request, writer: asyncio.StreamWriter) -> None:
        """``POST /v1/stream`` through the ring.

        Specs are validated up front (all-or-nothing, same errors as one
        shard would give), partitioned by owning shard, and each partition
        streams from its shard concurrently; lines are relayed as they
        arrive, with indices mapped back to the caller's order and ids
        prefixed. A shard that is down — or dies mid-stream — contributes
        ``failed`` lines for exactly its unfinished specs.
        """
        async def reject(status: int, payload: Any, extra: dict[str, str] | None = None) -> None:
            writer.write(json_response(status, payload, extra))
            await writer.drain()

        if self._draining:
            await reject(409, {"error": "router is shutting down"})
            return
        try:
            entries = parse_stream_request(request.json())
        except (ValueError, SpecError) as exc:
            await reject(400, {"error": str(exc)})
            return
        limited = self._admission(request, float(len(entries)))
        if limited is not None:
            await reject(*limited)
            return
        keys: list[str] = []
        for i, data in enumerate(entries):
            validated = validate_spec(data)
            if isinstance(validated[0], int):
                status, payload = validated  # type: ignore[misc]
                payload = dict(payload)
                payload["error"] = f"jobs[{i}]: {payload['error']}"
                await reject(status, payload)
                return
            spec, _ = validated  # type: ignore[misc]
            keys.append(spec.cache_key())

        self.counters["streams"] += 1
        self.counters["streamed_jobs"] += len(entries)
        by_shard: dict[str, list[int]] = {}
        for i, key in enumerate(keys):
            by_shard.setdefault(self.ring.owner(key), []).append(i)

        lines: asyncio.Queue[dict[str, Any] | None] = asyncio.Queue()

        def failed_line(index: int, error: str) -> dict[str, Any]:
            return {
                "index": index,
                "id": None,
                "key": keys[index],
                "state": "failed",
                "source": None,
                "error": error,
                "spec": entries[index],
                "result": None,
            }

        async def relay(shard: Shard, indices: list[int]) -> None:
            pending = set(indices)

            async def fail_rest(error: str) -> None:
                for index in sorted(pending):
                    await lines.put(failed_line(index, error))
                pending.clear()

            if self._is_down(shard):
                await fail_rest(f"shard {shard.name} is unavailable")
                await lines.put(None)
                return
            body = {"jobs": [entries[i] for i in indices]}
            try:
                status, _, shard_lines = await open_json_stream(
                    shard.host,
                    shard.port,
                    "POST",
                    "/v1/stream",
                    body,
                    timeout=self.cfg.stream_timeout,
                )
                if status != 200:
                    error: Any = f"shard {shard.name} refused stream: HTTP {status}"
                    async for line in shard_lines:
                        error = f"shard {shard.name} refused stream: HTTP {status}: {line}"
                        break
                    await fail_rest(str(error))
                    return  # the ``finally`` below ends this partition
                async for line in shard_lines:
                    index = indices[line.get("index", 0)]
                    pending.discard(index)
                    line = self._prefix_ids(shard, line)
                    line["index"] = index
                    line["shard"] = shard.name
                    await lines.put(line)
                if pending:  # shard ended the stream early (drain mid-sweep)
                    await fail_rest(f"shard {shard.name} closed the stream early")
            except (OSError, ConnectionError, asyncio.TimeoutError, json.JSONDecodeError) as exc:
                self._mark_down(shard)
                await fail_rest(f"shard {shard.name} died mid-stream: {type(exc).__name__}")
            finally:
                await lines.put(None)

        await start_chunked(
            writer,
            200,
            {"X-Stream-Jobs": str(len(entries)), "X-Stream-Shards": str(len(by_shard))},
        )
        tasks = [
            asyncio.ensure_future(relay(self.shards[name], indices))
            for name, indices in by_shard.items()
        ]
        try:
            done = 0
            while done < len(tasks):
                line = await lines.get()
                if line is None:
                    done += 1
                    continue
                await write_chunk(writer, line)
            await end_chunked(writer)
        except (ConnectionError, BrokenPipeError):
            pass  # client went away; relays are cancelled below
        finally:
            for task in tasks:
                task.cancel()
            await asyncio.gather(*tasks, return_exceptions=True)

    # ------------------------------------------------------------------
    # Aggregation

    async def _poll_shards(
        self, path: str
    ) -> dict[str, dict[str, Any] | None]:
        """Fetch one GET endpoint from every shard; ``None`` marks down."""
        names = list(self.shards)

        async def poll(shard: Shard) -> dict[str, Any] | None:
            if self._is_down(shard):
                return None
            try:
                status, payload, _ = await fetch_json(
                    shard.host, shard.port, "GET", path,
                    timeout=self.cfg.timeout, pool=shard.pool,
                )
            except (OSError, ConnectionError, asyncio.TimeoutError):
                self._mark_down(shard)
                return None
            return payload if status == 200 and isinstance(payload, dict) else None

        replies = await asyncio.gather(*(poll(self.shards[n]) for n in names))
        return dict(zip(names, replies))

    async def _healthz(self) -> dict[str, Any]:
        polled = await self._poll_shards("/healthz")
        up = [p for p in polled.values() if p is not None]
        status = "ok" if len(up) == len(polled) else ("degraded" if up else "down")
        if self._draining:
            status = "draining"
        return {
            "status": status,
            "role": "router",
            "version": repro.__version__,
            "router_version": ROUTER_VERSION,
            "protocol_version": PROTOCOL_VERSION,
            "uptime_secs": round(time.time() - self.started_at, 3),
            "ring": {"replicas": self.ring.replicas, "shards": self.ring.names},
            "shards_up": len(up),
            "stored_results": sum(p.get("stored_results", 0) for p in up),
            "active_workers": sum(p.get("active_workers", 0) for p in up),
            "shards": {
                name: (p if p is not None else {"status": "down"})
                for name, p in polled.items()
            },
        }

    async def _metrics(self) -> dict[str, Any]:
        polled = await self._poll_shards("/metrics")
        up = {name: p for name, p in polled.items() if p is not None}
        jobs: dict[str, int] = {}
        queue = {"depth": 0, "capacity": 0, "in_flight": 0}
        workers: dict[str, int] = {}
        checkpoints: dict[str, int] = {}
        # Worker gauges take the max across shards, not the sum: a worker
        # leasing through the router rotates over every shard, so each shard
        # counts the same worker id and summing would multiply the fleet.
        worker_gauges = ("known", "active", "leases_active")
        for p in up.values():
            for k, v in p.get("jobs", {}).items():
                if isinstance(v, (int, float)):
                    jobs[k] = jobs.get(k, 0) + v
            for k in queue:
                queue[k] += p.get("queue", {}).get(k, 0)
            for k, v in p.get("workers", {}).items():
                if not isinstance(v, (int, float)):
                    continue
                if k in worker_gauges:
                    workers[k] = max(workers.get(k, 0), v)
                else:
                    workers[k] = workers.get(k, 0) + v
            for k, v in p.get("checkpoints", {}).items():
                if not isinstance(v, (int, float)):
                    continue
                # last_cycle is a high-water gauge; everything else counts.
                if k == "last_cycle":
                    checkpoints[k] = max(checkpoints.get(k, 0), v)
                else:
                    checkpoints[k] = checkpoints.get(k, 0) + v
        return {
            "router": {
                **self.counters,
                "shards": len(self.shards),
                "shards_up": len(up),
                "rate": self.bucket.rate,
                "burst": self.bucket.burst,
            },
            "http": {
                "connections": self.http.accepted,
                "requests": self.http.served,
                "shard_connections": {
                    name: shard.pool.opened for name, shard in self.shards.items()
                },
            },
            "queue": queue,
            "jobs": jobs,
            "workers": workers,
            "checkpoints": checkpoints,
            "per_shard": {
                name: (
                    {
                        "queue": p.get("queue"),
                        "jobs": p.get("jobs"),
                        "latency": p.get("latency"),
                        "workers": p.get("workers"),
                        "http": p.get("http"),
                        "traces": p.get("traces"),
                    }
                    if p is not None
                    else {"status": "down"}
                )
                for name, p in polled.items()
            },
        }


# ----------------------------------------------------------------------
# Shard supervision + entry point


def parse_shard_url(url: str, index: int) -> Shard:
    """``"host:port"`` / ``"http://host:port"`` -> :class:`Shard` ``s{index}``."""
    addr = url.removeprefix("http://").rstrip("/")
    host, _, port = addr.rpartition(":")
    if not host or not port.isdigit():
        raise ValueError(f"shard address must be host:port, got {url!r}")
    return Shard(name=f"s{index}", host=host, port=int(port))


def _boot_shards(cfg: RouterConfig) -> list[Shard]:
    """Boot ``cfg.shards`` supervised daemons with per-shard state dirs."""
    if cfg.state_dir is None:
        raise ValueError("supervised shards need --state-dir")
    state = Path(cfg.state_dir)
    state.mkdir(parents=True, exist_ok=True)
    shards: list[Shard] = []
    for i in range(cfg.shards):
        shard_dir = state / f"s{i}"
        shard_dir.mkdir(exist_ok=True)
        port_file = shard_dir / "port"
        port_file.unlink(missing_ok=True)
        cmd = [
            sys.executable,
            "-m",
            "repro.cli",
            "serve",
            "--host",
            cfg.host,
            "--port",
            "0",
            "--port-file",
            str(port_file),
            "--store",
            str(shard_dir / "store.jsonl"),
            "--cache-dir",
            str(shard_dir / "cache"),
            "--trace-cache",
            str(shard_dir / "traces"),
            *cfg.shard_args,
        ]
        proc = subprocess.Popen(cmd)
        shards.append(Shard(name=f"s{i}", host=cfg.host, port=0, proc=proc))
    deadline = time.monotonic() + 30.0
    for i, shard in enumerate(shards):
        port_file = state / f"s{i}" / "port"
        while True:
            text = port_file.read_text().strip() if port_file.exists() else ""
            if text:
                shard.port = int(text)
                break
            if shard.proc is not None and shard.proc.poll() is not None:
                _stop_shards(shards)
                raise RuntimeError(f"shard s{i} exited during boot")
            if time.monotonic() > deadline:
                _stop_shards(shards)
                raise RuntimeError(f"shard s{i} did not report a port in 30s")
            time.sleep(0.05)
    return shards


def _stop_shards(shards: list[Shard]) -> None:
    """SIGTERM supervised shards (they drain) and reap them."""
    for shard in shards:
        if shard.proc is not None and shard.proc.poll() is None:
            shard.proc.terminate()
    for shard in shards:
        if shard.proc is not None:
            with contextlib.suppress(subprocess.TimeoutExpired):
                shard.proc.wait(timeout=30.0)
            if shard.proc.poll() is None:
                shard.proc.kill()
                shard.proc.wait()


def run_router(cfg: RouterConfig) -> int:
    """Blocking entry point (what ``dwarn-sim route`` calls)."""
    if cfg.shard_urls:
        shards = [parse_shard_url(url, i) for i, url in enumerate(cfg.shard_urls)]
        supervised: list[Shard] = []
    else:
        shards = _boot_shards(cfg)
        supervised = shards
    try:
        router = SimulationRouter(cfg, shards)
        return asyncio.run(router.serve())
    finally:
        _stop_shards(supervised)
