"""Shared asyncio HTTP/1.1 plumbing for the service daemon and the router.

One hand-rolled HTTP substrate, two processes built on it: the shard daemon
(:mod:`repro.service.server`) and the sharding router
(:mod:`repro.service.router`). Both speak the same dialect — request line +
headers + ``Content-Length`` body in, JSON out — over persistent HTTP/1.1
connections, so the connection loop, the parsing, response framing,
chunked-streaming helpers and the router's *client*-side primitives (pooled
async JSON fetch, chunked-line relay) live here once instead of twice.

Server side:

- :class:`HttpServer` runs one request loop per connection: read a request,
  call the daemon's handler, write its reply, and repeat while the
  connection may persist. It counts accepted connections and served
  requests; when the drain starts it serves what has arrived and closes
  the idle connections.
- :func:`read_request` parses one request off a stream reader, its head
  in one read (returns ``None`` for non-HTTP noise, raises
  :class:`PayloadTooLarge` for oversized bodies — the caller answers 413).
- :func:`json_response` frames a complete JSON reply.
- :func:`start_chunked` / :func:`write_chunk` / :func:`end_chunked`
  implement ``Transfer-Encoding: chunked`` NDJSON streaming, one JSON
  object per chunk, which is what ``POST /v1/stream`` responses use.

A connection ends when the request says ``Connection: close`` (HTTP/1.0
persists only with ``keep-alive``), after a 413 (the body was never read),
on a malformed head, after a streamed reply, once the daemon is draining,
or after :data:`READ_TIMEOUT` idle.

Client side (asyncio — the router talking to its shards; the blocking
``repro.service.client`` keeps its stdlib ``http.client`` transport):

- :func:`fetch_json` performs one request/response round trip over a
  :class:`ConnectionPool`.
- :func:`open_json_stream` opens a request on its own connection and
  yields the response's NDJSON lines incrementally, de-chunking as it
  reads — the primitive the router uses to relay shard streams to its own
  chunked response.
"""

from __future__ import annotations

import asyncio
import contextlib
import json
from dataclasses import dataclass, field
from typing import Any, AsyncIterator, Awaitable, Callable

__all__ = [
    "MAX_BODY_BYTES",
    "READ_TIMEOUT",
    "REASONS",
    "ConnectionPool",
    "HttpServer",
    "PayloadTooLarge",
    "Request",
    "end_chunked",
    "fetch_json",
    "json_response",
    "open_json_stream",
    "read_request",
    "start_chunked",
    "write_chunk",
]

REASONS = {
    200: "OK",
    202: "Accepted",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    409: "Conflict",
    410: "Gone",
    413: "Payload Too Large",
    429: "Too Many Requests",
    500: "Internal Server Error",
    503: "Service Unavailable",
}

#: Largest request body accepted by default (a job spec is <1 KB; a stream
#: request is a few hundred specs at most — anything bigger is not ours).
MAX_BODY_BYTES = 512 * 1024

#: Per-request read timeout: a stalled peer cannot pin a handler task, and
#: a persistent connection idle this long is closed.
READ_TIMEOUT = 30.0

#: One reply: status, JSON payload, extra headers.
Reply = tuple[int, Any, dict[str, str]]


class PayloadTooLarge(ValueError):
    """Request body exceeded the caller's limit; answer 413."""


def _parse_headers(lines: list[str]) -> dict[str, str]:
    headers: dict[str, str] = {}
    for line in lines:
        name, _, value = line.partition(":")
        headers[name.strip().lower()] = value.strip()
    return headers


def _tokens(value: str) -> set[str]:
    return {token.strip() for token in value.lower().split(",")}


@dataclass
class Request:
    """One parsed HTTP request (the subset a JSON API needs)."""

    method: str
    path: str
    headers: dict[str, str] = field(default_factory=dict)
    body: bytes = b""
    version: str = "HTTP/1.1"

    def json(self) -> Any:
        """Decode the body as JSON (``{}`` when empty); raises ValueError."""
        return json.loads(self.body.decode("utf-8") or "{}")

    @property
    def keep_alive(self) -> bool:
        """Whether the client lets the connection persist after the reply:
        HTTP/1.1 unless ``Connection: close``, HTTP/1.0 only with
        ``Connection: keep-alive``."""
        connection = _tokens(self.headers.get("connection", ""))
        if self.version == "HTTP/1.1":
            return "close" not in connection
        return self.version == "HTTP/1.0" and "keep-alive" in connection


# ----------------------------------------------------------------------
# Server side


async def _read_request(reader: asyncio.StreamReader, max_body: int) -> Request | None:
    head = await reader.readuntil(b"\r\n\r\n")
    request_line, *lines = head[:-4].decode("latin-1").split("\r\n")
    parts = request_line.split()
    if len(parts) < 2:
        return None
    headers = _parse_headers(lines)
    raw_length = headers.get("content-length", "0") or "0"
    if not (raw_length.isascii() and raw_length.isdigit()):
        return None  # negative or unparsable Content-Length
    length = int(raw_length)
    if length > max_body:
        raise PayloadTooLarge(f"request body of {length} bytes exceeds {max_body}")
    body = await reader.readexactly(length) if length else b""
    version = parts[2].upper() if len(parts) > 2 else ""
    return Request(parts[0].upper(), parts[1], headers, body, version)


async def read_request(
    reader: asyncio.StreamReader,
    timeout: float = READ_TIMEOUT,
    max_body: int = MAX_BODY_BYTES,
) -> Request | None:
    """Parse one request off ``reader``; ``None`` means drop the connection.

    The head is read in one ``readuntil`` and the whole request under one
    timeout. Raises :class:`PayloadTooLarge` when ``Content-Length``
    exceeds ``max_body`` (the caller should answer 413 — the client *did*
    speak HTTP). Timeouts, EOF, truncated requests, heads longer than the
    reader's limit and bad ``Content-Length`` values return ``None``: not
    HTTP, nothing to answer.
    """
    try:
        return await asyncio.wait_for(_read_request(reader, max_body), timeout)
    except (
        asyncio.TimeoutError,
        asyncio.IncompleteReadError,
        asyncio.LimitOverrunError,
    ):
        return None


def _head(status: int, headers: dict[str, str]) -> bytes:
    lines = [f"HTTP/1.1 {status} {REASONS.get(status, 'Unknown')}"]
    lines.extend(f"{k}: {v}" for k, v in headers.items())
    return ("\r\n".join(lines) + "\r\n\r\n").encode("latin-1")


def json_response(
    status: int,
    payload: Any,
    extra: dict[str, str] | None = None,
    keep_alive: bool = False,
) -> bytes:
    """Frame a complete JSON response (status line, headers, body)."""
    data = (json.dumps(payload) + "\n").encode("utf-8")
    headers = {
        "Content-Type": "application/json",
        "Content-Length": str(len(data)),
        "Connection": "keep-alive" if keep_alive else "close",
    }
    if extra:
        headers.update(extra)
    return _head(status, headers) + data


async def start_chunked(
    writer: asyncio.StreamWriter, status: int = 200, extra: dict[str, str] | None = None
) -> None:
    """Begin a chunked NDJSON response (one JSON object per chunk)."""
    headers = {
        "Content-Type": "application/x-ndjson",
        "Transfer-Encoding": "chunked",
        "Connection": "close",
    }
    if extra:
        headers.update(extra)
    writer.write(_head(status, headers))
    await writer.drain()


async def write_chunk(writer: asyncio.StreamWriter, obj: Any) -> None:
    """Send one JSON object as one chunk (newline-terminated line)."""
    data = (json.dumps(obj) + "\n").encode("utf-8")
    writer.write(f"{len(data):x}\r\n".encode("latin-1") + data + b"\r\n")
    await writer.drain()


async def end_chunked(writer: asyncio.StreamWriter) -> None:
    """Send the terminating zero-length chunk."""
    writer.write(b"0\r\n\r\n")
    await writer.drain()


#: A daemon's request handler: a reply to frame, or ``None`` when the
#: handler wrote its own (chunked) reply and the connection must end.
Handler = Callable[[Request, asyncio.StreamWriter], Awaitable[Reply | None]]


class HttpServer:
    """The connection loop the shard daemon and the router both serve.

    Pass :meth:`serve_connection` to ``asyncio.start_server``. ``accepted``
    and ``served`` count connections and requests, so requests per
    connection is the reuse the clients achieve.
    """

    def __init__(self, handler: Handler) -> None:
        self.handler = handler
        self.accepted = 0
        self.served = 0
        self.draining = False
        #: Connections waiting for the head of their next request.
        self._idle: dict[asyncio.StreamReader, asyncio.StreamWriter] = {}

    async def _next_request(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> Request | None:
        self._idle[reader] = writer
        try:
            return await read_request(reader)
        finally:
            del self._idle[reader]

    async def serve_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        """Serve requests off one connection until it may not persist."""
        self.accepted += 1
        try:
            while True:
                try:
                    request = await self._next_request(reader, writer)
                except PayloadTooLarge:
                    # The body was never read, so the connection ends here.
                    writer.write(json_response(413, {"error": "request body too large"}))
                    await writer.drain()
                    return
                if request is None:
                    return  # not HTTP, idle too long, the peer closed, or the drain
                self.served += 1
                try:
                    reply = await self.handler(request, writer)
                except Exception as exc:  # route bug: report, don't kill the daemon
                    reply = 500, {"error": f"{type(exc).__name__}: {exc}"}, {}
                if reply is None:
                    return  # the handler streamed its own reply
                keep = request.keep_alive and not self.draining
                writer.write(json_response(*reply, keep_alive=keep))
                await writer.drain()
                if not keep or self.draining:
                    return  # a drain that began during the write ends it too
        except (ConnectionError, BrokenPipeError):  # client went away mid-reply
            pass
        finally:
            with contextlib.suppress(Exception):
                writer.close()
                await writer.wait_closed()

    def close_idle(self) -> None:
        """Start the drain: no connection reads past what it has received.

        Requests in flight, and one that has already arrived on a connection
        between requests, still get their reply, with ``Connection: close``.
        A connection with no request received ends at once, and a request
        sent to it later is never read, so it never runs: a client that
        resends after the reset runs it once. Call it before
        ``Server.wait_closed()``, which on Python 3.12.1 and later waits for
        every open connection.
        """
        self.draining = True
        for reader, writer in self._idle.items():
            writer.transport.pause_reading()
            # The waiting read ends with what is buffered: a whole request
            # is served, anything less reads as EOF and ends the connection.
            reader.feed_eof()


# ----------------------------------------------------------------------
# Client side (asyncio; used by the router to talk to shards)


Conn = tuple[asyncio.StreamReader, asyncio.StreamWriter]


class ConnectionPool:
    """Idle keep-alive connections to one peer, last used first.

    :func:`fetch_json` takes a connection from the pool and gives it back
    after a complete reply that allows keep-alive. ``opened`` counts the
    connections it had to open.
    """

    def __init__(self) -> None:
        self._idle: list[Conn] = []
        self._closed = False
        self.opened = 0

    def take(self) -> Conn | None:
        """An idle connection the peer has not closed, or ``None``."""
        while self._idle:
            reader, writer = self._idle.pop()
            if not reader.at_eof() and not writer.is_closing():
                return reader, writer
            writer.close()
        return None

    def give(self, conn: Conn) -> None:
        """Return a connection whose last reply allowed keep-alive."""
        if self._closed:
            conn[1].close()
        else:
            self._idle.append(conn)

    def close(self) -> None:
        """Close every idle connection, and any given back later."""
        self._closed = True
        while self._idle:
            self._idle.pop()[1].close()


def _request_bytes(
    method: str,
    path: str,
    host: str,
    body: bytes,
    headers: dict[str, str] | None,
    keep_alive: bool = False,
) -> bytes:
    head = {
        "Host": host,
        "Connection": "keep-alive" if keep_alive else "close",
    }
    if body:
        head["Content-Type"] = "application/json"
        head["Content-Length"] = str(len(body))
    if headers:
        head.update(headers)
    lines = [f"{method} {path} HTTP/1.1"]
    lines.extend(f"{k}: {v}" for k, v in head.items())
    return ("\r\n".join(lines) + "\r\n\r\n").encode("latin-1") + body


async def _read_status_and_headers(
    reader: asyncio.StreamReader, timeout: float
) -> tuple[int, dict[str, str]]:
    try:
        head = await asyncio.wait_for(reader.readuntil(b"\r\n\r\n"), timeout)
    except (asyncio.IncompleteReadError, asyncio.LimitOverrunError) as exc:
        raise ConnectionError(f"no complete reply head from shard: {exc!r}") from exc
    status_line, *lines = head[:-4].decode("latin-1").split("\r\n")
    parts = status_line.split(None, 2)
    if len(parts) < 2 or not parts[1].isdigit():
        raise ConnectionError(f"malformed status line from shard: {status_line!r}")
    return int(parts[1]), _parse_headers(lines)


async def _send(conn: Conn, data: bytes, timeout: float) -> tuple[int, dict[str, str]]:
    """Write one request and read its reply head."""
    reader, writer = conn
    writer.write(data)
    await writer.drain()
    return await _read_status_and_headers(reader, timeout)


async def fetch_json(
    host: str,
    port: int,
    method: str,
    path: str,
    body: Any | None = None,
    timeout: float = READ_TIMEOUT,
    headers: dict[str, str] | None = None,
    *,
    pool: ConnectionPool,
) -> tuple[int, Any, dict[str, str]]:
    """One async JSON round trip; returns ``(status, payload, headers)``.

    The request goes out on an idle connection from ``pool`` when there is
    one, and the connection returns to the pool after a complete
    ``Content-Length`` reply that allows keep-alive. A reused connection
    that fails before the reply head arrives (the peer closed it while
    idle, or restarted) is retried once on a fresh connection: every shard
    endpoint already survives a client's transport retry.

    Raises ``OSError``/``ConnectionError``/``asyncio.TimeoutError`` on
    transport failure of a fresh connection — the router maps those to
    "shard down".
    """
    payload = json.dumps(body).encode("utf-8") if body is not None else b""
    data = _request_bytes(method, path, f"{host}:{port}", payload, headers, keep_alive=True)
    conn = pool.take()
    if conn is not None:
        try:
            status, resp_headers = await _send(conn, data, timeout)
        except OSError as exc:
            conn[1].close()
            if isinstance(exc, asyncio.TimeoutError):
                raise  # a slow peer, not a stale connection
            conn = None
        except BaseException:
            conn[1].close()
            raise
    if conn is None:
        conn = await asyncio.wait_for(asyncio.open_connection(host, port), timeout)
        pool.opened += 1
        try:
            status, resp_headers = await _send(conn, data, timeout)
        except BaseException:
            conn[1].close()
            raise
    reader, writer = conn
    keep = False
    try:
        length = int(resp_headers.get("content-length", -1))
        if length >= 0:
            raw = await asyncio.wait_for(reader.readexactly(length), timeout)
            keep = "close" not in _tokens(resp_headers.get("connection", ""))
        else:  # close-delimited
            raw = await asyncio.wait_for(reader.read(), timeout)
    finally:
        if keep:
            pool.give(conn)
        else:
            writer.close()
            with contextlib.suppress(ConnectionError, OSError):
                await writer.wait_closed()
    try:
        decoded = json.loads(raw) if raw else None
    except json.JSONDecodeError:
        decoded = raw.decode("utf-8", "replace")
    return status, decoded, resp_headers


async def open_json_stream(
    host: str,
    port: int,
    method: str,
    path: str,
    body: Any | None = None,
    timeout: float = READ_TIMEOUT,
    headers: dict[str, str] | None = None,
) -> tuple[int, dict[str, str], AsyncIterator[Any]]:
    """Open a streaming request; returns ``(status, headers, line_iter)``.

    The stream has a connection of its own, closed when it ends.
    ``line_iter`` yields one decoded JSON object per NDJSON line of the
    response body, de-chunking when the peer sent ``Transfer-Encoding:
    chunked`` and reading to EOF otherwise. The iterator must be consumed
    (or the connection garbage-collected) to release the socket. On a
    non-2xx status the caller typically reads the error payload via the
    iterator's first line instead.
    """
    payload = json.dumps(body).encode("utf-8") if body is not None else b""
    reader, writer = await asyncio.wait_for(
        asyncio.open_connection(host, port), timeout
    )
    try:
        status, resp_headers = await _send(
            (reader, writer),
            _request_bytes(method, path, f"{host}:{port}", payload, headers),
            timeout,
        )
    except BaseException:
        writer.close()
        raise

    chunked = resp_headers.get("transfer-encoding", "").lower() == "chunked"

    async def lines() -> AsyncIterator[Any]:
        buf = b""
        try:
            if chunked:
                while True:
                    size_line = await asyncio.wait_for(reader.readline(), timeout)
                    size = int(size_line.strip() or b"0", 16)
                    if size == 0:
                        break
                    data = await asyncio.wait_for(reader.readexactly(size), timeout)
                    await asyncio.wait_for(reader.readexactly(2), timeout)  # CRLF
                    buf += data
                    while b"\n" in buf:
                        line, buf = buf.split(b"\n", 1)
                        if line.strip():
                            yield json.loads(line)
            else:
                while True:
                    line = await asyncio.wait_for(reader.readline(), timeout)
                    if not line:
                        break
                    if line.strip():
                        yield json.loads(line)
            if buf.strip():
                yield json.loads(buf)
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    return status, resp_headers, lines()
