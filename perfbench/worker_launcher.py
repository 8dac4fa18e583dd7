#!/usr/bin/env python3
"""Traced stand-in for ``dwarn-sim worker`` in the service-mixed traced run.

It builds the same ``Worker`` the CLI builds (same ``WorkerConfig``
defaults), but hands it a transport that records one span per HTTP call
through the ``Worker(cfg, transport=...)`` seam, and wraps
``repro.service.worker.checkpoint_to_bytes`` to time checkpoint capture and
record its size. On SIGTERM the worker finishes its current lease, and the
spans are written to ``--spans`` as JSON lines.
"""

from __future__ import annotations

import argparse
import signal
import sys
from pathlib import Path
from typing import Any

from spans import Tracer


class TimedTransport:
    """``ServiceClient.request`` with a span per call, named by endpoint."""

    def __init__(self, inner: Any, tracer: Tracer) -> None:
        self.inner = inner
        self.tracer = tracer

    def request(self, method: str, path: str, body: dict | None = None,
                deadline_at: float | None = None) -> tuple[int, Any, dict]:
        if path == "/v1/leases":
            name = "worker.lease"
        elif path.endswith("/checkpoint"):
            name = "worker.checkpoint_put"
        elif path.endswith("/result"):
            name = "worker.upload"
        else:
            name = "worker.heartbeat"
        with self.tracer.span(name) as attrs:
            status, payload, headers = self.inner.request(method, path, body, deadline_at)
            if name == "worker.lease":
                attrs["empty"] = not (status == 200 and isinstance(payload, dict)
                                      and payload.get("jobs"))
        return status, payload, headers


def _record_size(args: tuple, kwargs: dict, result: Any, attrs: dict) -> None:
    attrs["bytes"] = len(result)


def main(argv: list[str] | None = None) -> int:
    """Run a traced worker until SIGTERM, then write its spans."""
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--server", required=True)
    parser.add_argument("--checkpoint-interval", type=int, required=True)
    parser.add_argument("--trace-cache", required=True)
    parser.add_argument("--worker-id", required=True)
    parser.add_argument("--spans", required=True)
    args = parser.parse_args(argv)

    import repro.service.worker as worker_mod
    from repro.service.client import ServiceClient

    host, port = worker_mod.parse_server(args.server)
    cfg = worker_mod.WorkerConfig(
        host=host,
        port=port,
        worker_id=args.worker_id,
        trace_cache_dir=args.trace_cache,
        checkpoint_interval=args.checkpoint_interval,
    )
    tracer = Tracer()
    tracer.install_attr(worker_mod, "checkpoint_to_bytes", "columnar.checkpoint",
                        on_exit=_record_size)
    worker = worker_mod.Worker(cfg, transport=TimedTransport(ServiceClient(host, port), tracer))
    signal.signal(signal.SIGTERM, lambda *_: worker.stop())
    try:
        return worker.run()
    finally:
        tracer.uninstall()
        tracer.write(Path(args.spans))


if __name__ == "__main__":
    sys.exit(main())
