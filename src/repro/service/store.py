"""JSONL-backed result store: completed jobs, persisted and TTL-evicted.

Every job the service completes appends one self-contained JSON line:
the canonical spec, the ``RunManifest``-derived execution record (source,
in-worker seconds, retries, seed — the same fields
``repro.obs.manifest.PairRecord`` tracks for sweeps), and the serialized
``SimResult``. Append-only JSONL keeps the write path one
``write()+flush()+fsync()`` per record — durable once ``add`` returns, and
crash-safe in the sense that a torn final line is simply skipped on reload —
while still being greppable and ``jq``-able.

Reads are served from an in-memory index (by job id and by spec cache key);
``load()`` rebuilds it on startup, keeping the newest record per cache key
and dropping expired ones. TTL eviction is lazy (checked on access) plus
explicit (``evict_expired``, called by the server's housekeeping and before
``compact()`` rewrites the file without the dead weight).

The store never *blocks* the event loop meaningfully: records are small
(one simulation summary, not a trace), and compaction is an atomic
write-then-rename in the same directory, the repo-wide durability idiom
(see ``repro.trace.artifact``).
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path
from typing import Any, Iterator

__all__ = ["STORE_VERSION", "ResultStore"]

#: Record schema version; bumping it orphans records written by older
#: servers (they are skipped on load, never misparsed).
STORE_VERSION = 1


class ResultStore:
    """Persistent map of completed jobs, keyed by job id and spec cache key.

    ``path=None`` gives a purely in-memory store (tests, ephemeral servers).
    ``ttl`` is seconds a record stays servable after its ``finished_at``;
    ``None`` disables eviction.
    """

    def __init__(self, path: str | Path | None, ttl: float | None = None) -> None:
        self.path = Path(path) if path else None
        self.ttl = ttl
        #: cache key -> record (newest wins).
        self._by_key: dict[str, dict[str, Any]] = {}
        #: job id -> cache key.
        self._by_id: dict[str, str] = {}
        self.evicted = 0
        self.skipped_lines = 0  # torn/foreign lines ignored during load

    # -- record shape ----------------------------------------------------

    @staticmethod
    def make_record(job: Any, pair_record: dict[str, Any] | None = None) -> dict[str, Any]:
        """Build the stored record for a finished ``protocol.Job``.

        ``pair_record`` is the matching ``PairRecord`` dict from the sweep
        manifest when the job was actually simulated (it carries the
        in-worker seconds and retry count the service's own clock cannot
        see); cache-served jobs store a synthesized one.
        """
        return {
            "version": STORE_VERSION,
            "id": job.id,
            "key": job.key,
            "spec": job.spec.to_dict(),
            "state": job.state,
            "source": job.source,
            "submitted_at": job.submitted_at,
            "finished_at": job.finished_at,
            "latency": job.latency,
            "retries": job.retries,
            "coalesced": job.coalesced,
            "worker": job.worker,
            "redelivered": job.redelivered,
            "pair": pair_record,
            "result": job.result,
        }

    # -- persistence -----------------------------------------------------

    def load(self) -> int:
        """Rebuild the index from the JSONL file; returns live record count.

        Unparsable lines (torn final write, foreign content, bytes that are
        not UTF-8) and records from other schema versions are counted in
        ``skipped_lines`` and ignored; expired records are dropped. Newest
        record per cache key wins, so a key re-executed after TTL expiry
        resolves to the rerun.
        """
        self._by_key.clear()
        self._by_id.clear()
        if self.path is None or not self.path.exists():
            return 0
        now = time.time()
        with self.path.open("rb") as fh:  # decoded per line, so a bad byte skips one line
            for line in fh:
                line = line.strip()
                if not line:
                    continue
                try:
                    rec = json.loads(line.decode("utf-8"))
                except (UnicodeDecodeError, json.JSONDecodeError):
                    self.skipped_lines += 1
                    continue
                if not isinstance(rec, dict) or rec.get("version") != STORE_VERSION:
                    self.skipped_lines += 1
                    continue
                if self._expired(rec, now):
                    self.evicted += 1
                    continue
                self._insert(rec)
        return len(self._by_key)

    def add(self, record: dict[str, Any]) -> None:
        """Index a record and append it to the JSONL file (flushed and
        fsynced, so the record survives a crash once this returns)."""
        self._insert(record)
        if self.path is not None:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            with self.path.open("a", encoding="utf-8") as fh:
                fh.write(json.dumps(record, sort_keys=True) + "\n")
                fh.flush()
                os.fsync(fh.fileno())

    def compact(self) -> int:
        """Rewrite the file with only live records; returns live count.

        Atomic write-then-rename, so a reader (or a crash) mid-compaction
        observes either the old file or the new one, never a torn hybrid.
        """
        self.evict_expired()
        if self.path is None:
            return len(self._by_key)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        tmp = self.path.with_name(f"{self.path.name}.tmp-{os.getpid()}")
        with tmp.open("w", encoding="utf-8") as fh:
            for rec in self._by_key.values():
                fh.write(json.dumps(rec, sort_keys=True) + "\n")
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, self.path)
        return len(self._by_key)

    # -- lookup ----------------------------------------------------------

    def get_by_id(self, job_id: str) -> dict[str, Any] | None:
        """Record for one job id, or None if unknown or TTL-expired."""
        key = self._by_id.get(job_id)
        return None if key is None else self.get_by_key(key)

    def get_by_key(self, key: str) -> dict[str, Any] | None:
        """Newest record for a spec cache key, lazily evicting if expired."""
        rec = self._by_key.get(key)
        if rec is None:
            return None
        if self._expired(rec, time.time()):
            self._drop(rec)
            return None
        return rec

    def evict_expired(self) -> int:
        """Drop every expired record now; returns how many went."""
        now = time.time()
        dead = [rec for rec in self._by_key.values() if self._expired(rec, now)]
        for rec in dead:
            self._drop(rec)
        return len(dead)

    def __len__(self) -> int:
        return len(self._by_key)

    def __iter__(self) -> Iterator[dict[str, Any]]:
        return iter(list(self._by_key.values()))

    # -- internals -------------------------------------------------------

    def _expired(self, rec: dict[str, Any], now: float) -> bool:
        if self.ttl is None:
            return False
        finished = rec.get("finished_at")
        return finished is not None and now - float(finished) > self.ttl

    def _insert(self, rec: dict[str, Any]) -> None:
        old = self._by_key.get(rec["key"])
        if old is not None:
            self._by_id.pop(old.get("id"), None)
        self._by_key[rec["key"]] = rec
        if rec.get("id"):
            self._by_id[rec["id"]] = rec["key"]

    def _drop(self, rec: dict[str, Any]) -> None:
        self._by_key.pop(rec.get("key"), None)
        self._by_id.pop(rec.get("id"), None)
        self.evicted += 1
