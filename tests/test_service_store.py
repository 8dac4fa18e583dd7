"""Result-store semantics: JSONL persistence, reload, TTL eviction,
compaction, and tolerance of torn/foreign lines."""

from __future__ import annotations

import json
import time

from repro.service.protocol import Job, JobSpec, JobState
from repro.service.store import STORE_VERSION, ResultStore


def _record(key_seed: int = 0, jid: str | None = None, finished_at: float | None = None):
    spec = JobSpec.from_dict({"workload": "2-MIX", "policy": "dwarn", "seed": key_seed + 1})
    job = Job(
        id=jid or f"job{key_seed}",
        spec=spec,
        state=JobState.DONE,
        submitted_at=(finished_at or time.time()) - 1.0,
        finished_at=finished_at or time.time(),
        source="simulated",
        result={"throughput": 2.5, "ipc": [1.2, 1.3]},
    )
    return ResultStore.make_record(job, pair_record={"secs": 0.8, "retries": 0})


class TestInMemory:
    def test_add_and_lookup(self):
        store = ResultStore(None)
        rec = _record(0)
        store.add(rec)
        assert store.get_by_id(rec["id"]) == rec
        assert store.get_by_key(rec["key"]) == rec
        assert len(store) == 1

    def test_newest_record_wins_per_key(self):
        store = ResultStore(None)
        a = _record(0, jid="old")
        b = dict(_record(0, jid="new"))
        store.add(a)
        store.add(b)
        assert len(store) == 1
        assert store.get_by_key(a["key"])["id"] == "new"
        assert store.get_by_id("old") is None  # superseded id unindexed

    def test_unknown_lookups(self):
        store = ResultStore(None)
        assert store.get_by_id("nope") is None
        assert store.get_by_key("nope") is None


class TestPersistence:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "results.jsonl"
        store = ResultStore(path)
        recs = [_record(i) for i in range(3)]
        for r in recs:
            store.add(r)

        reloaded = ResultStore(path)
        assert reloaded.load() == 3
        for r in recs:
            assert reloaded.get_by_id(r["id"]) == r

    def test_torn_final_line_skipped(self, tmp_path):
        path = tmp_path / "results.jsonl"
        store = ResultStore(path)
        store.add(_record(0))
        with path.open("a") as fh:
            fh.write('{"version": 1, "key": "abc", "id": "trunc')  # torn write

        reloaded = ResultStore(path)
        assert reloaded.load() == 1
        assert reloaded.skipped_lines == 1

    def test_non_utf8_line_skipped(self, tmp_path):
        path = tmp_path / "results.jsonl"
        store = ResultStore(path)
        store.add(_record(0))
        with path.open("ab") as fh:
            fh.write(b"\xff\xfe\x00junk\n")
        store.add(_record(1))

        reloaded = ResultStore(path)
        assert reloaded.load() == 2
        assert reloaded.skipped_lines == 1

    def test_foreign_and_versioned_lines_skipped(self, tmp_path):
        path = tmp_path / "results.jsonl"
        good = _record(0)
        other = dict(_record(1))
        other["version"] = STORE_VERSION + 1
        path.write_text(
            json.dumps(good) + "\n"
            + json.dumps(other) + "\n"
            + json.dumps([1, 2, 3]) + "\n"
            + "\n"
        )
        store = ResultStore(path)
        assert store.load() == 1
        assert store.skipped_lines == 2
        assert store.get_by_id(good["id"]) is not None

    def test_compact_rewrites_live_only(self, tmp_path):
        path = tmp_path / "results.jsonl"
        store = ResultStore(path)
        store.add(_record(0, jid="old"))
        store.add(_record(0, jid="new"))  # same key: supersedes
        store.add(_record(1))
        assert len(path.read_text().splitlines()) == 3
        assert store.compact() == 2
        lines = [json.loads(ln) for ln in path.read_text().splitlines()]
        assert len(lines) == 2
        assert {r["id"] for r in lines} == {"new", "job1"}


class TestTTL:
    def test_lazy_eviction_on_access(self, tmp_path):
        store = ResultStore(tmp_path / "r.jsonl", ttl=10.0)
        fresh = _record(0, finished_at=time.time())
        stale = _record(1, finished_at=time.time() - 100.0)
        store.add(fresh)
        store.add(stale)
        assert store.get_by_key(stale["key"]) is None
        assert store.get_by_id(stale["id"]) is None
        assert store.get_by_key(fresh["key"]) is not None
        assert store.evicted == 1

    def test_expired_dropped_on_load(self, tmp_path):
        path = tmp_path / "r.jsonl"
        writer = ResultStore(path)
        writer.add(_record(0, finished_at=time.time()))
        writer.add(_record(1, finished_at=time.time() - 100.0))

        reader = ResultStore(path, ttl=10.0)
        assert reader.load() == 1
        assert reader.evicted == 1

    def test_evict_expired_and_compact(self, tmp_path):
        path = tmp_path / "r.jsonl"
        store = ResultStore(path, ttl=10.0)
        store.add(_record(0, finished_at=time.time()))
        store.add(_record(1, finished_at=time.time() - 100.0))
        assert store.compact() == 1  # compaction evicts then rewrites
        assert len(path.read_text().splitlines()) == 1

    def test_no_ttl_keeps_everything(self):
        store = ResultStore(None, ttl=None)
        store.add(_record(0, finished_at=time.time() - 10**6))
        assert store.evict_expired() == 0
        assert len(store) == 1
