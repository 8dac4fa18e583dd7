"""Tests for the persistent trace cache.

The contract under test: a trace loaded from the cache's DWIT file is
*bit-identical* to a freshly generated one (field by field, and through a
full simulation), and every failure mode — corruption, truncation, key
mismatch, concurrent writers — degrades to regeneration, never to wrong
results.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor

import pytest

from repro.config import SimulationConfig
from repro.experiments import ExperimentRunner
from repro.trace import (
    RECORD_FIELDS,
    SyntheticTrace,
    TraceArtifactCache,
    clear_trace_cache,
    generate_trace,
    get_profile,
    ingest,
    trace_cache_stats,
)
from repro.trace.artifact import trace_cache_for

_KEY = dict(length=4000, base=1 << 30, seed=777, instance=0)


def _fresh(bench: str = "mcf", **overrides) -> SyntheticTrace:
    kw = {**_KEY, **overrides}
    return SyntheticTrace(get_profile(bench), kw["length"], kw["base"], kw["seed"], kw["instance"])


def _columns(trace: SyntheticTrace) -> dict[str, list]:
    """The trace's columns by field name: one value per record."""
    return dict(zip(RECORD_FIELDS, trace.cols))


def _assert_traces_equal(a: SyntheticTrace, b: SyntheticTrace) -> None:
    cols_a, cols_b = _columns(a), _columns(b)
    for field in RECORD_FIELDS:
        assert cols_a[field] == cols_b[field], field
    assert a.cols == b.cols
    # Static products the simulator reads besides the record arrays.
    assert a.code_base == b.code_base
    assert a.code_bytes == b.code_bytes
    assert a.aspace.l1_resident_lines() == b.aspace.l1_resident_lines()
    assert a.aspace.l2_resident_lines() == b.aspace.l2_resident_lines()


class TestRoundTrip:
    def test_loaded_equals_generated_field_by_field(self, tmp_path):
        cache = TraceArtifactCache(tmp_path)
        fresh = _fresh()
        cache.store(fresh)
        loaded = cache.load(get_profile("mcf"), **_KEY)
        assert loaded is not None
        _assert_traces_equal(fresh, loaded)

    def test_taken_roundtrips_as_0_or_1(self, tmp_path):
        cache = TraceArtifactCache(tmp_path)
        cache.store(_fresh())
        loaded = cache.load(get_profile("mcf"), **_KEY)
        taken = _columns(loaded)["taken"]
        assert {type(t) for t in taken} == {int} and set(taken) == {0, 1}

    def test_key_mismatch_returns_none(self, tmp_path):
        cache = TraceArtifactCache(tmp_path)
        cache.store(_fresh())
        assert cache.load(get_profile("mcf"), 4000, 1 << 30, 778, 0) is None
        assert cache.load(get_profile("gzip"), **_KEY) is None

    def test_mismatched_header_fields_rejected(self, tmp_path):
        # A valid artifact for a *different* seed copied onto this key's
        # path (stale file moved by hand): header validation must reject it.
        cache = TraceArtifactCache(tmp_path)
        path = cache.store(_fresh())
        imposter_path = TraceArtifactCache(tmp_path / "other").store(_fresh(seed=999))
        path.write_bytes(imposter_path.read_bytes())
        assert cache.load(get_profile("mcf"), **_KEY) is None


class TestOneFormat:
    """A trace-cache file is a canonical-mode DWIT file, both ways round."""

    def test_stored_file_reads_as_a_trace_file(self, tmp_path, capsys):
        from repro.cli import main

        fresh = _fresh()
        path = TraceArtifactCache(tmp_path).store(fresh)
        assert path.suffix == ".dwit"
        tf = ingest.read_trace_file(path)
        assert tf.header.address_mode == "canonical"
        assert tf.header.name == "mcf-l4000-b1073741824-s777-i0"
        assert tf.arrays["pc"] == _columns(fresh)["pc"]
        assert main(["ingest", "inspect", str(path)]) == 0
        out = capsys.readouterr().out
        assert "valid trace file" in out and "records:      4000" in out

    def test_exported_file_at_the_key_path_is_a_hit(self, tmp_path):
        cache = TraceArtifactCache(tmp_path)
        fresh = _fresh()
        profile = get_profile("mcf")
        path = cache.path_for(profile, **_KEY)
        ingest.export_trace(fresh, path, name="mcf-l4000-b1073741824-s777-i0")
        loaded = cache.load(profile, **_KEY)
        assert loaded is not None and cache.disk_hits == 1
        _assert_traces_equal(fresh, loaded)

    def test_loads_and_stores_skip_record_validation(self, tmp_path, monkeypatch):
        # The cache reads only files it wrote; external files keep the checks.
        def refuse(*args):
            raise AssertionError("per-record validation on the trace-cache path")

        monkeypatch.setattr(ingest, "_validate_arrays", refuse)
        cache = TraceArtifactCache(tmp_path)
        cache.store(_fresh())
        assert cache.load(get_profile("mcf"), **_KEY) is not None
        with pytest.raises(AssertionError):
            ingest.read_trace_file(cache.path_for(get_profile("mcf"), **_KEY))

    def test_exported_file_under_another_name_is_rejected(self, tmp_path):
        cache = TraceArtifactCache(tmp_path)
        profile = get_profile("mcf")
        path = cache.path_for(profile, **_KEY)
        ingest.export_trace(_fresh(), path)  # name "mcf": not the key
        assert cache.load(profile, **_KEY) is None
        assert cache.rejected == 1 and not path.exists()


class TestCorruption:
    @pytest.mark.parametrize("mutation", ["truncate", "garbage", "flip", "empty"])
    def test_corrupt_artifact_falls_back(self, tmp_path, mutation):
        cache = TraceArtifactCache(tmp_path)
        path = cache.store(_fresh())
        data = path.read_bytes()
        if mutation == "truncate":
            path.write_bytes(data[: len(data) // 3])
        elif mutation == "garbage":
            path.write_bytes(b"not a trace artifact")
        elif mutation == "flip":
            corrupted = bytearray(data)
            corrupted[len(corrupted) // 2] ^= 0xFF
            path.write_bytes(bytes(corrupted))
        else:
            path.write_bytes(b"")
        assert cache.load(get_profile("mcf"), **_KEY) is None
        assert cache.rejected == 1
        assert not path.exists()  # dropped so the rewrite starts clean

    def test_generate_trace_regenerates_and_rewrites(self, tmp_path):
        cache = TraceArtifactCache(tmp_path)
        profile = get_profile("mcf")
        clear_trace_cache()
        first = generate_trace(profile, **_KEY, cache=cache)
        path = cache.path_for(profile, **_KEY)
        assert path.exists()
        path.write_bytes(path.read_bytes()[:100])  # truncate
        clear_trace_cache()
        second = generate_trace(profile, **_KEY, cache=cache)
        clear_trace_cache()
        _assert_traces_equal(first, second)
        assert path.exists()  # rewritten after the corrupt read
        assert cache.load(profile, **_KEY) is not None


class TestGenerateTraceIntegration:
    def test_miss_stores_then_disk_hit(self, tmp_path):
        cache = TraceArtifactCache(tmp_path)
        profile = get_profile("twolf")
        clear_trace_cache()
        generated = generate_trace(profile, **_KEY, cache=cache)
        assert cache.stores == 1
        clear_trace_cache()  # force the memo miss -> disk path
        loaded = generate_trace(profile, **_KEY, cache=cache)
        assert cache.disk_hits == 1
        clear_trace_cache()
        assert loaded is not generated
        _assert_traces_equal(generated, loaded)

    def test_none_cache_scope_is_noop(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        clear_trace_cache()
        t = generate_trace(get_profile("gzip"), 2000, 0, 5, 0, cache=None)
        assert len(t) == 2000
        assert list(tmp_path.iterdir()) == []  # nothing written to the cwd
        clear_trace_cache()

    def test_clear_trace_cache_drops_ingested_traces(self, tmp_path):
        clear_trace_cache()
        path = ingest.export_trace(_fresh("gzip", length=2000), tmp_path / "t.dwit")
        tf = ingest.read_trace_file(path)
        first = ingest.materialize(tf, base=0, seed=5)
        assert ingest.materialize(tf, base=0, seed=5) is first  # memoized
        assert trace_cache_stats()["mem_entries"] == 1
        clear_trace_cache()
        assert trace_cache_stats()["mem_entries"] == 0
        again = ingest.materialize(tf, base=0, seed=5)
        assert again is not first
        assert again.cols == first.cols
        clear_trace_cache()


class TestSimulationParity:
    def test_cached_trace_simulation_is_bit_identical(self, tmp_path):
        """Acceptance gate: a simulation fed a cache-loaded trace must equal
        one fed a freshly generated trace, cycle for cycle."""
        simcfg = SimulationConfig(
            warmup_cycles=200, measure_cycles=1200, trace_length=5000, seed=777
        )
        fresh_runner = ExperimentRunner("baseline", simcfg)
        fresh = fresh_runner.run("2-MEM", "dwarn")

        clear_trace_cache()
        warm_runner = ExperimentRunner(
            "baseline", simcfg, trace_cache_dir=tmp_path / "traces"
        )
        first = warm_runner.run("2-MEM", "dwarn")  # generates + persists
        clear_trace_cache()
        warm_runner._mem_cache.clear()
        second = warm_runner.run("2-MEM", "dwarn")  # traces loaded from disk
        clear_trace_cache()

        assert warm_runner.trace_cache.disk_hits > 0
        for res in (first, second):
            assert res.cycles == fresh.cycles
            assert res.committed == fresh.committed
            assert res.ipc == fresh.ipc


class TestConcurrency:
    def test_two_process_store_race_leaves_valid_file(self, tmp_path):
        with ProcessPoolExecutor(max_workers=2) as pool:
            futs = [
                pool.submit(_store_repeatedly, str(tmp_path), 25) for _ in range(2)
            ]
            assert all(f.result() for f in futs)
        cache = TraceArtifactCache(tmp_path)
        loaded = cache.load(get_profile("gzip"), 3000, 0, 5, 0)
        assert loaded is not None
        _assert_traces_equal(SyntheticTrace(get_profile("gzip"), 3000, 0, 5, 0), loaded)
        assert cache.stats()["entries"] == 1
        assert not list(tmp_path.glob("*.tmp-*"))  # no stray temp files

    @pytest.mark.parametrize("mutation", ["truncate", "flip"])
    def test_corrupt_artifact_under_concurrent_readers(self, tmp_path, mutation):
        """The distributed-worker scenario: several simulation processes
        share one trace-cache directory (each worker machine's
        ``--trace-cache``) while an artifact is corrupt on disk — a torn
        copy, a bad block. Every reader must independently fall back to
        regeneration and agree bit-for-bit; the corrupt file is dropped and
        rewritten, never served."""
        cache = TraceArtifactCache(tmp_path)
        path = cache.store(_fresh("gzip", length=3000, base=0, seed=5, instance=0))
        data = path.read_bytes()
        if mutation == "truncate":
            path.write_bytes(data[: len(data) // 2])
        else:
            corrupted = bytearray(data)
            corrupted[len(corrupted) // 3] ^= 0x40
            path.write_bytes(bytes(corrupted))

        with ProcessPoolExecutor(max_workers=3) as pool:
            futs = [
                pool.submit(_load_or_regenerate, str(tmp_path), 3000)
                for _ in range(3)
            ]
            outcomes = [f.result() for f in futs]

        # At least one reader met the corrupt artifact and rejected it (a
        # late reader may see the file already healed by an earlier one's
        # rewrite); all of them regenerated or loaded an identical trace.
        assert any(rejected >= 1 for rejected, _ in outcomes), outcomes
        fingerprints = {fp for _, fp in outcomes}
        assert len(fingerprints) == 1
        reference = SyntheticTrace(get_profile("gzip"), 3000, 0, 5, 0)
        assert fingerprints == {_fingerprint(reference)}

        # The directory healed: the rewritten artifact is valid again.
        healed = TraceArtifactCache(tmp_path).load(get_profile("gzip"), 3000, 0, 5, 0)
        assert healed is not None
        _assert_traces_equal(reference, healed)

    def test_corruption_mid_sweep_on_shared_worker_cache(self, tmp_path):
        """End-to-end on the worker's actual read path: corrupt one artifact
        between two ``run_pairs`` sweeps over the same shared directory and
        check the second sweep still produces identical results."""
        from repro.experiments.parallel import run_pairs

        simcfg = SimulationConfig(
            warmup_cycles=200, measure_cycles=1200, trace_length=5000, seed=777
        )
        machine = ExperimentRunner("baseline", simcfg).machine
        pairs = [("2-MEM", "dwarn"), ("2-MEM", "icount")]
        first = run_pairs(
            machine, simcfg, pairs, 1, trace_cache_dir=str(tmp_path)
        )
        artifacts = sorted(tmp_path.glob("*.dwit"))
        assert artifacts, list(tmp_path.iterdir())
        blob = bytearray(artifacts[0].read_bytes())
        blob[len(blob) // 2] ^= 0xFF
        artifacts[0].write_bytes(bytes(blob))

        clear_trace_cache()
        second = run_pairs(
            machine, simcfg, pairs, 1, trace_cache_dir=str(tmp_path)
        )
        clear_trace_cache()
        by_pair = {(wl, pol): res for wl, pol, res in first}
        for wl, pol, res in second:
            ref = by_pair[(wl, pol)]
            assert res.ipc == ref.ipc and res.cycles == ref.cycles


class TestMaintenance:
    def test_stats_and_clear(self, tmp_path):
        cache = TraceArtifactCache(tmp_path)
        cache.store(_fresh("gzip"))
        cache.store(_fresh("mcf"))
        stats = cache.stats()
        assert stats["entries"] == 2
        assert stats["total_bytes"] > 0
        assert cache.clear() == 2
        assert cache.stats()["entries"] == 0
        assert cache.clear() == 0  # idempotent on an empty directory

    def test_stats_on_missing_directory(self, tmp_path):
        cache = TraceArtifactCache(tmp_path / "never-created")
        assert cache.stats()["entries"] == 0
        assert cache.clear() == 0

    def test_clear_removes_older_format_files(self, tmp_path):
        # Files of the binary-header format earlier versions wrote.
        for name in ("gzip-l3000-i0-0123456789abcdef.dwtrace", "x.dwtrace.tmp-7"):
            (tmp_path / name).write_bytes(b"DWTR")
        cache = TraceArtifactCache(tmp_path)
        cache.store(_fresh("gzip"))
        assert cache.stats()["entries"] == 2
        assert cache.clear() == 2
        assert list(tmp_path.iterdir()) == []


def _store_repeatedly(directory: str, n: int) -> bool:
    """Worker for the write-race test: hammer one artifact path."""
    trace = SyntheticTrace(get_profile("gzip"), 3000, 0, 5, 0)
    cache = TraceArtifactCache(directory)
    for _ in range(n):
        cache.store(trace)
    return True


def _fingerprint(trace: SyntheticTrace) -> tuple:
    """Cheap cross-process identity for a trace's records."""
    columns = _columns(trace)
    return (
        len(trace),
        sum(columns["pc"]),
        sum(columns["addr"]),
        sum(columns["taken"]),
        trace.code_bytes,
    )


def _load_or_regenerate(directory: str, length: int) -> tuple[int, tuple]:
    """Worker for the concurrent-corruption test: the exact read path a
    distributed worker's simulation process takes (per-process cache object
    over a shared directory), returning (rejected count, fingerprint)."""
    cache = trace_cache_for(directory)
    profile = get_profile("gzip")
    clear_trace_cache()
    trace = generate_trace(profile, length, 0, 5, 0, cache=cache)
    clear_trace_cache()
    return cache.rejected, _fingerprint(trace)


class TestCLICacheCommand:
    def test_stats_and_clear(self, tmp_path, capsys):
        from repro.cli import main

        cache = TraceArtifactCache(tmp_path / "traces")
        cache.store(_fresh("gzip"))
        (tmp_path / "results").mkdir()
        (tmp_path / "results" / "fake-result.json").write_text("{}")

        rc = main([
            "cache", "stats",
            "--cache-dir", str(tmp_path / "results"),
            "--trace-cache", str(tmp_path / "traces"),
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "traces" in out and "results" in out
        assert "memoized" not in out  # a fresh process holds no memo

        rc = main([
            "cache", "clear",
            "--cache-dir", str(tmp_path / "results"),
            "--trace-cache", str(tmp_path / "traces"),
        ])
        assert rc == 0
        assert "removed 1 cached results, 1 trace artifacts" in capsys.readouterr().out
        assert cache.stats()["entries"] == 0
        assert not list((tmp_path / "results").glob("*.json"))
