"""Trace-ingest frontend: schema validation, round trips, workload wiring.

Three contracts:

1. **Fail closed** — any malformed input (truncation, corruption, bad CRC,
   wrong version, bogus header) raises :class:`IngestError`; the parser
   never crashes with another exception and never silently returns a
   different payload than was written (fuzzed with hypothesis).
2. **Lossless round trip** — export -> ingest reproduces the source trace
   bit-identically, and an ingested workload simulates bit-identically to
   its native synthetic twin on both the staged and fused engines.
3. **Name resolution** — ingested names resolve through ``build_single``
   (so runner / service / CLI all see them) without shadowing native
   benchmarks, and path-shaped names never resolve.

The committed fixture ``examples/traces/sample-mcf.dwit`` is checked end to
end: it inspects cleanly, runs deterministically as a registered workload,
and re-exports to the same payload CRC.
"""

from __future__ import annotations

import dataclasses
import json
from pathlib import Path

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import HealthCheck, given, settings, strategies as st  # noqa: E402

from repro import quick_run  # noqa: E402
from repro.cli import main as cli_main  # noqa: E402
from repro.config import SimulationConfig, baseline  # noqa: E402
from repro.core import Simulator, make_policy  # noqa: E402
from repro.trace import (  # noqa: E402
    RECORD_FIELDS,
    clear_trace_cache,
    generate_trace,
    get_profile,
    trace_cache_stats,
)
from repro.trace import ingest  # noqa: E402
from repro.workloads import build_single  # noqa: E402
from repro.workloads.builder import build_ingested_program  # noqa: E402

_ARRAY_KEYS = (
    "pc", "op", "dest", "src1", "src2", "addr", "brkind", "taken", "target",
)


@pytest.fixture()
def sample_path(tmp_path):
    """A small exported synthetic trace (canonical mode) on disk."""
    trace = generate_trace(get_profile("mcf"), 600, 0, 4242)
    return ingest.export_trace(trace, tmp_path / "sample.dwit", name="sample")


# ---------------------------------------------------------------------------
# round trips


def test_export_ingest_roundtrip_bit_identical(sample_path):
    trace = generate_trace(get_profile("mcf"), 600, 0, 4242)
    tf = ingest.read_trace_file(sample_path)
    assert tf.header.records == 600
    assert tf.header.address_mode == "canonical"
    columns = {field: list(col) for field, col in zip(RECORD_FIELDS, trace.cols)}
    assert tf.arrays["pc"] == columns["pc"]
    assert tf.arrays["op"] == columns["op"]
    assert tf.arrays["addr"] == columns["addr"]
    assert tf.arrays["target"] == columns["target"]
    assert tf.arrays["taken"] == columns["taken"]


def test_reexport_preserves_payload_crc(sample_path, tmp_path):
    hdr = ingest.read_header(sample_path)
    tf = ingest.read_trace_file(sample_path)
    trace = ingest.materialize(tf, base=tf.header.base, seed=99)
    out = ingest.export_trace(trace, tmp_path / "again.dwit", name=hdr.name)
    assert ingest.read_header(out).crc32 == hdr.crc32


def _run(programs, policy: str, simcfg: SimulationConfig, fused: bool):
    sim = Simulator(baseline(), programs, make_policy(policy), simcfg)
    if not fused:
        sim._step = sim._step  # pin => staged reference path
    return sim.run()


@pytest.mark.parametrize("fused", [True, False], ids=["fused", "staged"])
def test_ingested_matches_native_twin(tmp_path, fused):
    """An exported-then-ingested benchmark is indistinguishable from the
    native synthetic program it came from — same SimResult, both engines."""
    simcfg = SimulationConfig(
        warmup_cycles=200, measure_cycles=1_000, trace_length=2_000, seed=777
    )
    native = build_single("mcf", simcfg)
    path = ingest.export_trace(native[0].trace, tmp_path / "twin.dwit")
    ingested = [build_ingested_program("twin-mcf", path, 0, simcfg)]

    a = _run(native, "dwarn", simcfg, fused)
    b = _run(ingested, "dwarn", simcfg, fused)
    da, db = dataclasses.asdict(a), dataclasses.asdict(b)
    da.pop("benchmarks"), db.pop("benchmarks")  # names differ by design
    assert da == db


# ---------------------------------------------------------------------------
# fail-closed parsing (fuzz)


@settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[
        HealthCheck.too_slow,
        HealthCheck.data_too_large,
        # The fixtures only provide paths; each example writes its own bytes.
        HealthCheck.function_scoped_fixture,
    ],
)
@given(data=st.data())
def test_mutated_file_never_parses_wrong(sample_path, tmp_path, data):
    """Truncate or corrupt the file anywhere: the parser must either raise
    IngestError or return the original payload — never crash, never return
    silently different record arrays."""
    raw = sample_path.read_bytes()
    original = ingest.read_trace_file(sample_path)
    mode = data.draw(st.sampled_from(["truncate", "flip", "insert"]))
    if mode == "truncate":
        cut = data.draw(st.integers(min_value=0, max_value=len(raw) - 1))
        mutated = raw[:cut]
    elif mode == "flip":
        pos = data.draw(st.integers(min_value=0, max_value=len(raw) - 1))
        bit = data.draw(st.integers(min_value=0, max_value=7))
        mutated = raw[:pos] + bytes([raw[pos] ^ (1 << bit)]) + raw[pos + 1:]
    else:
        pos = data.draw(st.integers(min_value=0, max_value=len(raw)))
        junk = data.draw(st.binary(min_size=1, max_size=8))
        mutated = raw[:pos] + junk + raw[pos:]
    target = tmp_path / "mutated.dwit"
    target.write_bytes(mutated)
    try:
        got = ingest.read_trace_file(target)
    except ingest.IngestError:
        return  # fail-closed: the contractually allowed outcome
    # A mutation confined to non-semantic header bytes may still parse;
    # the payload must then be byte-for-byte what was written.
    for key in _ARRAY_KEYS:
        assert got.arrays[key] == original.arrays[key]


def _header_variant(raw: bytes, **overrides):
    head, _, body = raw.partition(b"\n")
    doc = json.loads(head)
    doc.update(overrides)
    return json.dumps(doc).encode("ascii") + b"\n" + body


@pytest.mark.parametrize(
    "overrides",
    [
        {"version": 99},
        {"magic": "NOPE"},
        {"records": 999999},
        {"crc32": 1},
        {"profile": "not-a-profile"},
        {"address_mode": "sideways"},
        {"fields": [["q", "pc"]]},
    ],
    ids=["version", "magic", "records", "crc", "profile", "mode", "fields"],
)
def test_bad_header_fields_rejected(sample_path, tmp_path, overrides):
    target = tmp_path / "bad.dwit"
    target.write_bytes(_header_variant(sample_path.read_bytes(), **overrides))
    with pytest.raises(ingest.IngestError):
        ingest.read_trace_file(target)


def test_not_a_trace_file(tmp_path):
    p = tmp_path / "nope.dwit"
    p.write_bytes(b"this is not a trace\n" + b"\x00" * 64)
    with pytest.raises(ingest.IngestError):
        ingest.read_header(p)
    with pytest.raises(ingest.IngestError):
        ingest.read_trace_file(p)


def test_convert_jsonl_reports_line_numbers(tmp_path):
    lines = [
        json.dumps({"pc": 4096, "op": "int"}),
        json.dumps({"pc": 4100, "op": "NOT_AN_OP"}),
    ]
    with pytest.raises(ingest.IngestError, match="line 2"):
        ingest.convert_jsonl(lines, tmp_path / "out.dwit", name="conv")


# ---------------------------------------------------------------------------
# workload resolution


def test_registered_name_resolves_through_build_single(sample_path):
    simcfg = SimulationConfig(
        warmup_cycles=0, measure_cycles=200, trace_length=2_000, seed=777
    )
    ingest.register_workload("ingest-test-wl", sample_path)
    try:
        programs = build_single("ingest-test-wl", simcfg)
        assert len(programs) == 1
        assert len(programs[0].trace) == 600
    finally:
        ingest._REGISTRY.pop("ingest-test-wl", None)


def test_ingested_builds_read_the_file_once(monkeypatch):
    """Builds of one ingested workload at one seed share its memoized trace:
    the first reads and validates the file, the rest read only its header."""
    simcfg = SimulationConfig(
        warmup_cycles=0, measure_cycles=200, trace_length=2_000, seed=31337
    )
    read_trace_file = ingest.read_trace_file
    reads = []

    def counting_read(path):
        reads.append(path)
        return read_trace_file(path)

    monkeypatch.setattr(ingest, "read_trace_file", counting_read)
    monkeypatch.setitem(ingest._REGISTRY, "read-once-mcf", FIXTURE)
    clear_trace_cache()
    try:
        traces = [build_single("read-once-mcf", simcfg)[0].trace for _ in range(7)]
    finally:
        clear_trace_cache()
    assert reads == [FIXTURE]
    assert all(trace is traces[0] for trace in traces)


def test_file_rewritten_between_header_and_body_is_refused(sample_path, tmp_path, monkeypatch):
    """The memo key comes from the header: a body read from another file
    than that header's is refused, never memoized under its key."""
    other = ingest.export_trace(
        generate_trace(get_profile("mcf"), 600, 0, 4243), tmp_path / "other.dwit", name="sample"
    )
    read_trace_file = ingest.read_trace_file
    monkeypatch.setattr(ingest, "read_trace_file", lambda path: read_trace_file(other))
    clear_trace_cache()
    with pytest.raises(ingest.IngestError, match="changed while it was being read"):
        ingest.materialize_file(sample_path, 0, 99)
    assert trace_cache_stats()["mem_entries"] == 0


def test_native_names_shadow_ingested(sample_path):
    """A registration colliding with a native profile never wins."""
    simcfg = SimulationConfig(
        warmup_cycles=0, measure_cycles=200, trace_length=1_500, seed=777
    )
    ingest.register_workload("mcf", sample_path)
    try:
        programs = build_single("mcf", simcfg)
        assert len(programs[0].trace) == simcfg.trace_length  # native, not 600
    finally:
        ingest._REGISTRY.pop("mcf", None)


@pytest.mark.parametrize("name", ["../evil", "a/b", "a\\b", ".hidden", ""])
def test_pathlike_names_never_resolve(name):
    assert ingest.find_ingested(name) is None


def test_find_unknown_returns_none():
    assert ingest.find_ingested("definitely-not-registered") is None


# ---------------------------------------------------------------------------
# the committed fixture

FIXTURE = Path(__file__).resolve().parents[1] / "examples" / "traces" / "sample-mcf.dwit"


def test_committed_fixture_inspects_cleanly(capsys):
    assert cli_main(["ingest", "inspect", str(FIXTURE)]) == 0
    assert "valid trace file" in capsys.readouterr().out


def test_committed_fixture_runs_deterministically_as_a_workload():
    ingest.register_workload("fixture-mcf", FIXTURE)
    try:
        first = quick_run("fixture-mcf", "meta")
        second = quick_run("fixture-mcf", "meta")
    finally:
        ingest._REGISTRY.pop("fixture-mcf", None)
    assert dataclasses.asdict(first) == dataclasses.asdict(second)


def test_committed_fixture_reexports_same_crc(tmp_path):
    header = ingest.read_header(FIXTURE)
    tf = ingest.read_trace_file(FIXTURE)
    trace = ingest.materialize(tf, base=tf.header.base, seed=12345)
    out = ingest.export_trace(trace, tmp_path / "roundtrip.dwit", name=header.name)
    assert ingest.read_header(out).crc32 == header.crc32
