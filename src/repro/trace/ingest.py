"""Real-trace ingestion: a portable on-disk trace schema and its frontend.

Every workload the simulator ran before this module existed was synthetic
(:mod:`repro.trace.synthetic` walking a generated CFG). This module opens
the frontend to *real* basic-block/control-flow traces: a versioned,
self-describing file format, a validating reader that refuses malformed
input with :class:`IngestError` (never a crash, never a silently wrong
trace), and a materializer that interns the file's addresses through the
:mod:`repro.trace.address_space` region model and emits a
:class:`~repro.trace.synthetic.SyntheticTrace`-compatible stream — so
ingested workloads flow unchanged through ``generate_trace`` consumers,
``run_pairs``, the vec backend and the service job specs.

File format (version 1)::

    line 1   NDJSON header (UTF-8 JSON object + ``\\n``), fields:
             magic="DWIT", version, name, profile, address_mode,
             base, records, fields, payload_bytes, crc32
    body     struct-packed little-endian parallel arrays, in this
             order: pc[q] op[b] dest[b] src1[b] src2[b] addr[q]
             brkind[b] taken[b] target[q]   (q = int64, b = int8)

The one-line JSON header makes a trace file inspectable with ``head -1``
while the body stays compact (30 bytes/record); the CRC-32 covers the
body, and every declared count must reconcile exactly with the bytes on
disk. The trace cache (:mod:`repro.trace.artifact`) stores every trace it
persists as a canonical-mode file of this format.

Two address modes:

- ``"canonical"`` — addresses already follow the simulator's per-thread
  region model for the recorded ``base`` (what :func:`export_trace`
  writes). Materializing only rebases them to the target thread's slice,
  so an export -> ingest round trip is bit-identical.
- ``"raw"`` — arbitrary PCs and effective addresses from an instrumented
  real program (what :func:`convert_jsonl` writes). Materializing interns
  them: distinct PCs pack into the CODE region in first-seen order, and
  data lines are ranked by access frequency and mapped onto the hot /
  warm / cold tiers of the thread's :class:`AddressSpace`, so the
  calibrated cache model applies to the real access pattern.

Named ingested workloads resolve through :func:`find_ingested` — an
in-process registry first, then ``<ingest dir>/<name>.dwit`` where the
ingest directory is ``$DWARN_SIM_INGEST_DIR`` or ``.cache/ingested`` —
which is how ``build_single``/``quick_run``/the vec backend/the service
accept an ingested name anywhere a benchmark name is accepted.
"""

from __future__ import annotations

import json
import os
import sys
import zlib
from array import array
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Iterable, Mapping, Sequence

from repro.isa.opcodes import BranchKind, OpClass
from repro.trace.address_space import (
    CODE_OFFSET,
    COLD_OFFSET,
    LINE_BYTES,
    WRONGPATH_OFFSET,
)
from repro.trace.codegen import INSTR_BYTES
from repro.trace.profiles import PROFILES, get_profile
from repro.trace.synthetic import RECORD_FIELDS, SyntheticTrace, memoized_trace

__all__ = [
    "DEFAULT_INGEST_DIR",
    "INGEST_DIR_ENV",
    "INGEST_MAGIC",
    "INGEST_SUFFIX",
    "TRACE_INGEST_VERSION",
    "IngestError",
    "IngestHeader",
    "IngestedTraceFile",
    "convert_jsonl",
    "decode_trace",
    "export_trace",
    "find_ingested",
    "ingest_dir",
    "ingest_schema_info",
    "ingest_stats",
    "ingested_workloads",
    "materialize",
    "materialize_file",
    "read_header",
    "read_trace_file",
    "register_workload",
    "registered_workloads",
    "write_trace_file",
]

#: Bump whenever the header schema or body byte layout changes; readers
#: refuse any other version outright (no silent best-effort parsing).
TRACE_INGEST_VERSION = 1

INGEST_MAGIC = "DWIT"
INGEST_SUFFIX = ".dwit"

#: Environment override for the named-ingested-workload directory.
INGEST_DIR_ENV = "DWARN_SIM_INGEST_DIR"
#: Fallback ingested-workload directory (registered names live here).
DEFAULT_INGEST_DIR = ".cache/ingested"

#: (typecode, field) pairs in body order.
_FIELDS: tuple[tuple[str, str], ...] = (
    ("q", "pc"),
    ("b", "op"),
    ("b", "dest"),
    ("b", "src1"),
    ("b", "src2"),
    ("q", "addr"),
    ("b", "brkind"),
    ("b", "taken"),
    ("q", "target"),
)

_RECORD_BYTES = sum(8 if t == "q" else 1 for t, _ in _FIELDS)

#: Header-line length bound: a valid header is well under 1 KiB; refusing
#: to scan further bounds the damage an adversarial "header" can do.
_MAX_HEADER_BYTES = 4096

#: Record-count bounds. The floor of 2 leaves room for the wrap jump plus
#: at least one real instruction; the ceiling matches the service's
#: MAX_TRACE_LENGTH scale with headroom for offline experiments.
_MIN_RECORDS = 2
_MAX_RECORDS = 50_000_000

_ADDRESS_MODES = ("canonical", "raw")

_I63_MAX = (1 << 63) - 1
_OP_BRANCH = int(OpClass.BRANCH)
_OP_LOAD = int(OpClass.LOAD)
_OP_STORE = int(OpClass.STORE)
_BRK_NONE = int(BranchKind.NONE)
_BRK_JUMP = int(BranchKind.JUMP)

#: Byte budget of the CODE region (PC interning must fit inside it).
_CODE_REGION_BYTES = WRONGPATH_OFFSET - CODE_OFFSET


class IngestError(ValueError):
    """A trace file failed validation; ``str(exc)`` says what and where.

    This is the *only* exception the reading/validation surface raises for
    malformed input — truncation, corruption, bad CRC, wrong version, out-
    of-range fields all land here, so callers (CLI, service, tests) need
    exactly one except clause and can trust that a successful read is a
    fully validated trace.
    """


@dataclass(frozen=True)
class IngestHeader:
    """Parsed + validated NDJSON header of one trace file."""

    name: str
    profile: str
    address_mode: str
    base: int
    records: int
    payload_bytes: int
    crc32: int
    version: int = TRACE_INGEST_VERSION

    def to_dict(self) -> dict[str, Any]:
        """Wire-form dict (the JSON object written as line 1)."""
        return {
            "magic": INGEST_MAGIC,
            "version": self.version,
            "name": self.name,
            "profile": self.profile,
            "address_mode": self.address_mode,
            "base": self.base,
            "records": self.records,
            "fields": [f for _, f in _FIELDS],
            "payload_bytes": self.payload_bytes,
            "crc32": self.crc32,
        }


@dataclass(frozen=True)
class IngestedTraceFile:
    """A fully validated trace file: header plus decoded parallel arrays."""

    header: IngestHeader
    arrays: dict[str, list[int]]
    path: Path | None = None


def ingest_schema_info() -> dict[str, Any]:
    """Machine-readable description of the trace file format.

    ``dwarn-sim version`` prints this and the service's ``/healthz``
    reports it, so two deployments can check at a glance whether their
    trace files, ingested and trace-cache ones alike, are mutually readable.
    """
    return {
        "version": TRACE_INGEST_VERSION,
        "magic": INGEST_MAGIC,
        "suffix": INGEST_SUFFIX,
        "record_bytes": _RECORD_BYTES,
        "fields": [f for _, f in _FIELDS],
        "address_modes": list(_ADDRESS_MODES),
    }


# ---------------------------------------------------------------------------
# validation


def _fail(path: Path | None, why: str) -> "IngestError":
    where = str(path) if path is not None else "<trace data>"
    return IngestError(f"{where}: {why}")


def _parse_header(data: bytes, path: Path | None) -> tuple[IngestHeader, int]:
    """Parse+validate the NDJSON header; returns (header, body offset)."""
    nl = data.find(b"\n", 0, _MAX_HEADER_BYTES)
    if nl < 0:
        raise _fail(path, "no header line found (not a DWIT trace file?)")
    try:
        obj = json.loads(data[:nl].decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise _fail(path, f"header line is not valid JSON: {exc}") from None
    if not isinstance(obj, dict):
        raise _fail(path, "header line must be a JSON object")

    required = {
        "magic", "version", "name", "profile", "address_mode",
        "base", "records", "fields", "payload_bytes", "crc32",
    }
    missing = sorted(required - set(obj))
    if missing:
        raise _fail(path, f"header missing field(s): {', '.join(missing)}")
    unknown = sorted(set(obj) - required)
    if unknown:
        raise _fail(path, f"header has unknown field(s): {', '.join(unknown)}")

    if obj["magic"] != INGEST_MAGIC:
        raise _fail(path, f"bad magic {obj['magic']!r} (expected {INGEST_MAGIC!r})")
    if obj["version"] != TRACE_INGEST_VERSION:
        raise _fail(
            path,
            f"unsupported ingest version {obj['version']!r} "
            f"(this build reads v{TRACE_INGEST_VERSION})",
        )
    name = obj["name"]
    if not isinstance(name, str) or not name or len(name) > 120:
        raise _fail(path, "header 'name' must be a non-empty string (<=120 chars)")
    profile = obj["profile"]
    if not isinstance(profile, str) or profile not in PROFILES:
        raise _fail(
            path,
            f"header 'profile' {profile!r} is not a known benchmark profile "
            f"(valid: {sorted(PROFILES)})",
        )
    mode = obj["address_mode"]
    if mode not in _ADDRESS_MODES:
        raise _fail(path, f"header 'address_mode' {mode!r} not in {_ADDRESS_MODES}")
    base = obj["base"]
    if isinstance(base, bool) or not isinstance(base, int) or not 0 <= base <= _I63_MAX:
        raise _fail(path, "header 'base' must be a non-negative int64")
    records = obj["records"]
    if (
        isinstance(records, bool)
        or not isinstance(records, int)
        or not _MIN_RECORDS <= records <= _MAX_RECORDS
    ):
        raise _fail(
            path, f"header 'records' must be an int in {_MIN_RECORDS}..{_MAX_RECORDS}"
        )
    if obj["fields"] != [f for _, f in _FIELDS]:
        raise _fail(path, "header 'fields' does not match the v1 record layout")
    payload_bytes = obj["payload_bytes"]
    if payload_bytes != records * _RECORD_BYTES:
        raise _fail(
            path,
            f"header 'payload_bytes' {payload_bytes!r} != records * "
            f"{_RECORD_BYTES} ({records * _RECORD_BYTES})",
        )
    crc = obj["crc32"]
    if isinstance(crc, bool) or not isinstance(crc, int) or not 0 <= crc < (1 << 32):
        raise _fail(path, "header 'crc32' must be a uint32")

    header = IngestHeader(
        name=name,
        profile=profile,
        address_mode=mode,
        base=base,
        records=records,
        payload_bytes=payload_bytes,
        crc32=crc,
        version=TRACE_INGEST_VERSION,
    )
    return header, nl + 1


def _validate_arrays(
    arrays: Mapping[str, Sequence[int]], records: int, path: Path | None
) -> None:
    """Range/consistency checks over the decoded parallel arrays.

    These are the checks that make "it parsed" mean "it is a trace the
    simulator can run": op/brkind enums in range, register ids valid,
    branch sub-kinds only on branches, taken flags boolean and only on
    branches. Violations raise :class:`IngestError` naming the first bad
    record.
    """
    for _, field in _FIELDS:
        if len(arrays[field]) != records:
            raise _fail(path, f"field {field!r} decoded to {len(arrays[field])} "
                              f"records (header says {records})")
    op_a = arrays["op"]
    brk_a = arrays["brkind"]
    taken_a = arrays["taken"]
    pc_a = arrays["pc"]
    addr_a = arrays["addr"]
    target_a = arrays["target"]
    for i in range(records):
        op = op_a[i]
        if not 0 <= op <= 4:
            raise _fail(path, f"record {i}: op {op} outside OpClass range 0..4")
        brk = brk_a[i]
        if op == _OP_BRANCH:
            if not 1 <= brk <= 4:
                raise _fail(
                    path, f"record {i}: branch with brkind {brk} (need COND/JUMP/CALL/RET)"
                )
        elif brk != _BRK_NONE:
            raise _fail(path, f"record {i}: non-branch op {op} with brkind {brk}")
        taken = taken_a[i]
        if taken not in (0, 1):
            raise _fail(path, f"record {i}: taken flag {taken} is not 0/1")
        if op != _OP_BRANCH and taken:
            raise _fail(path, f"record {i}: non-branch marked taken")
        if pc_a[i] < 0:
            raise _fail(path, f"record {i}: negative pc")
        if addr_a[i] < 0:
            raise _fail(path, f"record {i}: negative address")
        if target_a[i] < 0:
            raise _fail(path, f"record {i}: negative branch target")
    for field in ("dest", "src1", "src2"):
        for i, reg in enumerate(arrays[field]):
            if not -1 <= reg <= 63:
                raise _fail(
                    path, f"record {i}: {field} register {reg} outside -1..63"
                )


# ---------------------------------------------------------------------------
# read / write


def decode_trace(
    data: bytes, path: Path | None = None
) -> tuple[IngestHeader, dict[str, array[int]]]:
    """Parse one trace file's bytes into its header and its nine columns.

    Checks the framing: the header, the body's length against it and the
    body's CRC-32; any fault raises :class:`IngestError`. It does not check
    the records themselves: :func:`read_trace_file` adds that for external
    files, and the trace cache, which reads only files it wrote, skips it.
    """
    header, body_at = _parse_header(data, path)
    payload = memoryview(data)[body_at:]
    if len(payload) != header.payload_bytes:
        raise _fail(
            path,
            f"body is {len(payload)} bytes, header declares "
            f"{header.payload_bytes} (truncated or padded file)",
        )
    if zlib.crc32(payload) != header.crc32:
        raise _fail(path, "body CRC-32 mismatch (corrupt or tampered file)")
    columns: dict[str, array[int]] = {}
    offset = 0
    for typecode, field in _FIELDS:
        nbytes = header.records * (8 if typecode == "q" else 1)
        col = array(typecode)
        col.frombytes(payload[offset : offset + nbytes])
        if sys.byteorder != "little":  # pragma: no cover - exotic hosts
            col.byteswap()
        columns[field] = col
        offset += nbytes
    return header, columns


def read_header(path: str | Path) -> IngestHeader:
    """Parse and validate only the header line (cheap: one small read).

    ``dwarn-sim list`` uses this to show name/source/instruction count
    without decoding bodies; the body is *not* CRC-checked here.
    """
    p = Path(path)
    try:
        with open(p, "rb") as fh:
            head = fh.read(_MAX_HEADER_BYTES)
    except OSError as exc:
        raise _fail(p, f"cannot read: {exc}") from None
    header, _ = _parse_header(head, p)
    return header


def read_trace_file(path: str | Path) -> IngestedTraceFile:
    """Read and fully validate one trace file.

    Every failure mode — unreadable file, missing/garbage header, wrong
    magic or version, count/byte mismatches, CRC failure, out-of-range
    record fields — raises :class:`IngestError`. A returned value is a
    complete, semantically valid trace.
    """
    p = Path(path)
    try:
        data = p.read_bytes()
    except OSError as exc:
        raise _fail(p, f"cannot read: {exc}") from None
    header, columns = decode_trace(data, p)
    arrays = {field: col.tolist() for field, col in columns.items()}
    _validate_arrays(arrays, header.records, p)
    return IngestedTraceFile(header=header, arrays=arrays, path=p)


def write_trace_file(
    path: str | Path,
    name: str,
    profile: str,
    arrays: Mapping[str, Sequence[int]],
    address_mode: str,
    base: int,
) -> Path:
    """Serialize validated parallel arrays to a v1 trace file.

    The writer runs the same semantic validation as the reader (so a file
    this module writes always reads back), packs the body, and publishes
    the file atomically (temp + ``os.replace``).
    """
    p = Path(path)
    records = len(arrays.get("pc", []))
    if not _MIN_RECORDS <= records <= _MAX_RECORDS:
        raise IngestError(
            f"cannot write {p}: {records} records outside "
            f"{_MIN_RECORDS}..{_MAX_RECORDS}"
        )
    if address_mode not in _ADDRESS_MODES:
        raise IngestError(f"unknown address_mode {address_mode!r}")
    if profile not in PROFILES:
        raise IngestError(f"unknown profile {profile!r}; valid: {sorted(PROFILES)}")
    _validate_arrays(arrays, records, None)
    return _write(p, name, profile, arrays, address_mode, base)


def _write(
    p: Path,
    name: str,
    profile: str,
    columns: Mapping[str, Sequence[int]],
    address_mode: str,
    base: int,
) -> Path:
    """Pack ``columns`` under a header and publish the file atomically, so
    a reader racing a writer (or two writers racing each other) sees the
    old file, the new one or none, never a torn one."""
    parts: list[bytes] = []
    for typecode, field in _FIELDS:
        # A trace's own ``array('b')`` columns copy with one memcpy.
        col = array(typecode, columns[field])
        if sys.byteorder != "little":  # pragma: no cover - exotic hosts
            col.byteswap()
        parts.append(col.tobytes())
    payload = b"".join(parts)
    header = IngestHeader(
        name=name,
        profile=profile,
        address_mode=address_mode,
        base=base,
        records=len(columns["pc"]),
        payload_bytes=len(payload),
        crc32=zlib.crc32(payload),
    )
    line = json.dumps(header.to_dict(), sort_keys=True, separators=(",", ":"))
    p.parent.mkdir(parents=True, exist_ok=True)
    tmp = p.with_name(f"{p.name}.tmp-{os.getpid()}")
    tmp.write_bytes(line.encode("utf-8") + b"\n" + payload)
    os.replace(tmp, p)
    return p


def export_trace(
    trace: SyntheticTrace, path: str | Path, name: str | None = None
) -> Path:
    """Write a synthetic trace as a ``canonical``-mode trace file.

    This is the self-contained fixture path: CI (and any test) can export
    a deterministic synthetic trace, ingest it back, and require the
    round trip to be bit-identical — no proprietary trace inputs needed.
    The trace cache writes its files through here too. A trace is well
    formed by construction, so its records are not validated again.
    """
    return _write(
        Path(path),
        name or trace.profile.name,
        trace.profile.name,
        dict(zip(RECORD_FIELDS, trace.cols)),
        "canonical",
        trace.base,
    )


#: Per-record JSONL keys accepted by :func:`convert_jsonl` (op/brkind may be
#: spelled as the enum names); missing register fields default to REG_NONE.
_JSONL_OPS = {m.name.lower(): int(m) for m in OpClass}
_JSONL_BRKINDS = {m.name.lower(): int(m) for m in BranchKind}


def _coerce_enum(
    value: Any, table: dict[str, int], what: str, lineno: int
) -> int:
    if isinstance(value, str):
        try:
            return table[value.lower()]
        except KeyError:
            raise IngestError(
                f"line {lineno}: unknown {what} {value!r} "
                f"(valid: {sorted(table)})"
            ) from None
    if isinstance(value, bool) or not isinstance(value, int):
        raise IngestError(f"line {lineno}: {what} must be an int or name")
    return value


def convert_jsonl(
    lines: Iterable[str],
    out_path: str | Path,
    name: str,
    profile: str = "gzip",
) -> Path:
    """Convert a textual JSONL trace (one record per line) to the binary
    format, in ``raw`` address mode.

    Each line is a JSON object with at least ``pc`` and ``op``; memory ops
    need ``addr``; branches need ``brkind`` and ``taken`` (``target``
    optional — materialization recomputes targets from the successor
    record). ``dest``/``src1``/``src2`` default to -1 (no register). This
    is the on-ramp for instrumented real-program traces: any tool that can
    emit JSON lines can feed the simulator.
    """
    arrays: dict[str, list[int]] = {f: [] for _, f in _FIELDS}
    lineno = 0
    for raw in lines:
        lineno += 1
        text = raw.strip()
        if not text:
            continue
        try:
            rec = json.loads(text)
        except json.JSONDecodeError as exc:
            raise IngestError(f"line {lineno}: not valid JSON: {exc}") from None
        if not isinstance(rec, dict):
            raise IngestError(f"line {lineno}: record must be a JSON object")
        if "pc" not in rec or "op" not in rec:
            raise IngestError(f"line {lineno}: record needs at least pc and op")
        op = _coerce_enum(rec["op"], _JSONL_OPS, "op", lineno)
        brk = _coerce_enum(rec.get("brkind", 0), _JSONL_BRKINDS, "brkind", lineno)
        pc = rec["pc"]
        if isinstance(pc, bool) or not isinstance(pc, int):
            raise IngestError(f"line {lineno}: pc must be an integer")
        arrays["pc"].append(pc)
        arrays["op"].append(op)
        arrays["dest"].append(int(rec.get("dest", -1)))
        arrays["src1"].append(int(rec.get("src1", -1)))
        arrays["src2"].append(int(rec.get("src2", -1)))
        arrays["addr"].append(int(rec.get("addr", 0)))
        arrays["brkind"].append(brk)
        arrays["taken"].append(1 if rec.get("taken") else 0)
        arrays["target"].append(int(rec.get("target", 0)))
    if lineno == 0 or not arrays["pc"]:
        raise IngestError("no records found in JSONL input")
    return write_trace_file(
        out_path, name=name, profile=profile, arrays=arrays,
        address_mode="raw", base=0,
    )


# ---------------------------------------------------------------------------
# materialization (file -> SyntheticTrace-compatible stream)


def _intern_raw(
    arrays: dict[str, list[int]], trace: SyntheticTrace
) -> dict[str, list[int]]:
    """Intern raw PCs/addresses into ``trace``'s code + data regions.

    PCs pack into the CODE region in first-seen order (preserving the real
    trace's locality structure at instruction granularity); data lines are
    ranked by access count and mapped onto the hot tier, then the warm
    tier's set-concentrated slots, then the streaming cold tier — so the
    pre-warm machinery and the calibrated cache model both apply to the
    real access pattern. Branch targets are recomputed from the successor
    record's interned PC (record ``i+1`` is by definition where control
    went), which makes converter inputs robust to missing/raw targets.
    """
    base = trace.base
    aspace = trace.aspace
    profile = trace.profile
    records = len(arrays["pc"])

    # --- PC interning: first-seen order into the code region.
    code_base = trace.code_base
    pc_map: dict[int, int] = {}
    for pc in arrays["pc"]:
        if pc not in pc_map:
            pc_map[pc] = code_base + len(pc_map) * INSTR_BYTES
    if len(pc_map) * INSTR_BYTES > _CODE_REGION_BYTES:
        raise IngestError(
            f"trace has {len(pc_map)} distinct PCs; the code region holds "
            f"{_CODE_REGION_BYTES // INSTR_BYTES}"
        )

    # --- data-line interning: rank lines by access count (ties: first
    # seen), then hand out the L1-resident tier (hot + stack), the
    # L2-resident warm tier, and finally streaming cold lines, in that
    # order. Reusing the aspace residency helpers keeps the mapping
    # consistent with the simulator's cache pre-warm by construction.
    counts: dict[int, int] = {}
    first_seen: dict[int, int] = {}
    op_a, addr_a = arrays["op"], arrays["addr"]
    for i in range(records):
        if op_a[i] == _OP_LOAD or op_a[i] == _OP_STORE:
            line = addr_a[i] >> 6
            if line in counts:
                counts[line] += 1
            else:
                counts[line] = 1
                first_seen[line] = len(first_seen)
    ranked = sorted(counts, key=lambda ln: (-counts[ln], first_seen[ln]))

    tiered = aspace.l1_resident_lines() + aspace.l2_resident_lines()
    line_map: dict[int, int] = {}
    cold_idx = 0
    for rank, line in enumerate(ranked):
        if rank < len(tiered):
            line_map[line] = tiered[rank]
        else:
            line_map[line] = (
                base
                + COLD_OFFSET
                + ((aspace.stagger + cold_idx) % profile.cold_lines) * LINE_BYTES
            )
            cold_idx += 1

    out = dict(arrays)
    out["pc"] = [pc_map[pc] for pc in arrays["pc"]]
    out["addr"] = [
        line_map[addr_a[i] >> 6] + (addr_a[i] & (LINE_BYTES - 8))
        if (op_a[i] == _OP_LOAD or op_a[i] == _OP_STORE)
        else 0
        for i in range(records)
    ]
    # Targets: successor PC for every branch (taken or fall-through, the
    # next record is where control went); non-branches carry 0.
    new_pc = out["pc"]
    target = [0] * records
    brk_a = arrays["brkind"]
    for i in range(records):
        if brk_a[i] != _BRK_NONE:
            target[i] = new_pc[i + 1] if i + 1 < records else new_pc[0]
    out["target"] = target
    return out


def _rebase_canonical(
    arrays: dict[str, list[int]], file_base: int, base: int
) -> dict[str, list[int]]:
    """Shift canonical-mode addresses from the recorded base to ``base``.

    Zero stays zero (the "no address" sentinel). With equal bases the
    arrays pass through unchanged — the round-trip bit-identity case.
    """
    delta = base - file_base
    out = dict(arrays)
    if delta:
        out["pc"] = [pc + delta for pc in arrays["pc"]]
        out["addr"] = [a + delta if a else 0 for a in arrays["addr"]]
        out["target"] = [t + delta if t else 0 for t in arrays["target"]]
    return out


def _memo_key(header: IngestHeader, base: int, seed: int) -> tuple[object, ...]:
    """The trace memo's key for one file materialized at ``base``/``seed``.

    A str first element: never equal to a generated trace's key. The CRC
    makes a file whose body was rewritten a new key.
    """
    return (header.name, header.crc32, header.records, header.base, base, seed)


def _materialize(tf: IngestedTraceFile, base: int, seed: int) -> SyntheticTrace:
    """Materialize ``tf`` at ``base``/``seed`` (no memo); ``tf.arrays`` is
    only read."""
    header = tf.header
    profile = get_profile(header.profile)
    if header.address_mode == "canonical":
        arrays = _rebase_canonical(tf.arrays, header.base, base)
    else:
        # _intern_raw needs the target code range/aspace; build a throwaway
        # shell with the static products only (no walk) to intern against.
        shell = object.__new__(SyntheticTrace)
        shell._init_static(profile, header.records, base, seed, 0)
        arrays = _intern_raw(tf.arrays, shell)
    trace = SyntheticTrace.from_arrays(profile, header.records, base, seed, 0, arrays)
    trace._patch_wrap()  # on the trace's own copy of each column
    return trace


def materialize(
    tf: IngestedTraceFile, base: int, seed: int
) -> SyntheticTrace:
    """Build a :class:`SyntheticTrace`-compatible trace from a read file.

    The result has the nine field columns (signed bytes for the six small
    fields, one shared int per distinct PC, address and target),
    wrap-to-index-0 patching, code range and address space of a generated
    trace, so everything downstream (simulator, columnar snapshots, vec
    backend) runs it unchanged. ``tf.arrays`` is left as it was, so one
    read file materializes at any number of bases. Deterministic given
    (file contents, base, seed), and memoized with the generated traces
    (:func:`~repro.trace.synthetic.memoized_trace`), so six policies over
    one ingested workload intern it once.
    """
    return memoized_trace(_memo_key(tf.header, base, seed), lambda: _materialize(tf, base, seed))


def materialize_file(path: str | Path, base: int, seed: int) -> SyntheticTrace:
    """:func:`materialize` of the trace file at ``path``, reading its body
    only when the trace is not memoized.

    The memo key comes from the header alone (one small read); on a miss
    the whole file is read and fully validated by :func:`read_trace_file`,
    as every external input is. A file rewritten since its header was read
    raises :class:`IngestError` rather than memoizing its new body under
    the old header's key.
    """
    header = read_header(path)

    def build() -> SyntheticTrace:
        tf = read_trace_file(path)
        if tf.header != header:
            raise _fail(tf.path, "file changed while it was being read")
        return _materialize(tf, base, seed)

    return memoized_trace(_memo_key(header, base, seed), build)


# ---------------------------------------------------------------------------
# named-workload registry


_REGISTRY: dict[str, Path] = {}


def ingest_dir() -> Path:
    """The named-ingested-workload directory ($DWARN_SIM_INGEST_DIR or
    ``.cache/ingested``). Worker processes inherit the environment, so a
    name registered on disk resolves identically across a process pool."""
    return Path(os.environ.get(INGEST_DIR_ENV) or DEFAULT_INGEST_DIR)


def register_workload(name: str, path: str | Path) -> Path:
    """Register ``name`` -> trace file in this process (header-validated).

    For cross-process registration, place (or ``dwarn-sim ingest register``)
    the file at ``<ingest dir>/<name>.dwit`` instead.
    """
    p = Path(path)
    read_header(p)  # validate before the name becomes resolvable
    _REGISTRY[name] = p
    return p


def registered_workloads() -> dict[str, Path]:
    """In-process name -> path registrations (a copy)."""
    return dict(_REGISTRY)


def find_ingested(name: str) -> Path | None:
    """Resolve an ingested-workload name to its trace file, or ``None``.

    In-process registrations win; otherwise ``<ingest dir>/<name>.dwit``.
    Names containing path separators never resolve (a workload name is a
    name, not a path).
    """
    hit = _REGISTRY.get(name)
    if hit is not None:
        return hit
    if not name or "/" in name or "\\" in name or name.startswith("."):
        return None
    candidate = ingest_dir() / f"{name}{INGEST_SUFFIX}"
    if candidate.is_file():
        return candidate
    return None


def ingested_workloads(directory: str | Path | None = None) -> list[dict[str, Any]]:
    """Name/source/instruction-count rows for every resolvable ingested
    workload (in-process registrations plus the ingest directory).

    Unreadable or invalid files are reported with an ``error`` field
    rather than skipped silently — ``dwarn-sim list`` shows them so a
    corrupt registration is visible, not invisible.
    """
    rows: list[dict[str, Any]] = []
    seen: set[str] = set()

    def add(name: str, path: Path) -> None:
        if name in seen:
            return
        seen.add(name)
        row: dict[str, Any] = {"name": name, "path": str(path)}
        try:
            header = read_header(path)
            row["records"] = header.records
            row["profile"] = header.profile
            row["address_mode"] = header.address_mode
        except IngestError as exc:
            row["error"] = str(exc)
        rows.append(row)

    for name, path in sorted(_REGISTRY.items()):
        add(name, path)
    directory = Path(directory) if directory is not None else ingest_dir()
    if directory.is_dir():
        for path in sorted(directory.glob(f"*{INGEST_SUFFIX}")):
            add(path.name[: -len(INGEST_SUFFIX)], path)
    return rows


def ingest_stats(directory: str | Path | None = None) -> dict[str, Any]:
    """On-disk footprint of the ingest directory (for ``cache stats``)."""
    directory = Path(directory) if directory is not None else ingest_dir()
    files = sorted(directory.glob(f"*{INGEST_SUFFIX}")) if directory.is_dir() else []
    return {
        "directory": str(directory),
        "entries": len(files),
        "total_bytes": sum(f.stat().st_size for f in files),
    }
