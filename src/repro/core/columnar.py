"""Columnar (struct-of-arrays) snapshot of live simulator state.

The simulator's in-flight state is an object graph: ``DynInstr`` instances
threaded through the shared pipe, per-thread ROBs, the issue-ready heaps, the
event wheel, and the rename maps. This module flattens that graph into
parallel typed arrays — one column per ``DynInstr`` slot, mirroring the
on-disk layout ``repro.trace.artifact`` already uses for traces — plus a
small structural index (which slot sits where), so a *mid-run* simulator can
be serialized, shipped, and re-inflated bit-identically.

Two layers:

- :meth:`ColumnarState.capture` / :meth:`ColumnarState.restore_into` —
  object graph <-> columns, in memory. Restore targets a *fresh* simulator
  built from the same ``(machine, programs, policy, simcfg)``; everything
  mutable is overwritten, so the pre-warm work the constructor did is simply
  replaced.
- :meth:`ColumnarState.to_bytes` / :meth:`ColumnarState.from_bytes` — the
  binary codec: one little-endian header (magic/version/CRC, as in
  ``trace/artifact.py``), a JSON structural section, and the struct-packed
  columns.

This is what makes the typed-event refactor pay off: every wheel payload is
now data (``EV_UNGATE`` carries a tid, ``EV_HYBRID_GATE``/``EV_DETECT``/
``EV_COMPLETE``/``EV_FILL``/``EV_DECLARE`` carry an instruction), so the
wheel serializes as ``(cycle, kind, slot)`` triples. One ``EV_CALL`` shape
is serializable: a bound method of the *attached policy* (the meta-policy's
interval callback) encodes as a named marker and is re-bound to the restored
policy. Any other closure (external ``schedule_call`` users) cannot be
snapshotted and raises :class:`SnapshotError`.

Lazily-initialized slots (the fetch stage skips ~13 stores per non-branch
instruction, on both paths) are preserved exactly: every column carries a presence bitmap,
and restore only assigns slots that were set — a restored instruction raises
``AttributeError`` on exactly the reads the original would have.

The wrong-path suppliers' memo tables are *not* captured: ``supply(pc)`` is
a memoized pure function, so a restored run re-derives identical records at
worst a little more slowly.
"""

from __future__ import annotations

import base64
import json
import struct
import sys
import zlib
from array import array
from collections import deque
from typing import TYPE_CHECKING, Any, Callable

from repro.core.events import (
    EV_CALL,
    EV_COMPLETE,
    EV_DECLARE,
    EV_DETECT,
    EV_FILL,
    EV_HYBRID_GATE,
    EV_UNGATE,
)
from repro.isa.instruction import DynInstr

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.result import SimResult
    from repro.core.simulator import Simulator

__all__ = [
    "CHECKPOINT_VERSION",
    "SNAPSHOT_VERSION",
    "ColumnarState",
    "SnapshotError",
    "capture_warm_hierarchy",
    "checkpoint_from_bytes",
    "checkpoint_to_bytes",
    "peek_checkpoint",
    "restore_warm_hierarchy",
    "run_checkpointed",
]

#: Bump on any change to the column set, codec layout, or structural schema.
#: v2: serializable policy-bound ``EV_CALL`` markers + meta-policy state.
#: v3: each cache's tags as one packed, zlib-compressed array.
SNAPSHOT_VERSION = 3

#: Version of the checkpoint *envelope* (the resume unit shipped over the
#: lease protocol): a small header binding the captured cycle and run horizon
#: to an embedded snapshot blob. Bump on envelope layout changes; snapshot
#: schema changes bump :data:`SNAPSHOT_VERSION` inside the embedded blob.
CHECKPOINT_VERSION = 1

_MAGIC = b"DWCS"
#: magic, version, n_slots, json_len, columns_len, crc32(payload)
_HEADER = struct.Struct("<4sHQQQI")

_CKPT_MAGIC = b"DWCK"
#: magic, version, cycle, total_cycles, crc32(snapshot blob)
_CKPT_HEADER = struct.Struct("<4sHQQI")

#: 64-bit signed columns, in storage order.
_Q_FIELDS: tuple[str, ...] = (
    "seq",
    "idx",
    "pc",
    "addr",
    "target",
    "gseq",
    "fetch_cycle",
    "dispatch_cycle",
    "issue_cycle",
    "complete_cycle",
    "fill_cycle",
    "ghist_snapshot",
    "ras_snapshot",
    "pred_target",
)

#: 8-bit signed columns (register ids, op/branch kinds, small counters).
_B_FIELDS: tuple[str, ...] = (
    "tid",
    "op",
    "dest",
    "src1",
    "src2",
    "brkind",
    "num_wait",
)

#: Boolean columns (stored as 8-bit, re-inflated to bool).
_BOOL_FIELDS: tuple[str, ...] = (
    "taken",
    "pred_taken",
    "mispredicted",
    "wrongpath",
    "dispatched",
    "issued",
    "completed",
    "squashed",
    "l1_miss",
    "l2_miss",
    "tlb_miss",
    "dmiss_counted",
    "declared",
    "flushed_after",
)

#: ``DynInstr.pmeta`` codes (the policy scratch slot holds None/"F"/"W").
_PMETA_ENCODE: dict[Any, int] = {None: 0, "F": 1, "W": 2}
_PMETA_DECODE: tuple[Any, ...] = (None, "F", "W")

#: Wheel event kinds whose payload is an instruction.
_INSTR_EVENTS = frozenset(
    (EV_COMPLETE, EV_FILL, EV_DECLARE, EV_HYBRID_GATE, EV_DETECT)
)

#: Policy attributes captured verbatim when present (lists of ints / bools).
_POLICY_SCALARS: tuple[str, ...] = ("_gate_count", "_count", "_flagged", "_hybrid_active")

_MISSING = object()


class SnapshotError(RuntimeError):
    """The simulator holds state the columnar codec cannot represent."""


def _pack_presence(flags: list[bool]) -> bytes:
    """Pack one presence bit per slot, LSB-first within each byte."""
    out = bytearray((len(flags) + 7) // 8)
    for i, f in enumerate(flags):
        if f:
            out[i >> 3] |= 1 << (i & 7)
    return bytes(out)


def _unpack_presence(data: bytes, n: int) -> list[bool]:
    return [bool(data[i >> 3] & (1 << (i & 7))) for i in range(n)]


def _array_bytes(typecode: str, values: list[int]) -> bytes:
    arr = array(typecode, values)
    if sys.byteorder != "little":  # pragma: no cover - exotic hosts
        arr.byteswap()
    return arr.tobytes()


def _array_from(typecode: str, data: bytes) -> list[int]:
    arr = array(typecode)
    arr.frombytes(data)
    if sys.byteorder != "little":  # pragma: no cover - exotic hosts
        arr.byteswap()
    return arr.tolist()


class ColumnarState:
    """A captured simulator: instruction columns plus a structural index.

    Instances are plain data — capture from one simulator, restore into
    another (or the same one), or round-trip through :meth:`to_bytes`.
    """

    def __init__(
        self,
        meta: dict[str, Any],
        columns: dict[str, list[int]],
        presence: dict[str, list[bool]],
        deps_counts: list[int],
        deps_flat: list[int],
        prev_writer: list[int],
        prev_writer_present: list[bool],
    ) -> None:
        self.meta = meta
        self.columns = columns
        self.presence = presence
        self.deps_counts = deps_counts
        self.deps_flat = deps_flat
        self.prev_writer = prev_writer
        self.prev_writer_present = prev_writer_present

    @property
    def num_slots(self) -> int:
        return len(self.deps_counts)

    # ------------------------------------------------------------- capture

    @classmethod
    def capture(cls, sim: "Simulator") -> "ColumnarState":
        """Flatten ``sim``'s full mutable state into columns.

        The simulator is not modified. Raises :class:`SnapshotError` when the
        wheel holds an ``EV_CALL`` closure or an observability attachment is
        active (both hold live callables).
        """
        if sim.obs is not None:
            raise SnapshotError(
                "cannot snapshot a simulator with an observability attachment"
            )

        # -- slot assignment: walk the live-instruction graph --------------
        index: dict[int, int] = {}
        instrs: list[DynInstr] = []

        def slot_of(i: DynInstr) -> int:
            s = index.get(id(i))
            if s is None:
                s = len(instrs)
                index[id(i)] = s
                instrs.append(i)
            return s

        for i in sim.pipe:
            slot_of(i)
        for tc in sim.threads:
            for i in tc.rob:
                slot_of(i)
            for p in tc.renmap:
                if p is not None:
                    slot_of(p)
        for heap in sim.ready:
            for _, i in heap:
                slot_of(i)
        for i in sim._next_completes:
            slot_of(i)
        events: list[list[Any]] = []
        for cycle in sorted(sim.events.buckets):
            bucket: list[tuple[int, int]] = []
            for ev in sim.events.buckets[cycle]:
                kind = ev[0]
                if kind in _INSTR_EVENTS:
                    bucket.append((kind, slot_of(ev[1])))
                elif kind == EV_UNGATE:
                    bucket.append((kind, ev[1]))
                elif kind == EV_CALL:
                    # A bound method of the attached policy (the meta-policy
                    # interval callback) is pure data: the policy is rebuilt
                    # by name on restore, so a named marker suffices.
                    fn = ev[1]
                    if getattr(fn, "__self__", None) is sim.policy:
                        bucket.append((kind, f"policy:{fn.__name__}"))
                    else:
                        raise SnapshotError(
                            "event wheel holds an EV_CALL closure; only typed "
                            "events are serializable"
                        )
                else:
                    raise SnapshotError(f"unknown event kind {kind!r}")
            events.append([cycle, bucket])
        # Close over producer links: prev_writer1 chains reach committed
        # instructions no structure holds anymore, and dependents always
        # point at in-flight ones. The list grows while we scan it.
        scan = 0
        while scan < len(instrs):
            i = instrs[scan]
            scan += 1
            p = getattr(i, "prev_writer1", None)
            if p is not None:
                slot_of(p)
            deps = getattr(i, "dependents", None)
            if deps:
                for d in deps:
                    slot_of(d)

        n = len(instrs)

        # -- columns --------------------------------------------------------
        columns: dict[str, list[int]] = {}
        presence: dict[str, list[bool]] = {}
        for name in (*_Q_FIELDS, *_B_FIELDS, *_BOOL_FIELDS, "pmeta"):
            col = [0] * n
            pres = [False] * n
            for s, i in enumerate(instrs):
                v = getattr(i, name, _MISSING)
                if v is _MISSING:
                    continue
                pres[s] = True
                col[s] = _PMETA_ENCODE[v] if name == "pmeta" else int(v)
            columns[name] = col
            presence[name] = pres

        prev_writer = [0] * n
        prev_writer_present = [False] * n
        deps_counts = [0] * n
        deps_flat: list[int] = []
        for s, i in enumerate(instrs):
            p = getattr(i, "prev_writer1", _MISSING)
            if p is not _MISSING:
                prev_writer_present[s] = True
                prev_writer[s] = -1 if p is None else index[id(p)]
            deps = getattr(i, "dependents", _MISSING)
            if deps is _MISSING or deps is None:
                deps_counts[s] = -1
            else:
                deps_counts[s] = len(deps)
                deps_flat.extend(index[id(d)] for d in deps)

        # -- structural index ----------------------------------------------
        hier = sim.hierarchy
        pred = sim.predictor
        stats = sim.stats
        policy_state: dict[str, Any] = {}
        for name in _POLICY_SCALARS:
            v = getattr(sim.policy, name, _MISSING)
            if v is not _MISSING:
                policy_state[name] = list(v) if isinstance(v, list) else v
        mp = getattr(sim.policy, "predictor", None)
        if mp is not None:
            policy_state["predictor"] = _miss_predictor_state(mp)
        subs = getattr(sim.policy, "_subs", None)
        if subs is not None:
            # Meta-policy: the selector's hysteresis machinery plus every
            # sub-policy's private counters. The shared gate-counter array is
            # the meta-policy's own ``_gate_count`` (captured above); restore
            # re-establishes the sharing by identity, not by copy.
            pol = sim.policy
            policy_state["meta"] = {
                "active": pol._active.name,
                "switches": [list(s) for s in pol.switches],
                "streak_name": pol._streak_name,
                "streak": pol._streak,
                "prev_ipc": pol._prev_ipc,
                "base_committed": list(pol._base_committed),
                "last_features": dict(pol.last_features),
                "subs": {name: _sub_policy_state(sub) for name, sub in subs.items()},
            }

        meta: dict[str, Any] = {
            "machine": sim.machine.name,
            "policy": sim.policy.name,
            "num_threads": sim.num_threads,
            "seed": sim.simcfg.seed,
            "cycle": sim.cycle,
            "gseq": sim.gseq,
            "free_int_regs": sim.free_int_regs,
            "free_fp_regs": sim.free_fp_regs,
            "q_free": list(sim.q_free),
            "rob_total": sim._rob_total,
            "order_dirty": sim.order_dirty,
            "order_cache": list(sim._order_cache),
            "pipe": [index[id(i)] for i in sim.pipe],
            "next_completes": [index[id(i)] for i in sim._next_completes],
            "ready": [
                [[g, index[id(i)]] for g, i in heap] for heap in sim.ready
            ],
            "events": events,
            "events_pending": sim.events.pending,
            "threads": [
                {
                    "cursor": tc.cursor,
                    "wrongpath": tc.wrongpath,
                    "wp_pc": tc.wp_pc,
                    "fetch_ready_cycle": tc.fetch_ready_cycle,
                    "pipe_count": tc.pipe_count,
                    "icount": tc.icount,
                    "dmiss": tc.dmiss,
                    "brcount": tc.brcount,
                    "seq_next": tc.seq_next,
                    "fetched": tc.fetched,
                    "committed": tc.committed,
                    "rob": [index[id(i)] for i in tc.rob],
                    "renmap": [
                        None if p is None else index[id(p)] for p in tc.renmap
                    ],
                }
                for tc in sim.threads
            ],
            "stats": {
                **stats.totals(),
                "snap": stats._snap,
            },
            "hier_snap": sim._hier_snap,
            "warm_committed": sim._warm_committed,
            "hierarchy": {
                "caches": {
                    name: _cache_state(c, _pack_tags(c._tags))
                    for name, c in (
                        ("icache", hier.icache),
                        ("dcache", hier.dcache),
                        ("l2", hier.l2),
                    )
                },
                "dtlb": {
                    "sets": [list(s) for s in hier.dtlb._sets],
                    "accesses": hier.dtlb.accesses,
                    "misses": hier.dtlb.misses,
                },
                "outstanding_d": [
                    [line, fill, l2m]
                    for line, (fill, l2m) in hier._outstanding_d.items()
                ],
                "outstanding_i": [
                    [line, ready] for line, ready in hier._outstanding_i.items()
                ],
                "counters": hier.snapshot(),
            },
            "predictor": {
                "lookups": pred.lookups,
                "mispredicts": pred.mispredicts,
                "gshare_pht": list(pred.gshare._pht),
                "gshare_hist": list(pred.gshare._hist),
                "btb_sets": [
                    [[pc, tgt] for pc, tgt in s] for s in pred.btb._sets
                ],
                "btb_hits": pred.btb.hits,
                "btb_misses": pred.btb.misses,
                "ras": [
                    {"stack": list(r._stack), "tos": r._tos} for r in pred.ras
                ],
            },
            "policy_state": policy_state,
        }
        return cls(
            meta,
            columns,
            presence,
            deps_counts,
            deps_flat,
            prev_writer,
            prev_writer_present,
        )

    # ------------------------------------------------------------- restore

    def restore_into(self, sim: "Simulator") -> None:
        """Overwrite ``sim``'s mutable state with this snapshot.

        ``sim`` must be a *fresh* simulator built from the same machine,
        programs, policy name, and simulation config; basic identity is
        checked, full config equality is the caller's contract.
        """
        meta = self.meta
        if sim.num_threads != meta["num_threads"]:
            raise SnapshotError(
                f"snapshot has {meta['num_threads']} threads, "
                f"simulator has {sim.num_threads}"
            )
        if sim.policy.name != meta["policy"]:
            raise SnapshotError(
                f"snapshot policy {meta['policy']!r} != simulator policy "
                f"{sim.policy.name!r}"
            )
        if sim.machine.name != meta["machine"]:
            raise SnapshotError(
                f"snapshot machine {meta['machine']!r} != simulator machine "
                f"{sim.machine.name!r}"
            )

        # -- re-inflate instructions ---------------------------------------
        n = self.num_slots
        new = DynInstr.__new__
        instrs = [new(DynInstr) for _ in range(n)]
        bool_set = frozenset(_BOOL_FIELDS)
        for name in (*_Q_FIELDS, *_B_FIELDS, *_BOOL_FIELDS, "pmeta"):
            col = self.columns[name]
            pres = self.presence[name]
            if name == "pmeta":
                for s in range(n):
                    if pres[s]:
                        instrs[s].pmeta = _PMETA_DECODE[col[s]]
            elif name in bool_set:
                for s in range(n):
                    if pres[s]:
                        setattr(instrs[s], name, bool(col[s]))
            else:
                for s in range(n):
                    if pres[s]:
                        setattr(instrs[s], name, col[s])
        flat_pos = 0
        for s in range(n):
            if self.prev_writer_present[s]:
                p = self.prev_writer[s]
                instrs[s].prev_writer1 = None if p < 0 else instrs[p]
            cnt = self.deps_counts[s]
            if cnt >= 0:
                instrs[s].dependents = [
                    instrs[d] for d in self.deps_flat[flat_pos : flat_pos + cnt]
                ]
                flat_pos += cnt
            else:
                instrs[s].dependents = None

        # -- structures -----------------------------------------------------
        sim.pipe = deque(instrs[s] for s in meta["pipe"])
        sim._next_completes = [instrs[s] for s in meta["next_completes"]]
        ready: tuple[list[Any], list[Any], list[Any]] = ([], [], [])
        for q, heap in enumerate(meta["ready"]):
            ready[q].extend((g, instrs[s]) for g, s in heap)
        sim.ready = ready
        sim.events.clear()

        def _revive(kind: int, p: Any) -> tuple:
            if kind in _INSTR_EVENTS:
                return (kind, instrs[p])
            if kind == EV_CALL:
                # "policy:<name>" marker -> re-bind to the restored policy.
                return (kind, getattr(sim.policy, p.partition(":")[2]))
            return (kind, p)

        for cycle, bucket in meta["events"]:
            sim.events.buckets[cycle] = [_revive(kind, p) for kind, p in bucket]
        sim.events.pending = meta["events_pending"]

        for tc, tmeta in zip(sim.threads, meta["threads"]):
            tc.cursor = tmeta["cursor"]
            tc.wrongpath = tmeta["wrongpath"]
            tc.wp_pc = tmeta["wp_pc"]
            tc.fetch_ready_cycle = tmeta["fetch_ready_cycle"]
            tc.pipe_count = tmeta["pipe_count"]
            tc.icount = tmeta["icount"]
            tc.dmiss = tmeta["dmiss"]
            tc.brcount = tmeta["brcount"]
            tc.seq_next = tmeta["seq_next"]
            tc.fetched = tmeta["fetched"]
            tc.committed = tmeta["committed"]
            tc.rob = deque(instrs[s] for s in tmeta["rob"])
            tc.renmap = [
                None if s is None else instrs[s] for s in tmeta["renmap"]
            ]

        # -- scalars / stats -------------------------------------------------
        sim.cycle = meta["cycle"]
        sim.gseq = meta["gseq"]
        sim.free_int_regs = meta["free_int_regs"]
        sim.free_fp_regs = meta["free_fp_regs"]
        sim.q_free = list(meta["q_free"])
        sim._rob_total = meta["rob_total"]
        sim.order_dirty = meta["order_dirty"]
        sim._order_cache = list(meta["order_cache"])
        sim._warm_committed = (
            None if meta["warm_committed"] is None else list(meta["warm_committed"])
        )
        sim._hier_snap = (
            None
            if meta["hier_snap"] is None
            else {k: list(v) for k, v in meta["hier_snap"].items()}
        )

        st = meta["stats"]
        stats = sim.stats
        for name in (
            "fetched",
            "committed",
            "squashed_mispredict",
            "squashed_flush",
            "flush_events",
            "mispredicts",
            "branches_resolved",
            "gated_cycles",
            "loads_committed",
            "stores_committed",
        ):
            setattr(stats, name, list(st[name]))
        for name in ("cycles", "fetch_slots_used", "dispatched", "issued"):
            setattr(stats, name, st[name])
        stats._snap = (
            None
            if st["snap"] is None
            else {
                k: (list(v) if isinstance(v, list) else v)
                for k, v in st["snap"].items()
            }
        )

        # -- memory hierarchy ------------------------------------------------
        hmeta = meta["hierarchy"]
        hier = sim.hierarchy
        for name, c in (
            ("icache", hier.icache),
            ("dcache", hier.dcache),
            ("l2", hier.l2),
        ):
            state = hmeta["caches"][name]
            _restore_cache(c, state, _unpack_tags(state["tags"]))
        hier.dtlb._sets = [list(s) for s in hmeta["dtlb"]["sets"]]
        hier.dtlb.accesses = hmeta["dtlb"]["accesses"]
        hier.dtlb.misses = hmeta["dtlb"]["misses"]
        hier._outstanding_d = {
            line: (fill, bool(l2m)) for line, fill, l2m in hmeta["outstanding_d"]
        }
        hier._outstanding_i = {
            line: ready_at for line, ready_at in hmeta["outstanding_i"]
        }
        for name, vals in hmeta["counters"].items():
            getattr(hier, name)[:] = vals

        # -- branch predictor -------------------------------------------------
        pmeta = meta["predictor"]
        pred = sim.predictor
        pred.lookups = pmeta["lookups"]
        pred.mispredicts = pmeta["mispredicts"]
        pred.gshare._pht = bytearray(pmeta["gshare_pht"])
        pred.gshare._hist = list(pmeta["gshare_hist"])
        pred.btb._sets = [
            [(pc, tgt) for pc, tgt in s] for s in pmeta["btb_sets"]
        ]
        pred.btb.hits = pmeta["btb_hits"]
        pred.btb.misses = pmeta["btb_misses"]
        for r, rmeta in zip(pred.ras, pmeta["ras"]):
            r._stack = list(rmeta["stack"])
            r._tos = rmeta["tos"]

        # -- policy ----------------------------------------------------------
        pstate = meta["policy_state"]
        for name in _POLICY_SCALARS:
            if name in pstate:
                v = pstate[name]
                setattr(sim.policy, name, list(v) if isinstance(v, list) else v)
        if "predictor" in pstate:
            _restore_miss_predictor(
                sim.policy.predictor,  # type: ignore[attr-defined]
                pstate["predictor"],
            )
        mstate = pstate.get("meta")
        if mstate is not None:
            pol = sim.policy
            for name, sstate in mstate["subs"].items():
                sub = pol._subs[name]  # type: ignore[attr-defined]
                _restore_sub_policy(sub, sstate)
                if hasattr(sub, "_gate_count"):
                    # Re-share the ONE gate-counter array: the engines'
                    # hoisted EV_UNGATE handler decrements the attached
                    # policy's array, and every gating sub must see it.
                    sub._gate_count = pol._gate_count  # type: ignore[attr-defined]
            pol._active = pol._subs[mstate["active"]]  # type: ignore[attr-defined]
            pol.switches = [tuple(s) for s in mstate["switches"]]
            pol._streak_name = mstate["streak_name"]
            pol._streak = mstate["streak"]
            pol._prev_ipc = mstate["prev_ipc"]
            pol._base_committed = list(mstate["base_committed"])
            pol.last_features = dict(mstate["last_features"])

    # --------------------------------------------------------------- codec

    def to_bytes(self) -> bytes:
        """Serialize: header + JSON structural section + packed columns."""
        n = self.num_slots
        parts: list[bytes] = []
        for name in _Q_FIELDS:
            parts.append(_pack_presence(self.presence[name]))
            parts.append(_array_bytes("q", self.columns[name]))
        for name in (*_B_FIELDS, *_BOOL_FIELDS, "pmeta"):
            parts.append(_pack_presence(self.presence[name]))
            parts.append(_array_bytes("b", self.columns[name]))
        parts.append(_pack_presence(self.prev_writer_present))
        parts.append(_array_bytes("q", self.prev_writer))
        parts.append(_array_bytes("q", self.deps_counts))
        parts.append(_array_bytes("q", self.deps_flat))
        col_blob = b"".join(parts)
        meta = dict(self.meta)
        meta["deps_flat_len"] = len(self.deps_flat)
        meta["version"] = SNAPSHOT_VERSION
        json_blob = json.dumps(meta, separators=(",", ":")).encode("utf-8")
        payload = json_blob + col_blob
        header = _HEADER.pack(
            _MAGIC,
            SNAPSHOT_VERSION,
            n,
            len(json_blob),
            len(col_blob),
            zlib.crc32(payload),
        )
        return header + payload

    @classmethod
    def from_bytes(cls, data: bytes) -> "ColumnarState":
        """Parse :meth:`to_bytes` output; raises :class:`SnapshotError` on
        any mismatch (magic, version, lengths, CRC)."""
        if len(data) < _HEADER.size:
            raise SnapshotError("truncated snapshot header")
        magic, version, n, json_len, col_len, crc = _HEADER.unpack_from(data)
        if magic != _MAGIC:
            raise SnapshotError("bad snapshot magic")
        if version != SNAPSHOT_VERSION:
            raise SnapshotError(f"unsupported snapshot version {version}")
        payload = data[_HEADER.size :]
        if len(payload) != json_len + col_len:
            raise SnapshotError("truncated snapshot payload")
        if zlib.crc32(payload) != crc:
            raise SnapshotError("snapshot CRC mismatch")
        meta = json.loads(payload[:json_len].decode("utf-8"))
        deps_flat_len = meta.pop("deps_flat_len")
        meta.pop("version")

        blob = payload[json_len:]
        offset = 0
        pres_len = (n + 7) // 8

        def take(nbytes: int) -> bytes:
            nonlocal offset
            chunk = blob[offset : offset + nbytes]
            offset += nbytes
            return chunk

        columns: dict[str, list[int]] = {}
        presence: dict[str, list[bool]] = {}
        for name in _Q_FIELDS:
            presence[name] = _unpack_presence(take(pres_len), n)
            columns[name] = _array_from("q", take(8 * n))
        for name in (*_B_FIELDS, *_BOOL_FIELDS, "pmeta"):
            presence[name] = _unpack_presence(take(pres_len), n)
            columns[name] = _array_from("b", take(n))
        prev_writer_present = _unpack_presence(take(pres_len), n)
        prev_writer = _array_from("q", take(8 * n))
        deps_counts = _array_from("q", take(8 * n))
        deps_flat = _array_from("q", take(8 * deps_flat_len))
        if offset != len(blob):
            raise SnapshotError("snapshot column section has trailing bytes")
        return cls(
            meta,
            columns,
            presence,
            deps_counts,
            deps_flat,
            prev_writer,
            prev_writer_present,
        )


def _pack_tags(tags: list[int]) -> str:
    """A cache's flat tag list as base64 of zlib over little-endian int64s:
    mostly empty ways and small line addresses compress about 20x, so the
    JSON section carries a few KB instead of one list per set."""
    return base64.b64encode(zlib.compress(_array_bytes("q", tags), 1)).decode("ascii")


def _unpack_tags(data: str) -> list[int]:
    try:
        return _array_from("q", zlib.decompress(base64.b64decode(data)))
    except (TypeError, ValueError, zlib.error) as exc:
        raise SnapshotError(f"bad cache tag array: {exc}") from exc


def _cache_state(c: Any, tags: Any) -> dict[str, Any]:
    return {
        "tags": tags,
        "bank_busy_cycle": c._bank_busy_cycle,
        "bank_busy": c._bank_busy,
        "accesses": c.accesses,
        "misses": c.misses,
        "bank_conflicts": c.bank_conflicts,
    }


def _restore_cache(c: Any, state: dict[str, Any], tags: list[int]) -> None:
    if len(tags) != len(c._tags):
        raise SnapshotError(
            f"{c.name}: {len(tags)} tags captured, cache has {len(c._tags)} ways"
        )
    c._tags = tags
    c._bank_busy_cycle = state["bank_busy_cycle"]
    c._bank_busy = state["bank_busy"]
    c.accesses = state["accesses"]
    c.misses = state["misses"]
    c.bank_conflicts = state["bank_conflicts"]


def _miss_predictor_state(mp: Any) -> dict[str, Any]:
    return {
        "table": list(mp._table),
        "lookups": mp.lookups,
        "predicted_miss": mp.predicted_miss,
        "correct": mp.correct,
    }


def _restore_miss_predictor(mp: Any, state: dict[str, Any]) -> None:
    mp._table = bytearray(state["table"])
    mp.lookups = state["lookups"]
    mp.predicted_miss = state["predicted_miss"]
    mp.correct = state["correct"]


def _sub_policy_state(sub: Any) -> dict[str, Any]:
    state: dict[str, Any] = {}
    for name in _POLICY_SCALARS:
        if name == "_gate_count":
            continue  # shared with the meta-policy; restored by identity
        v = getattr(sub, name, _MISSING)
        if v is not _MISSING:
            state[name] = list(v) if isinstance(v, list) else v
    mp = getattr(sub, "predictor", None)
    if mp is not None:
        state["predictor"] = _miss_predictor_state(mp)
    return state


def _restore_sub_policy(sub: Any, state: dict[str, Any]) -> None:
    for name in _POLICY_SCALARS:
        if name in state:
            v = state[name]
            setattr(sub, name, list(v) if isinstance(v, list) else v)
    if "predictor" in state:
        _restore_miss_predictor(sub.predictor, state["predictor"])


# ---------------------------------------------------------------- checkpoints


def checkpoint_to_bytes(sim: "Simulator") -> bytes:
    """Capture ``sim`` and wrap the snapshot in a checkpoint envelope.

    The envelope binds the captured cycle and the run horizon
    (``simcfg.total_cycles``) to the blob, so a consumer can reject a stale
    or mismatched checkpoint from the header alone, before paying for a full
    snapshot parse. Raises :class:`SnapshotError` on anything
    :meth:`ColumnarState.capture` refuses.
    """
    blob = ColumnarState.capture(sim).to_bytes()
    header = _CKPT_HEADER.pack(
        _CKPT_MAGIC,
        CHECKPOINT_VERSION,
        sim.cycle,
        sim.simcfg.total_cycles,
        zlib.crc32(blob),
    )
    return header + blob


def peek_checkpoint(data: bytes) -> tuple[int, int]:
    """Validate a checkpoint envelope; return ``(cycle, total_cycles)``.

    Checks magic, envelope version, and the CRC over the embedded snapshot
    blob — everything needed to reject a corrupt or version-skewed upload
    without deserializing it. Raises :class:`SnapshotError` on any mismatch.
    """
    if len(data) < _CKPT_HEADER.size:
        raise SnapshotError("truncated checkpoint header")
    magic, version, cycle, total, crc = _CKPT_HEADER.unpack_from(data)
    if magic != _CKPT_MAGIC:
        raise SnapshotError("bad checkpoint magic")
    if version != CHECKPOINT_VERSION:
        raise SnapshotError(f"unsupported checkpoint version {version}")
    blob = data[_CKPT_HEADER.size :]
    if zlib.crc32(blob) != crc:
        raise SnapshotError("checkpoint CRC mismatch")
    if not 0 <= cycle <= total:
        raise SnapshotError(f"checkpoint cycle {cycle} outside horizon {total}")
    return cycle, total


def checkpoint_from_bytes(data: bytes) -> tuple[int, int, ColumnarState]:
    """Parse a checkpoint envelope into ``(cycle, total_cycles, state)``.

    Raises :class:`SnapshotError` on envelope or snapshot corruption,
    truncation, or version skew (either layer).
    """
    cycle, total = peek_checkpoint(data)
    state = ColumnarState.from_bytes(data[_CKPT_HEADER.size :])
    if state.meta["cycle"] != cycle:
        raise SnapshotError(
            f"checkpoint header cycle {cycle} != snapshot cycle "
            f"{state.meta['cycle']}"
        )
    return cycle, total, state


def run_checkpointed(
    sim: "Simulator",
    interval: int,
    on_checkpoint: Callable[["Simulator"], object],
) -> "SimResult":
    """Run ``sim`` to completion, pausing every ``interval`` cycles.

    :meth:`Simulator.run`'s own loop, without an observability attachment,
    with one more pause point — the next multiple of ``interval`` — at which
    ``on_checkpoint(sim)`` is invoked with the simulator at a safe cycle
    boundary (unless the run's horizon has been reached). Chunked
    ``run_cycles`` calls are behavior-neutral, so the extra edges change
    nothing but where the host regains control.

    Works mid-run: a simulator freshly restored via
    :meth:`ColumnarState.restore_into` continues from its captured cycle
    (the pending meta-policy ``EV_CALL`` interval boundaries ride in the
    restored wheel, so the selection cadence is preserved exactly).
    ``on_checkpoint`` exceptions propagate — callers that want fail-open
    capture (the service worker) wrap their callback.
    """
    if sim.obs is not None:
        raise SnapshotError(
            "cannot run checkpointed with an observability attachment"
        )
    if interval <= 0:
        raise ValueError(f"checkpoint interval must be positive, got {interval}")
    total = sim.simcfg.total_cycles

    def pause(s: "Simulator") -> None:
        if s.cycle % interval == 0 and s.cycle < total:
            on_checkpoint(s)

    return sim._run_loop(interval, pause)


def capture_warm_hierarchy(hier: Any) -> dict[str, Any]:
    """Snapshot the cache/TLB content of a freshly-constructed simulator.

    Pre-warming the caches (``SimulationConfig.prewarm_caches``) is a pure
    function of ``(machine, programs)``, so one warmed hierarchy can serve
    as a template for every sibling run over the same programs: the vec
    batch backend (``repro.core.vec``) constructs one lane per program group
    with pre-warm enabled, captures this template, and builds the remaining
    lanes with pre-warm off plus :func:`restore_warm_hierarchy` — identical
    state at a fraction of the constructor cost: one list copy per cache.
    """
    return {
        "icache": _cache_state(hier.icache, list(hier.icache._tags)),
        "dcache": _cache_state(hier.dcache, list(hier.dcache._tags)),
        "l2": _cache_state(hier.l2, list(hier.l2._tags)),
        "dtlb_sets": [list(s) for s in hier.dtlb._sets],
        "dtlb_accesses": hier.dtlb.accesses,
        "dtlb_misses": hier.dtlb.misses,
    }


def restore_warm_hierarchy(hier: Any, state: dict[str, Any]) -> None:
    """Overwrite ``hier``'s cache/TLB content from a template captured by
    :func:`capture_warm_hierarchy` (see there for the cloning contract)."""
    for name in ("icache", "dcache", "l2"):
        cstate = state[name]
        _restore_cache(getattr(hier, name), cstate, list(cstate["tags"]))
    hier.dtlb._sets = [list(s) for s in state["dtlb_sets"]]
    hier.dtlb.accesses = state["dtlb_accesses"]
    hier.dtlb.misses = state["dtlb_misses"]
