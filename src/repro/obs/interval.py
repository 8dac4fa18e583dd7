"""Interval metrics: windowed per-thread telemetry sampled while a run runs.

The paper's argument for DWarn is about *dynamics* — when threads incur L1-D
misses, and how long they occupy shared resources before an L2 miss is even
confirmed. End-of-run aggregates (``SimResult``) cannot show that; the
:class:`IntervalCollector` can: it splits a simulation into fixed-size cycle
windows and records, per window, per-thread progress counters (committed,
fetched, IPC), sampled occupancy (ICOUNT, pipe, ROB, issue-queue and
register-file state), the outstanding-miss picture (the DWarn ``dmiss``
counter, in-flight known-L2-miss loads), fetch-group membership (Normal vs
Dmiss) and the stall/gate/flush event counts — the exact fields
``docs/OBSERVABILITY.md`` documents one by one.

Integration contract (how this stays off the hot path):

- The collector never hooks a pipeline stage. :meth:`Simulator.run` merely
  *pauses* its chunked ``run_cycles`` loop at window boundaries when an
  observability hub is attached and lets the collector sample quiescent
  simulator state. The generated loop (``_fast_loop``) runs unmodified between
  boundaries, so instrumented runs stay within a few percent of
  uninstrumented speed (guarded by ``perfguard --obs-overhead``) and results
  are bit-identical (chunk boundaries are behavior-neutral; the parity tests
  pin this).
- With no hub attached the simulator takes the exact pre-observability
  control flow: zero cost when disabled.

Window edges are aligned to absolute multiples of the window size, plus one
extra cut at the warm-up boundary, so every interval lies wholly inside or
wholly outside the measurement window and per-interval counters reconcile
*exactly* with the final :class:`~repro.core.result.SimResult` totals
(:func:`reconcile` checks this; the ``trace-run`` CLI prints it).
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Iterable, Sequence

from repro.isa.opcodes import OpClass

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.result import SimResult
    from repro.core.simulator import Simulator

__all__ = [
    "INTERVAL_SCHEMA",
    "IntervalCollector",
    "IntervalRecord",
    "reconcile",
    "validate_record",
    "write_csv",
    "write_jsonl",
]

_OP_LOAD = int(OpClass.LOAD)

#: Field-by-field schema of one interval record: name -> (kind, description).
#: ``kind`` is "int" / "bool" for globals, "[int]" / "[float]" / "[str]" /
#: "[bool]" for per-thread lists (one element per hardware context).
#: docs/OBSERVABILITY.md documents every field; a test asserts the two stay
#: in sync.
INTERVAL_SCHEMA: dict[str, tuple[str, str]] = {
    "window": ("int", "interval index, 0-based in run order"),
    "cycle_start": ("int", "first cycle of the interval (absolute, inclusive)"),
    "cycle_end": ("int", "one past the last cycle of the interval (absolute)"),
    "cycles": ("int", "interval length: cycle_end - cycle_start"),
    "in_measurement": ("bool", "interval lies wholly inside the measurement window"),
    "committed": ("[int]", "instructions committed per thread in this interval"),
    "fetched": ("[int]", "instructions fetched per thread in this interval"),
    "ipc": ("[float]", "per-thread IPC: committed / cycles"),
    "icount": ("[int]", "ICOUNT (pre-issue instructions) sampled at cycle_end"),
    "pipe": ("[int]", "instructions in the shared decode/rename pipe, sampled"),
    "rob": ("[int]", "ROB occupancy per thread, sampled at cycle_end"),
    "dmiss": ("[int]", "outstanding L1-D load misses (DWarn counter), sampled"),
    "l2_outstanding": ("[int]", "in-flight loads with a known L2 miss, sampled"),
    "group": ("[str]", "fetch group at cycle_end: 'normal' or 'dmiss'"),
    "gated": ("[bool]", "thread held out of fetch by a gating policy, sampled"),
    "gated_cycles": ("[int]", "gate-cycles scheduled by gates applied in the "
                              "interval (charged upfront; may exceed cycles)"),
    "flushes": ("[int]", "FLUSH-policy flush events per thread in the interval"),
    "squashed_flush": ("[int]", "instructions squashed by flushes in the interval"),
    "squashed_mispredict": ("[int]", "instructions squashed by mispredicts"),
    "mispredicts": ("[int]", "branch mispredicts resolved in the interval"),
    "issued": ("int", "instructions issued (all threads) in the interval"),
    "dispatched": ("int", "instructions renamed/dispatched in the interval"),
    "fetch_slots_used": ("int", "fetch slots consumed (all threads) in the interval"),
    "q_free": ("[int]", "free issue-queue entries sampled: [int, fp, ls]"),
    "free_int_regs": ("int", "free integer rename registers, sampled"),
    "free_fp_regs": ("int", "free FP rename registers, sampled"),
}

#: Per-thread *delta* stats fields (cumulative counters diffed per window).
_DELTA_FIELDS = (
    "committed",
    "fetched",
    "gated_cycles",
    "mispredicts",
    "squashed_flush",
    "squashed_mispredict",
)

_GLOBAL_DELTA_FIELDS = ("issued", "dispatched", "fetch_slots_used")


@dataclass
class IntervalRecord:
    """One window of interval metrics (see :data:`INTERVAL_SCHEMA`)."""

    window: int
    cycle_start: int
    cycle_end: int
    cycles: int
    in_measurement: bool
    committed: list[int]
    fetched: list[int]
    ipc: list[float]
    icount: list[int]
    pipe: list[int]
    rob: list[int]
    dmiss: list[int]
    l2_outstanding: list[int]
    group: list[str]
    gated: list[bool]
    gated_cycles: list[int]
    flushes: list[int]
    squashed_flush: list[int]
    squashed_mispredict: list[int]
    mispredicts: list[int]
    issued: int
    dispatched: int
    fetch_slots_used: int
    q_free: list[int]
    free_int_regs: int
    free_fp_regs: int

    def as_dict(self) -> dict:
        """Plain-dict form, field order matching :data:`INTERVAL_SCHEMA`."""
        return {name: getattr(self, name) for name in INTERVAL_SCHEMA}


class IntervalCollector:
    """Collects :class:`IntervalRecord` windows from one simulation run.

    Attach by assigning to ``Simulator.obs`` (or through
    :class:`repro.obs.ObservabilityHub`) before calling ``sim.run()``::

        sim = Simulator(machine, programs, make_policy("dwarn"), simcfg)
        sim.obs = collector = IntervalCollector(window=256)
        result = sim.run()
        collector.records          # list[IntervalRecord]

    Like a fetch policy, a collector is single-use per simulation: window
    indices, baselines and the warm-up cut are per-run state.
    """

    def __init__(self, window: int = 256) -> None:
        if window <= 0:
            raise ValueError("window must be positive")
        self.window = window
        self.records: list[IntervalRecord] = []
        self._sim: "Simulator | None" = None
        self._base: dict | None = None
        self._last_cycle = 0
        self._warmup = 0

    # -- Simulator.run() protocol ---------------------------------------

    def on_run_start(self, sim: "Simulator") -> None:
        """Baseline the cumulative counters at the start of the run."""
        if self._sim is not None:
            raise RuntimeError(
                "IntervalCollector is single-use: create a fresh collector "
                "per simulation run"
            )
        self._sim = sim
        self._base = sim.stats.totals()
        self._last_cycle = sim.cycle
        self._warmup = sim.simcfg.warmup_cycles

    def on_window(self, sim: "Simulator") -> None:
        """Sample if the run paused on an interval edge (window multiple or
        the warm-up boundary); other pauses — commit-limit checkpoints —
        return immediately."""
        cyc = sim.cycle
        if cyc <= self._last_cycle:
            return
        if cyc % self.window and cyc != self._warmup:
            return
        self._sample(sim)

    def on_run_end(self, sim: "Simulator") -> None:
        """Emit the final (possibly partial) interval, if any cycles ran
        since the last edge (early commit-limit stops land here)."""
        if self._sim is sim and sim.cycle > self._last_cycle:
            self._sample(sim)

    # -- sampling --------------------------------------------------------

    def _sample(self, sim: "Simulator") -> None:
        totals = sim.stats.totals()
        base = self._base
        assert base is not None
        n = sim.num_threads
        start = self._last_cycle
        end = sim.cycle
        cycles = end - start

        deltas: dict[str, list[int]] = {
            f: [totals[f][t] - base[f][t] for t in range(n)] for f in _DELTA_FIELDS
        }
        flushes = [
            totals["flush_events"][t] - base["flush_events"][t] for t in range(n)
        ]

        threads = sim.threads
        policy = sim.policy
        thr = getattr(policy, "dmiss_threshold", 1)
        gate_count = getattr(policy, "_gate_count", None)
        l2_out = []
        for tc in threads:
            k = 0
            for i in tc.rob:
                if i.op == _OP_LOAD and i.issued and not i.completed and i.l2_miss:
                    k += 1
            l2_out.append(k)

        rec = IntervalRecord(
            window=len(self.records),
            cycle_start=start,
            cycle_end=end,
            cycles=cycles,
            in_measurement=start >= self._warmup,
            committed=deltas["committed"],
            fetched=deltas["fetched"],
            ipc=[c / cycles for c in deltas["committed"]],
            icount=[tc.icount for tc in threads],
            pipe=[tc.pipe_count for tc in threads],
            rob=[len(tc.rob) for tc in threads],
            dmiss=[tc.dmiss for tc in threads],
            l2_outstanding=l2_out,
            group=["dmiss" if tc.dmiss >= thr else "normal" for tc in threads],
            gated=[bool(gate_count[t]) if gate_count else False for t in range(n)],
            gated_cycles=deltas["gated_cycles"],
            flushes=flushes,
            squashed_flush=deltas["squashed_flush"],
            squashed_mispredict=deltas["squashed_mispredict"],
            mispredicts=deltas["mispredicts"],
            issued=totals["issued"] - base["issued"],
            dispatched=totals["dispatched"] - base["dispatched"],
            fetch_slots_used=totals["fetch_slots_used"] - base["fetch_slots_used"],
            q_free=list(sim.q_free),
            free_int_regs=sim.free_int_regs,
            free_fp_regs=sim.free_fp_regs,
        )
        self.records.append(rec)
        self._base = totals
        self._last_cycle = end

    # -- conveniences ----------------------------------------------------

    def measured_records(self) -> list[IntervalRecord]:
        """Only the intervals inside the measurement window."""
        return [r for r in self.records if r.in_measurement]

    def thread_series(self, fieldname: str, tid: int) -> list:
        """One thread's samples for a per-thread field (e.g. ``"ipc"``)."""
        if INTERVAL_SCHEMA[fieldname][0][0] != "[":
            raise KeyError(f"{fieldname!r} is not a per-thread field")
        return [getattr(r, fieldname)[tid] for r in self.records]


# ----------------------------------------------------------------------
# Validation / reconciliation


def validate_record(data: dict, num_threads: int | None = None) -> list[str]:
    """Schema-check one exported record dict; returns a list of problems
    (empty = valid). Checks field presence, no extras, per-field kinds and
    consistent per-thread list lengths."""
    problems = []
    for name, (kind, _) in INTERVAL_SCHEMA.items():
        if name not in data:
            problems.append(f"missing field {name!r}")
            continue
        value = data[name]
        if kind.startswith("["):
            if not isinstance(value, list):
                problems.append(f"{name}: expected list, got {type(value).__name__}")
                continue
            expected = 3 if name == "q_free" else num_threads  # q_free: int/fp/ls
            if expected is not None and len(value) != expected:
                problems.append(f"{name}: expected {expected} elements, got {len(value)}")
            elem = {"[int]": int, "[float]": (int, float), "[str]": str, "[bool]": bool}[kind]
            if not all(isinstance(v, elem) for v in value):
                problems.append(f"{name}: element type mismatch (want {kind})")
        elif kind == "int":
            if not isinstance(value, int) or isinstance(value, bool):
                problems.append(f"{name}: expected int, got {type(value).__name__}")
        elif kind == "bool":
            if not isinstance(value, bool):
                problems.append(f"{name}: expected bool, got {type(value).__name__}")
    for name in data:
        if name not in INTERVAL_SCHEMA:
            problems.append(f"unknown field {name!r}")
    return problems


def reconcile(records: Sequence[IntervalRecord], result: "SimResult") -> list[str]:
    """Check that the measured intervals sum exactly to the final result.

    Returns a list of discrepancies (empty = everything reconciles): summed
    per-thread committed counts must equal ``result.committed``, summed
    interval lengths must equal ``result.cycles``, and the cycle-weighted
    per-interval IPCs must reproduce ``result.ipc``.
    """
    measured = [r for r in records if r.in_measurement]
    problems = []
    cycles = sum(r.cycles for r in measured)
    if cycles != result.cycles:
        problems.append(f"cycles: intervals sum to {cycles}, result has {result.cycles}")
    n = result.num_threads
    for t in range(n):
        committed = sum(r.committed[t] for r in measured)
        if committed != result.committed[t]:
            problems.append(
                f"t{t} committed: intervals sum to {committed}, "
                f"result has {result.committed[t]}"
            )
        ipc = sum(r.ipc[t] * r.cycles for r in measured) / (cycles or 1)
        if abs(ipc - result.ipc[t]) > 1e-9:
            problems.append(f"t{t} ipc: intervals give {ipc}, result has {result.ipc[t]}")
    return problems


# ----------------------------------------------------------------------
# Export


def write_jsonl(records: Iterable[IntervalRecord], path: str | Path) -> Path:
    """Write records as JSON Lines (one schema-shaped object per line)."""
    out = Path(path)
    with out.open("w") as fh:
        for rec in records:
            fh.write(json.dumps(rec.as_dict()) + "\n")
    return out


def write_csv(records: Iterable[IntervalRecord], path: str | Path) -> Path:
    """Write records as CSV, per-thread list fields flattened to one
    ``field.t<N>`` column per thread (the shape spreadsheets want)."""
    records = list(records)
    out = Path(path)
    if not records:
        out.write_text("")
        return out
    n = len(records[0].committed)
    headers: list[str] = []
    for name, (kind, _) in INTERVAL_SCHEMA.items():
        if name == "q_free":
            headers.extend(["q_free.int", "q_free.fp", "q_free.ls"])
        elif kind.startswith("["):
            headers.extend(f"{name}.t{t}" for t in range(n))
        else:
            headers.append(name)
    with out.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(headers)
        for rec in records:
            row: list = []
            for name, (kind, _) in INTERVAL_SCHEMA.items():
                value = getattr(rec, name)
                if kind.startswith("["):
                    row.extend(value)
                else:
                    row.append(value)
            writer.writerow(row)
    return out
