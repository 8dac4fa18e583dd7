"""Ring-buffered pipeline event trace: per-instruction fetch/issue/miss/
flush/gate records.

Where the interval collector answers "what was the machine doing during
window W", the :class:`PipelineTracer` answers "what happened to *this*
load": it records one event per interesting pipeline occurrence — fetches,
issues, L1-D/L2/D-TLB misses, declared-L2 moments, fills, mispredict
recoveries, FLUSH flushes and fetch-gates — into a bounded ring buffer
(newest events win; ``dropped`` counts what the ring let go).

Zero-cost-when-disabled contract: the tracer is pure opt-in and nothing in
the generated loop (``_fast_loop``) is touched — an untraced simulator carries
no trace code at all. Attaching installs *instance-level* wrappers at
existing seams. Policy hooks (``on_l1d_miss`` …) and ``flush_after`` /
``gate_until_fill`` are re-read from the instance by both execution paths,
so miss/fill/flush/gate tracing works under the generated loop too (it
keeps ``sim.cycle`` current). Per-instruction ``fetch`` / ``issue`` /
``mispredict`` records need stage wrappers; those land in
``Simulator.__dict__`` where ``_fast_eligible`` sees them and automatically
routes execution through the staged ``_step`` path, which honors them and
runs the same stage methods the generated loop is spliced from. The
property suite pins the two paths cycle-for-cycle equal, so a traced run
commits exactly what an untraced run commits (the parity test in
``tests/test_obs_pipeline.py``). Full event tracing is the
deliberately-heavyweight debugging mode; the interval collector
(``repro.obs.interval``) is the always-affordable one.

Event record shape (one dict per event, JSONL-exportable)::

    {"cycle": 1234, "kind": "l1_miss", "tid": 0, "pc": 4096, ...}

``kind`` is one of :data:`EVENT_KINDS`; kind-specific extras are documented
field-by-field in docs/OBSERVABILITY.md.
"""

from __future__ import annotations

import json
from collections import deque
from itertools import islice
from pathlib import Path
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.simulator import Simulator
    from repro.isa.instruction import DynInstr

__all__ = ["EVENT_KINDS", "PipelineTracer"]

#: Every event kind the tracer can emit, in pipeline order.
EVENT_KINDS: tuple[str, ...] = (
    "fetch",        # instruction entered the shared decode/rename pipe
    "issue",        # instruction left a ready queue for a functional unit
    "l1_miss",      # a load probed the L1 D-cache and missed
    "l2_miss",      # the load's L2 probe missed too (known at L2-access time)
    "l2_declared",  # load crossed the declare threshold (STALL/FLUSH moment)
    "dtlb_miss",    # load missed the data TLB
    "fill",         # the missing line arrived (dmiss counter decrement)
    "mispredict",   # branch mispredict recovery ran for this branch
    "flush",        # FLUSH-policy flush: younger instructions squashed
    "gate",         # a gating policy held a thread out of fetch
)


class PipelineTracer:
    """Bounded per-instruction event trace for one simulation.

    Usage (directly, or through :class:`repro.obs.ObservabilityHub`)::

        tracer = PipelineTracer(capacity=8192)
        tracer.attach(sim)
        sim.run()
        tracer.events            # deque of event dicts, oldest first
        tracer.to_jsonl("events.jsonl")

    ``kinds`` restricts recording to a subset of :data:`EVENT_KINDS` —
    tracing only misses and gates is much lighter than tracing every fetch.
    """

    def __init__(self, capacity: int = 8192, kinds: tuple[str, ...] | None = None) -> None:
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        bad = set(kinds or ()) - set(EVENT_KINDS)
        if bad:
            raise ValueError(f"unknown event kinds: {sorted(bad)}; valid: {EVENT_KINDS}")
        self.capacity = capacity
        self.kinds = frozenset(kinds) if kinds is not None else frozenset(EVENT_KINDS)
        self.events: deque[dict] = deque(maxlen=capacity)
        self.recorded = 0          # total events seen (>= len(events))
        self._sim: "Simulator | None" = None

    @property
    def dropped(self) -> int:
        """Events the ring buffer has let go (overwritten by newer ones)."""
        return self.recorded - len(self.events)

    # -- attachment ------------------------------------------------------

    def attach(self, sim: "Simulator") -> None:
        """Install stage/hook wrappers on ``sim`` (single-use, like a
        policy). When per-instruction kinds (fetch/issue/mispredict) are
        enabled, the instance-level stage overrides route the run through
        the staged path; hook-only tracing keeps the generated loop."""
        if self._sim is not None:
            raise RuntimeError(
                "PipelineTracer is single-use: create a fresh tracer per run"
            )
        self._sim = sim
        events = self.events
        kinds = self.kinds

        def emit(rec: dict) -> None:
            self.recorded += 1
            events.append(rec)

        if "fetch" in kinds or "issue" in kinds:
            self._wrap_stages(sim, emit)
        self._wrap_policy_hooks(sim, emit)
        if "mispredict" in kinds:
            orig_recover = sim._recover_mispredict

            def recover(i: "DynInstr") -> None:
                emit(
                    {"cycle": sim.cycle, "kind": "mispredict", "tid": i.tid,
                     "pc": i.pc, "wrongpath": i.wrongpath}
                )
                orig_recover(i)

            sim._recover_mispredict = recover
        if "flush" in kinds:
            orig_flush = sim.flush_after

            def flush_after(load: "DynInstr") -> int:
                count = orig_flush(load)
                emit(
                    {"cycle": sim.cycle, "kind": "flush", "tid": load.tid,
                     "pc": load.pc, "squashed": count}
                )
                return count

            sim.flush_after = flush_after
        if "gate" in kinds and hasattr(sim.policy, "gate_until_fill"):
            policy = sim.policy
            orig_gate = policy.gate_until_fill

            def gate_until_fill(i: "DynInstr") -> bool:
                gated = orig_gate(i)
                if gated:
                    emit(
                        {"cycle": sim.cycle, "kind": "gate", "tid": i.tid,
                         "pc": i.pc, "until": i.fill_cycle
                         - sim.machine.mem.fill_advance_cycles}
                    )
                return gated

            policy.gate_until_fill = gate_until_fill

    def _wrap_stages(self, sim: "Simulator", emit) -> None:
        """Per-instruction fetch/issue records via stage wrappers.

        Fetch: new instructions are exactly the pipe tail the stage appended.
        Issue: instructions that issued this cycle are in their thread's ROB
        with ``issue_cycle == cycle`` (commit ran earlier in the cycle, so
        they cannot have retired yet; squash cannot touch them until the
        branch resolves on a later cycle).
        """
        kinds = self.kinds
        trace_fetch = "fetch" in kinds
        trace_issue = "issue" in kinds
        orig_fetch = sim._fetch
        orig_issue = sim._issue
        pipe = sim.pipe

        def fetch() -> None:
            before = len(pipe)
            orig_fetch()
            if trace_fetch and len(pipe) > before:
                cycle = sim.cycle
                for i in islice(pipe, before, None):
                    emit(
                        {"cycle": cycle, "kind": "fetch", "tid": i.tid,
                         "pc": i.pc, "op": i.op, "wrongpath": i.wrongpath}
                    )

        def issue() -> None:
            before = sim.stats.issued
            orig_issue()
            if trace_issue and sim.stats.issued > before:
                cycle = sim.cycle
                for tc in sim.threads:
                    for i in tc.rob:
                        if i.issued and i.issue_cycle == cycle:
                            emit(
                                {"cycle": cycle, "kind": "issue", "tid": i.tid,
                                 "pc": i.pc, "op": i.op,
                                 "wrongpath": i.wrongpath}
                            )

        # Instance-level stage overrides: _fast_eligible() now returns False
        # and run_cycles takes the staged path, which reads these attributes.
        sim._fetch = fetch
        sim._issue = issue

    def _wrap_policy_hooks(self, sim: "Simulator", emit) -> None:
        """Miss/fill/declare records via the policy's event hooks (the same
        detection moments the paper's Table 1 names)."""
        policy = sim.policy
        spec = (
            ("l1_miss", "on_l1d_miss"),
            ("l2_miss", "on_l2_miss"),
            ("l2_declared", "on_l2_declared"),
            ("dtlb_miss", "on_dtlb_miss"),
            ("fill", "on_l1d_fill"),
        )
        for kind, hook_name in spec:
            if kind not in self.kinds:
                continue
            orig = getattr(policy, hook_name)

            def hook(i: "DynInstr", _orig=orig, _kind=kind) -> None:
                rec = {"cycle": sim.cycle, "kind": _kind, "tid": i.tid,
                       "pc": i.pc, "addr": i.addr, "wrongpath": i.wrongpath}
                if _kind == "fill":
                    rec["latency"] = sim.cycle - i.issue_cycle
                emit(rec)
                _orig(i)

            setattr(policy, hook_name, hook)

    # -- access ----------------------------------------------------------

    def tail(self, n: int) -> list[dict]:
        """The newest ``n`` events, oldest of them first."""
        if n <= 0:
            return []
        return list(self.events)[-n:]

    def counts(self) -> dict[str, int]:
        """Events currently in the ring, per kind."""
        out: dict[str, int] = {}
        for ev in self.events:
            out[ev["kind"]] = out.get(ev["kind"], 0) + 1
        return out

    def to_jsonl(self, path: str | Path) -> Path:
        """Write the ring's events (oldest first) as JSON Lines."""
        out = Path(path)
        with out.open("w") as fh:
            for ev in self.events:
                fh.write(json.dumps(ev) + "\n")
        return out
