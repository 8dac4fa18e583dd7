"""``repro.obs`` — low-overhead observability for the simulator and sweeps.

Four components, one per question the end-of-run aggregates can't answer:

- :class:`IntervalCollector` (``repro.obs.interval``) — *what was the
  machine doing over time?* Windowed per-thread telemetry (IPC, ICOUNT,
  occupancy, outstanding misses, group membership, gate/flush events)
  sampled at run-loop pauses; JSONL/CSV export; exact reconciliation
  against the final ``SimResult``.
- :class:`PipelineTracer` (``repro.obs.pipeline``) — *what happened to
  this instruction?* Ring-buffered per-event records
  (fetch/issue/miss/fill/flush/gate) via instance-level seam wrappers.
- :class:`ExplainRecorder` (``repro.obs.explain``) — *why did the policy
  pick that fetch order?* Per-decision priority order plus each thread's
  decision inputs, from the policy's own ``explain_decision`` hook.
- :class:`RunManifest` (``repro.obs.manifest``) — *what did the sweep
  engine actually do?* Per-pair timing/retry/cache-hit records from
  ``experiments.parallel``.

The :class:`ObservabilityHub` bundles the three simulator-side components
behind the single ``Simulator.obs`` attachment point::

    hub = ObservabilityHub(window=256, trace=True, explain=True)
    sim.obs = hub
    result = sim.run()
    hub.interval.records, hub.tracer.events, hub.explain.decisions

Zero-cost-when-disabled: a simulator with ``obs is None`` (the default)
takes the exact pre-observability control flow, and every component attaches
through seams that keep the generated hot loop intact unless per-instruction
stage tracing is explicitly requested (see ``repro.obs.pipeline``).
"""

from __future__ import annotations

from repro.obs.explain import ExplainRecorder, FetchDecision
from repro.obs.interval import (
    INTERVAL_SCHEMA,
    IntervalCollector,
    IntervalRecord,
    reconcile,
    validate_record,
    write_csv,
    write_jsonl,
)
from repro.obs.manifest import PAIR_SOURCES, PairRecord, RunManifest
from repro.obs.pipeline import EVENT_KINDS, PipelineTracer

__all__ = [
    "EVENT_KINDS",
    "ExplainRecorder",
    "FetchDecision",
    "INTERVAL_SCHEMA",
    "IntervalCollector",
    "IntervalRecord",
    "ObservabilityHub",
    "PAIR_SOURCES",
    "PairRecord",
    "PipelineTracer",
    "RunManifest",
    "reconcile",
    "validate_record",
    "write_csv",
    "write_jsonl",
]


class ObservabilityHub:
    """Bundle of simulator-side observability, attachable as ``sim.obs``.

    The interval collector is always on (it is the cheap part); event
    tracing and decision explain are opt-in flags. The hub implements the
    same ``on_run_start`` / ``on_window`` / ``on_run_end`` protocol
    ``Simulator.run`` drives, so a bare :class:`IntervalCollector` can also
    be attached directly when that is all you need.
    """

    def __init__(
        self,
        window: int = 256,
        trace: bool = False,
        trace_capacity: int = 8192,
        trace_kinds: tuple[str, ...] | None = None,
        explain: bool = False,
        explain_capacity: int = 4096,
        explain_every_cycle: bool = True,
    ) -> None:
        self.interval = IntervalCollector(window)
        self.tracer = (
            PipelineTracer(trace_capacity, trace_kinds) if trace else None
        )
        self.explain = (
            ExplainRecorder(explain_capacity, explain_every_cycle)
            if explain
            else None
        )

    @property
    def window(self) -> int:
        """The interval window size (read by ``Simulator.run`` to place
        its pause boundaries)."""
        return self.interval.window

    @property
    def records(self) -> list[IntervalRecord]:
        """The interval records collected so far (shorthand)."""
        return self.interval.records

    # -- Simulator.run() protocol ---------------------------------------

    def on_run_start(self, sim) -> None:
        """Attach the opt-in components and baseline the collector."""
        if self.tracer is not None:
            self.tracer.attach(sim)
        if self.explain is not None:
            self.explain.attach(sim)
        self.interval.on_run_start(sim)

    def on_window(self, sim) -> None:
        """Forward a run-loop pause to the interval collector."""
        self.interval.on_window(sim)

    def on_run_end(self, sim) -> None:
        """Emit the final partial interval at end of run."""
        self.interval.on_run_end(sim)
