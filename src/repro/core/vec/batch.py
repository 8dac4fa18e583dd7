"""Batch simulation: the ``vec`` backend.

One :class:`VecBatchSimulator` runs a whole batch of (workload, policy,
seed) runs — *lanes* — in one process and returns the same ``SimResult``
objects the per-run API produces. Each lane runs through
``Simulator.run``, the one loop that runs a simulation to its end, so a
lane's result is bit-identical to running it alone; the engine-parity test
in ``tests/test_vec_batch.py`` pins this.

Where the batch wins (the reason the backend exists):

- **Shared lane setup.** Lanes are grouped by (workload, seed); each group
  builds its trace programs *once* — six policies over one workload share
  one trace walk, the single largest cost of a short screening run.
- **Pre-warm template cloning.** Cache pre-warming is a pure function of
  (machine, programs), so the first lane of each group warms the hierarchy
  and the siblings clone it (``repro.core.columnar.capture_warm_hierarchy``)
  instead of re-filling thousands of cache lines each.
- **Paused GC.** One simulation allocates millions of short-lived tuples;
  B simulations in one process thrash the collector B times harder. The
  batch disables GC for the build and run phases and restores it after.
  It first runs one full collection: a finished ``Simulator`` is cyclic
  garbage (its policy points back at it), so without that collect the
  previous batches' lanes would stay resident until CPython's gen-2
  heuristic happened to fire.

The batch runs in *one* process — it removes the per-worker duplicated
setup that process pools pay, and composes with them (each worker can run
its own batch). ``repro.experiments.parallel.run_pairs(backend="vec")``
selects it.
"""

from __future__ import annotations

import dataclasses
import gc
import time
from typing import Any, Iterable, Sequence

from repro.config import MachineConfig, SimulationConfig
from repro.core.columnar import capture_warm_hierarchy, restore_warm_hierarchy
from repro.core.policies import make_policy
from repro.core.result import SimResult
from repro.core.simulator import Simulator
from repro.trace.artifact import TraceArtifactCache
from repro.workloads import build_programs

__all__ = [
    "Lane",
    "VecBatchSimulator",
    "VecLaneError",
    "run_batch",
]


@dataclasses.dataclass(frozen=True)
class Lane:
    """One run specification: a (workload, policy, seed) triple.

    ``seed=None`` means "the batch ``SimulationConfig``'s seed". Plain
    2- or 3-tuples are accepted everywhere a ``Lane`` is and normalized
    via :meth:`coerce`.
    """

    workload: str
    policy: str
    seed: int | None = None

    @classmethod
    def coerce(cls, spec: "Lane | Sequence[Any]") -> "Lane":
        if isinstance(spec, Lane):
            return spec
        if len(spec) == 2:
            return cls(str(spec[0]), str(spec[1]))
        if len(spec) == 3:
            return cls(str(spec[0]), str(spec[1]), None if spec[2] is None else int(spec[2]))
        raise ValueError(f"lane spec must be (workload, policy[, seed]): {spec!r}")


class VecLaneError(RuntimeError):
    """A lane's simulation raised: carries (workload, policy, seed) so the
    caller can retry or report the failing run, not just the batch."""

    def __init__(self, message: str, lane: Lane) -> None:
        super().__init__(message)
        self.workload = lane.workload
        self.policy = lane.policy
        self.seed = lane.seed


class VecBatchSimulator:
    """Run many (workload, policy, seed) runs in one process.

    ``lanes`` accepts :class:`Lane` objects or plain ``(workload, policy)``
    / ``(workload, policy, seed)`` tuples. All lanes share the batch
    ``simcfg`` except for their trace seed.
    """

    def __init__(
        self,
        machine: MachineConfig,
        simcfg: SimulationConfig,
        lanes: Iterable[Lane | Sequence[Any]],
        *,
        trace_cache: TraceArtifactCache | None = None,
    ) -> None:
        self.machine = machine
        self.simcfg = simcfg
        self.lanes: list[Lane] = [Lane.coerce(s) for s in lanes]
        if not self.lanes:
            raise ValueError("VecBatchSimulator needs at least one lane")
        self.trace_cache = trace_cache
        self.results: list[SimResult] | None = None
        #: Wall clock of the whole batch (build and run), attributed to
        #: lanes proportionally to ``cycles * num_threads`` (the manifest's
        #: per-pair seconds, not a per-lane measurement).
        self.batch_seconds: float = 0.0
        self.lane_seconds: list[float] = []
        self._sims: list[Simulator] = []

    # ------------------------------------------------------------ setup

    def _effective_simcfg(self, seed: int | None) -> SimulationConfig:
        if seed is None or seed == self.simcfg.seed:
            return self.simcfg
        return dataclasses.replace(self.simcfg, seed=seed)

    def _build_lanes(self) -> None:
        """Construct one simulator per lane, sharing per-group setup.

        Lanes are grouped by (workload, effective seed): each group builds
        its programs once (they are immutable — traces and wrong-path
        suppliers are memoized pure functions — so sharing them across
        simulators is behavior-neutral), and pre-warms the hierarchy once,
        cloning the warmed template into the sibling lanes.
        """
        groups: dict[tuple[str, int], list[int]] = {}
        for i, lane in enumerate(self.lanes):
            seed = lane.seed if lane.seed is not None else self.simcfg.seed
            groups.setdefault((lane.workload, seed), []).append(i)

        sims: list[Simulator | None] = [None] * len(self.lanes)
        for (workload, seed), members in groups.items():
            cfg = self._effective_simcfg(seed)
            lane0 = self.lanes[members[0]]
            try:
                programs = build_programs(workload, cfg, trace_cache=self.trace_cache)
                sim0 = Simulator(self.machine, programs, make_policy(lane0.policy), cfg)
            except Exception as exc:
                raise VecLaneError(f"lane setup failed: {exc!r}", lane0) from exc
            sims[members[0]] = sim0
            if len(members) == 1:
                continue
            template = capture_warm_hierarchy(sim0.hierarchy) if cfg.prewarm_caches else None
            cold_cfg = (
                dataclasses.replace(cfg, prewarm_caches=False) if template is not None else cfg
            )
            for i in members[1:]:
                lane = self.lanes[i]
                try:
                    sim = Simulator(self.machine, programs, make_policy(lane.policy), cold_cfg)
                    if template is not None:
                        restore_warm_hierarchy(sim.hierarchy, template)
                except Exception as exc:
                    raise VecLaneError(f"lane setup failed: {exc!r}", lane) from exc
                sims[i] = sim
        self._sims = [sim for sim in sims if sim is not None]
        assert len(self._sims) == len(self.lanes)

    # -------------------------------------------------------------- run

    def run(self) -> list[SimResult]:
        """Run every lane to completion; results in lane order.

        Builds every lane first (shared programs and warm templates), then
        runs each through ``Simulator.run``. A lane that raises aborts the
        batch with a :class:`VecLaneError` naming it.
        """
        if self.results is not None:
            return self.results
        # Free earlier batches' lanes (cyclic garbage: a policy points back
        # at its simulator) before pausing GC, so peak memory does not hinge
        # on when the gen-2 heuristic last fired.
        gc.collect()
        gc_was_enabled = gc.isenabled()
        gc.disable()  # trace walks and stepping both churn short-lived tuples
        t0 = time.perf_counter()
        results: list[SimResult] = []
        try:
            self._build_lanes()
            for lane, sim in zip(self.lanes, self._sims):
                try:
                    results.append(sim.run())
                except Exception as exc:
                    raise VecLaneError(
                        f"lane failed at cycle {sim.cycle}: {exc!r}", lane
                    ) from exc
        finally:
            if gc_was_enabled:
                gc.enable()
        self.batch_seconds = time.perf_counter() - t0
        self.results = results
        weights = [float(sim.cycle * sim.num_threads) for sim in self._sims]
        wsum = sum(weights) or 1.0
        self.lane_seconds = [self.batch_seconds * w / wsum for w in weights]
        return results


def run_batch(
    machine: MachineConfig,
    simcfg: SimulationConfig,
    lanes: Iterable[Lane | Sequence[Any]],
    *,
    trace_cache: TraceArtifactCache | None = None,
) -> list[SimResult]:
    """One-call convenience: build a :class:`VecBatchSimulator` and run it."""
    return VecBatchSimulator(machine, simcfg, lanes, trace_cache=trace_cache).run()
