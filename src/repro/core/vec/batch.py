"""Lockstep batch simulation: the ``vec`` backend.

One :class:`VecBatchSimulator` advances a whole batch of (workload, policy,
seed) runs — *lanes* — through the measurement window together, in fixed
lockstep chunks, and returns the same ``SimResult`` objects the per-run
``Simulator.run()`` API produces. Results are **cycle-exact**: every active
cycle steps through the reference fused kernel, lanes park across
provably-idle spans (``Simulator.quiescent_wake``), and the batch driver
reproduces ``Simulator._run_loop``'s pause points (warm-up boundary,
64-cycle-aligned commit-limit checkpoints) exactly, so a lane's result is
bit-identical to running it alone. ``repro.utils.perfguard
--backend-parity`` pins this.

Where the batch wins (the reason the backend exists):

- **Shared lane setup.** Lanes are grouped by (workload, seed); each group
  builds its trace programs *once* — six policies over one workload share
  one trace walk, the single largest cost of a short screening run.
- **Pre-warm template cloning.** Cache pre-warming is a pure function of
  (machine, programs), so the first lane of each group warms the hierarchy
  and the siblings clone it (``repro.core.columnar.capture_warm_hierarchy``)
  instead of re-filling thousands of cache lines each.
- **Idle skipping.** A lane steps through the fused loop via
  ``Simulator.run_cycles_skip_idle``, which jumps quiescent spans in place,
  and at each segment edge it *parks* with its next wake cycle. A parked
  lane crosses later segments with one ``advance_idle`` counter bump each,
  never re-entering the interpreter cycle loop.
- **Paused GC.** One simulation allocates millions of short-lived tuples;
  B simulations in one process thrash the collector B times harder. The
  batch driver disables GC for the build and stepping phases and restores
  it after. It first runs one full collection: a finished ``Simulator`` is
  cyclic garbage (its policy points back at it), so without that collect
  the previous batches' lanes would stay resident until CPython's gen-2
  heuristic happened to fire.

The batch runs in *one* process — it removes the per-worker duplicated
setup that process pools pay, and composes with them (each worker can run
its own batch). ``repro.experiments.parallel.run_pairs(backend="vec")`` and
the service batch dispatcher select it.
"""

from __future__ import annotations

import dataclasses
import gc
import time
from typing import Any, Callable, Iterable, Sequence

from repro.config import MachineConfig, SimulationConfig
from repro.core.columnar import capture_warm_hierarchy, restore_warm_hierarchy
from repro.core.policies import make_policy
from repro.core.result import SimResult
from repro.core.simulator import Simulator
from repro.trace.artifact import TraceArtifactCache
from repro.workloads import build_programs, build_single, get_workload

__all__ = [
    "Lane",
    "VecBatchSimulator",
    "VecLaneError",
    "run_batch",
]

#: Progress callback: (finished_lanes, total_lanes, current_cycle).
BatchProgressFn = Callable[[int, int, int], None]


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


def _build_lane_programs(
    workload: str, simcfg: SimulationConfig, trace_cache: TraceArtifactCache | None
) -> list[Any]:
    """Thread programs for a workload name or lone benchmark (the same
    resolution rule as ``ExperimentRunner._build_programs``)."""
    try:
        spec = get_workload(workload)
    except KeyError:
        return build_single(workload, simcfg, trace_cache=trace_cache)
    return build_programs(spec, simcfg, trace_cache=trace_cache)


class _LaneRun:
    """One lane's live state inside the batch."""

    __slots__ = ("lane", "sim", "result", "wake")

    def __init__(self, lane: Lane, sim: Simulator) -> None:
        self.lane = lane
        self.sim = sim
        self.result: SimResult | None = None
        #: Parked wake cycle: the lane is proven idle until this cycle
        #: (``Simulator.quiescent_wake``); -1 means runnable.
        self.wake = -1


class VecBatchSimulator:
    """Advance many (workload, policy, seed) runs in lockstep.

    ``lanes`` accepts :class:`Lane` objects or plain ``(workload, policy)``
    / ``(workload, policy, seed)`` tuples. All lanes share the batch
    ``simcfg`` except for their trace seed, so every lane has the same
    warm-up/measurement phase boundaries — which is what makes lockstep
    chunking line up with the per-run loop's pause points.

    ``chunk`` is the lockstep granularity in cycles (rounded down to a
    multiple of 64 so commit-limit checkpoints stay aligned); it only
    bounds how often the driver regains control — any chunking is
    behavior-neutral, exactly like ``Simulator.run_cycles``.
    """

    def __init__(
        self,
        machine: MachineConfig,
        simcfg: SimulationConfig,
        lanes: Iterable[Lane | Sequence[Any]],
        *,
        trace_cache: TraceArtifactCache | None = None,
        chunk: int = 512,
        progress: BatchProgressFn | None = None,
    ) -> None:
        self.machine = machine
        self.simcfg = simcfg
        self.lanes: list[Lane] = [Lane.coerce(s) for s in lanes]
        if not self.lanes:
            raise ValueError("VecBatchSimulator needs at least one lane")
        #: Cycles the lanes skipped as proven-idle spans, parked or inside
        #: the fused loop — telemetry for docs/benchmarks.
        self.idle_cycles_skipped = 0
        self.trace_cache = trace_cache
        self.chunk = max(64, chunk - chunk % 64)
        self.progress = progress
        self.results: list[SimResult] | None = None
        #: Wall-clock of the stepping phase, attributed to lanes
        #: proportionally to ``cycles * num_threads`` (scheduling-cost-model
        #: food, not a per-lane measurement).
        self.batch_seconds: float = 0.0
        self.lane_seconds: list[float] = []
        self._runs: list[_LaneRun] = []

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

        runs: list[_LaneRun | None] = [None] * len(self.lanes)
        for (workload, seed), members in groups.items():
            cfg = self._effective_simcfg(seed)
            lane0 = self.lanes[members[0]]
            try:
                programs = _build_lane_programs(workload, cfg, self.trace_cache)
                sim0 = Simulator(self.machine, programs, make_policy(lane0.policy), cfg)
            except Exception as exc:
                raise VecLaneError(f"lane setup failed: {exc!r}", lane0) from exc
            runs[members[0]] = _LaneRun(lane0, sim0)
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
                runs[i] = _LaneRun(lane, sim)
        self._runs = [r for r in runs if r is not None]
        assert len(self._runs) == len(self.lanes)

    # ------------------------------------------------------- control plane

    def _commit_hits(self, active: list[_LaneRun], limit: int) -> list[_LaneRun]:
        """Lanes whose per-thread windowed commits reached ``limit``.

        Mirrors the per-run loop's checkpoint test exactly.
        """
        hits: list[_LaneRun] = []
        for r in active:
            warm = r.sim._warm_committed
            if warm is None:
                continue
            committed = r.sim.stats.committed
            if any(committed[t] - warm[t] >= limit for t in range(r.sim.num_threads)):
                hits.append(r)
        return hits

    # -------------------------------------------------------------- run

    def run(self) -> list[SimResult]:
        """Run every lane to completion; results in lane order.

        The driver replays ``Simulator._run_loop``'s control flow across the
        batch: all lanes share the same phase boundaries (same simcfg), so
        one stop schedule serves every active lane, and each pause point is
        one the per-run loop would also have paused at (behavior-neutral).

        Each segment advances every active lane to ``stop``. A lane parked
        past ``cyc`` first jumps its idle span with one ``advance_idle``
        (possibly the whole segment). A lane still short of ``stop`` steps
        the rest through ``run_cycles_skip_idle`` and, if it ends quiescent,
        parks with its next wake cycle. By ``Simulator.quiescent_wake``'s
        contract every jumped cycle is one the fused loop would have run as
        a pure no-op.
        """
        if self.results is not None:
            return self.results
        simcfg = self.simcfg
        total = simcfg.total_cycles
        warmup = simcfg.warmup_cycles
        limit = simcfg.commit_limit
        chunk = self.chunk
        n_lanes = len(self.lanes)
        finished = 0

        def _finish(r: _LaneRun) -> None:
            nonlocal finished
            r.result = r.sim.result()
            finished += 1
            if self.progress is not None:
                self.progress(finished, n_lanes, r.sim.cycle)

        # Free earlier batches' lanes (cyclic garbage: a policy points back
        # at its simulator) before pausing GC, so peak memory does not hinge
        # on when the gen-2 heuristic last fired.
        gc.collect()
        gc_was_enabled = gc.isenabled()
        gc.disable()  # trace walks and stepping both churn short-lived tuples
        t0 = time.perf_counter()
        try:
            self._build_lanes()
            active = list(self._runs)
            cyc = 0
            while active and cyc < total:
                if cyc == warmup:
                    for r in active:
                        r.sim._begin_window()
                stop = warmup if (cyc < warmup and warmup < total) else total
                if limit and cyc >= warmup:
                    ckpt = (cyc | 63) + 1  # next 64-aligned cycle after cyc
                    if ckpt < stop:
                        stop = ckpt
                if cyc + chunk < stop:
                    stop = cyc + chunk
                for r in active:
                    sim = r.sim
                    try:
                        if r.wake > cyc:
                            sim.advance_idle(min(r.wake, stop) - cyc)
                        if sim.cycle < stop:
                            r.wake = -1
                            sim.run_cycles_skip_idle(stop - sim.cycle)
                            wake = sim.quiescent_wake(stop)
                            if wake is not None:
                                if wake <= stop:
                                    raise RuntimeError(
                                        f"idle-skip invariant broken: wake {wake} "
                                        f"not past segment edge {stop}"
                                    )
                                r.wake = wake
                    except Exception as exc:
                        raise VecLaneError(
                            f"lane failed at cycle {cyc}: {exc!r}", r.lane
                        ) from exc
                cyc = stop
                if limit and cyc > warmup and (cyc & 63) == 0:
                    for r in self._commit_hits(active, limit):
                        _finish(r)
                        active.remove(r)
            for r in active:
                _finish(r)
        finally:
            if gc_was_enabled:
                gc.enable()
        self.batch_seconds = time.perf_counter() - t0
        self.idle_cycles_skipped = sum(r.sim.idle_cycles_skipped for r in self._runs)

        results = [r.result for r in self._runs]
        assert all(res is not None for res in results)
        self.results = [res for res in results if res is not None]
        weights = [float(r.sim.cycle * r.sim.num_threads) for r in self._runs]
        wsum = sum(weights) or 1.0
        self.lane_seconds = [self.batch_seconds * w / wsum for w in weights]
        return self.results


def run_batch(
    machine: MachineConfig,
    simcfg: SimulationConfig,
    lanes: Iterable[Lane | Sequence[Any]],
    *,
    trace_cache: TraceArtifactCache | None = None,
    chunk: int = 512,
    progress: BatchProgressFn | None = None,
) -> list[SimResult]:
    """One-call convenience: build a :class:`VecBatchSimulator` and run it."""
    return VecBatchSimulator(
        machine,
        simcfg,
        lanes,
        trace_cache=trace_cache,
        chunk=chunk,
        progress=progress,
    ).run()
