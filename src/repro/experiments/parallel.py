"""Parallel sweep execution: fan simulations out over worker processes.

A figure sweep is dozens of completely independent simulations — ideal
process-level parallelism (the CPython-friendly kind the hpc-parallel guides
recommend when the hot loop is interpreter-bound). ``prefetch`` runs a batch
of (workload, policy) pairs in a process pool and installs the results into
an :class:`ExperimentRunner`'s caches; the experiment modules then find every
run already cached.

The scheduler is built for sweep *throughput* and *robustness*:

- **Widest-first ordering.** Pairs are dispatched widest workload first
  (thread count; 1 for a lone benchmark or ingested trace), ties in the
  order given. With streaming completion an 8-thread MEM workload no
  longer starts last and runs alone while the other workers idle; ordering
  by exact measured costs instead would shorten a report sweep by under
  2% (docs/PERFORMANCE.md, "Sweep order").
- **Streaming completion.** Results are consumed as they finish
  (``concurrent.futures.wait``), not in submission order, so one slow pair
  never serializes the tail, and progress is observable while the sweep runs
  (``progress`` callback, rendered by the CLI).
- **Fault tolerance.** A worker process dying (OOM kill, segfault, operator
  ``kill -9``) breaks the whole ``ProcessPoolExecutor``; the scheduler
  rebuilds the pool and re-queues every unfinished pair, bounded by
  :data:`MAX_POOL_RESTARTS`. A pair whose simulation *raises* is retried
  once, then the sweep is aborted with a :class:`SweepError` naming the
  failing (workload, policy) pair, with outstanding futures cancelled.

Workers rebuild traces from seeds (deterministic), so only small picklable
inputs (machine config, simulation config, names) cross process boundaries.
When a trace-artifact directory is given, each worker additionally reads
persisted traces from disk (:mod:`repro.trace.artifact`) instead of
regenerating them — the single largest cost of a cold sweep.

Observability: every entry point accepts an optional
``repro.obs.RunManifest``. The scheduler records one pair record per
completed pair — wall-clock seconds (measured inside the worker), retry
count, and whether the result came from the memory cache, the disk cache,
or an actual simulation — plus sweep-level pool-restart counts.
``dwarn-sim report --manifest out.json`` persists it next to the report.

Usage::

    runner = ExperimentRunner("baseline", cache_dir=".cache",
                              trace_cache_dir=".cache/traces")
    prefetch(runner, sweep_pairs(runner, PAPER_POLICIES), processes=8)
    figure1.run(runner)          # all cache hits
"""

from __future__ import annotations

import time
from concurrent.futures import FIRST_COMPLETED, BrokenExecutor, Future, ProcessPoolExecutor, wait
from typing import TYPE_CHECKING, Callable, Iterable, Sequence

from repro.config import MachineConfig, SimulationConfig
from repro.core import SimResult, Simulator, make_policy
from repro.core.columnar import ColumnarState, SnapshotError, run_checkpointed
from repro.core.vec import VecBatchSimulator, VecLaneError
from repro.experiments.runner import ExperimentRunner
from repro.trace.artifact import trace_cache_for
from repro.workloads import WORKLOADS, build_programs, workloads_for_machine

if TYPE_CHECKING:  # pragma: no cover
    from repro.obs.manifest import RunManifest

__all__ = [
    "MAX_POOL_RESTARTS",
    "SweepError",
    "prefetch",
    "prefetch_seed_sweep",
    "run_pairs",
    "simulate_resumable",
    "sweep_pairs",
]

#: Upper bound on process-pool rebuilds per sweep: each worker death
#: re-queues the unfinished pairs into a fresh pool; past this many pool
#: losses the environment (not a transient) is the problem, so fail loudly.
MAX_POOL_RESTARTS = 3

#: How many times a pair whose simulation raises is re-run before the
#: sweep aborts.
_PAIR_RETRIES = 1

#: Progress callback signature: (done, total, workload, policy, secs).
ProgressFn = Callable[[int, int, str, str, float], None]


class SweepError(RuntimeError):
    """A sweep aborted: carries the failing (workload, policy, seed) when known.

    The seed matters for reproducing the failure: multi-seed sweeps
    (``prefetch_seed_sweep``) run the same pair under several trace seeds,
    and only one of them may trip the bug.
    """

    def __init__(
        self,
        message: str,
        workload: str | None = None,
        policy: str | None = None,
        seed: int | None = None,
    ):
        super().__init__(message)
        self.workload = workload
        self.policy = policy
        self.seed = seed


# ----------------------------------------------------------------------
# Workers


def _simulate_one(
    machine: MachineConfig,
    simcfg: SimulationConfig,
    workload: str,
    policy: str,
    trace_cache_dir: str | None = None,
) -> tuple[str, str, SimResult, float]:
    """Worker: one full simulation (module-level so it pickles).

    Returns ``(workload, policy, result, secs)`` — the elapsed time is
    measured *inside* the worker so queue wait never pollutes the per-pair
    seconds the manifest records. When ``trace_cache_dir`` is given, trace generation reads/writes
    persistent artifacts there instead of walking from scratch.
    """
    res, _, secs = simulate_resumable(
        machine, simcfg, workload, policy, trace_cache_dir=trace_cache_dir
    )
    return workload, policy, res, secs


def simulate_resumable(
    machine: MachineConfig,
    simcfg: SimulationConfig,
    workload: str,
    policy: str,
    *,
    trace_cache_dir: str | None = None,
    checkpoint_interval: int = 0,
    on_checkpoint: Callable[[Simulator], None] | None = None,
    restore: "ColumnarState | None" = None,
) -> tuple[SimResult, int, float]:
    """One preemptible simulation: optionally restore, run, checkpoint.

    The one function that runs a simulation for every service job (the
    daemon's local dispatcher and every worker) and, through
    :func:`_simulate_one`, for every ``run_pairs`` pair. When ``restore``
    (a decoded ``ColumnarState``) is given, the fresh simulator is
    overwritten with it and the run continues from the captured cycle; any
    :class:`SnapshotError` — version skew, a snapshot for a different
    config shape — falls open to a cold cycle-0 rerun on a pristine
    simulator rather than failing the job. When ``checkpoint_interval`` is
    positive, ``on_checkpoint(sim)`` fires at every interval-aligned cycle
    boundary (see :func:`repro.core.columnar.run_checkpointed`).

    Returns ``(result, resumed_from, secs)`` — ``resumed_from`` is the cycle
    the run actually continued from (0 = ran cold), and ``secs`` is the
    incremental in-process wall clock.
    """
    t0 = time.perf_counter()
    cache = trace_cache_for(trace_cache_dir)

    def build() -> Simulator:
        programs = build_programs(workload, simcfg, trace_cache=cache)
        return Simulator(machine, programs, make_policy(policy), simcfg)

    sim = build()
    resumed_from = 0
    if restore is not None:
        try:
            restore.restore_into(sim)
            resumed_from = sim.cycle
        except SnapshotError:
            # Fail-open: a partially-applied restore is unusable, so rebuild
            # a pristine simulator and run from cycle 0.
            sim = build()
            resumed_from = 0
    if checkpoint_interval > 0 and on_checkpoint is not None:
        res = run_checkpointed(sim, checkpoint_interval, on_checkpoint)
    else:
        res = sim.run()
    return res, resumed_from, time.perf_counter() - t0


# ----------------------------------------------------------------------
# Pair enumeration


def sweep_pairs(
    runner: ExperimentRunner,
    policies: Sequence[str],
    include_singles: bool = True,
) -> list[tuple[str, str]]:
    """Every (workload, policy) pair a full figure sweep on this runner's
    machine needs, plus the single-thread baselines Hmean requires."""
    pairs: list[tuple[str, str]] = []
    benches: set[str] = set()
    for spec in workloads_for_machine(runner.machine.proc.max_contexts):
        for pol in policies:
            pairs.append((spec.name, pol))
        benches.update(spec.benchmarks)
    if include_singles:
        pairs.extend((b, "icount") for b in sorted(benches))
    return pairs


# ----------------------------------------------------------------------
# Scheduler


def run_pairs(
    machine: MachineConfig,
    simcfg: SimulationConfig,
    pairs: Iterable[tuple[str, str]],
    processes: int | None = None,
    *,
    trace_cache_dir: str | None = None,
    progress: ProgressFn | None = None,
    worker: Callable[..., tuple[str, str, SimResult, float]] | None = None,
    manifest: "RunManifest | None" = None,
    sweep: str = "sweep",
    seed: int | None = None,
    backend: str = "process",
) -> list[tuple[str, str, SimResult]]:
    """Run pairs in a process pool; returns (workload, policy, result) in
    the order the pairs were given.

    Pairs are dispatched widest workload first (ties in the order given),
    completion is streamed, worker-process deaths rebuild the pool and
    re-queue the unfinished pairs (at most :data:`MAX_POOL_RESTARTS`
    times), and a pair whose simulation raises is retried once before the
    sweep aborts with a :class:`SweepError` naming it. ``worker`` overrides
    the simulation callable (tests inject crashing workers through this).

    ``backend`` selects the execution engine: ``"process"`` (default) is
    the pool described above; ``"vec"`` runs the whole batch in-process
    through :class:`~repro.core.vec.VecBatchSimulator` — bit-identical
    results (the engine-parity test pins this), setup shared across the
    pairs of one (workload, seed), and a serial-path fallback (with its
    one retry per pair) if the batch aborts.

    When ``manifest`` is given, every completed pair is recorded into it as
    ``source="simulated"`` (with its in-worker seconds and retry count,
    under the ``sweep`` label), and pool restarts are counted sweep-wide.
    """
    pairs = list(pairs)
    if not pairs:
        return []
    run_one = worker or _simulate_one
    # The trace seed every pair in this call actually runs under: the
    # explicit ``seed`` label when given (seed sweeps), else the simcfg's.
    # SweepError messages carry it so a failing pair is reproducible as
    # (workload, policy, seed), not just (workload, policy).
    eff_seed = seed if seed is not None else simcfg.seed
    # Widest workload first (a lone benchmark or ingested trace is one
    # thread); sorted() stays stable under reverse=True, so equal widths
    # keep the given order.
    widths = [WORKLOADS[wl].num_threads if wl in WORKLOADS else 1 for wl, _ in pairs]
    order = sorted(range(len(pairs)), key=widths.__getitem__, reverse=True)
    total = len(pairs)
    results: dict[int, SimResult] = {}

    def _finish(i: int, res: SimResult, secs: float, nretries: int) -> None:
        results[i] = res
        wl, pol = pairs[i]
        if manifest is not None:
            manifest.record_pair(
                sweep, wl, pol, "simulated", secs, retries=nretries, seed=seed
            )
        if progress is not None:
            progress(len(results), total, wl, pol, secs)

    serial = processes is not None and processes <= 1
    if backend == "vec":
        try:
            batch = VecBatchSimulator(
                machine, simcfg, pairs, trace_cache=trace_cache_for(trace_cache_dir)
            )
            batch_results = batch.run()
        except VecLaneError:
            # The batch engine could not finish (one lane poisoned it at
            # setup or mid-flight). Re-run on the serial path, which retries
            # per pair and names the failing pair in its SweepError.
            serial = True
        else:
            for i, res in enumerate(batch_results):
                _finish(i, res, batch.lane_seconds[i], 0)
            return [(pairs[i][0], pairs[i][1], results[i]) for i in range(total)]
    elif backend != "process":
        raise ValueError(f"unknown run_pairs backend {backend!r}")

    if serial:
        for i in order:
            wl, pol = pairs[i]
            attempt = 0
            while True:
                try:
                    _, _, res, secs = run_one(machine, simcfg, wl, pol, trace_cache_dir)
                    break
                except Exception as exc:
                    attempt += 1
                    if attempt > _PAIR_RETRIES:
                        raise SweepError(
                            f"simulation failed for ({wl}, {pol}, seed={eff_seed}): "
                            f"{exc!r}",
                            wl,
                            pol,
                            eff_seed,
                        ) from exc
            _finish(i, res, secs, attempt)
        return [(pairs[i][0], pairs[i][1], results[i]) for i in range(total)]

    attempts = [0] * total
    restarts = 0
    while len(results) < total:
        remaining = [i for i in order if i not in results]
        pool_broke = False
        with ProcessPoolExecutor(max_workers=processes) as pool:

            fut_pair: dict[Future, int] = {}

            def _submit(i: int) -> Future:
                wl, pol = pairs[i]
                fut = pool.submit(run_one, machine, simcfg, wl, pol, trace_cache_dir)
                fut_pair[fut] = i
                return fut

            pending = {_submit(i) for i in remaining}
            while pending:
                done, pending = wait(pending, return_when=FIRST_COMPLETED)
                for fut in done:
                    i = fut_pair[fut]
                    wl, pol = pairs[i]
                    try:
                        _, _, res, secs = fut.result()
                    except BrokenExecutor:
                        # A worker process died. Every other pending future
                        # on this pool is poisoned too: drop the pool and
                        # re-queue all unfinished pairs on a fresh one.
                        pool_broke = True
                        pending = set()
                        break
                    except Exception as exc:
                        attempts[i] += 1
                        if attempts[i] > _PAIR_RETRIES:
                            for other in pending:
                                other.cancel()
                            pool.shutdown(wait=False, cancel_futures=True)
                            raise SweepError(
                                f"simulation failed for ({wl}, {pol}, "
                                f"seed={eff_seed}) after "
                                f"{attempts[i]} attempts: {exc!r}",
                                wl,
                                pol,
                                eff_seed,
                            ) from exc
                        pending.add(_submit(i))  # bounded re-queue, same pool
                    else:
                        _finish(i, res, secs, attempts[i])
        if pool_broke:
            restarts += 1
            if restarts > MAX_POOL_RESTARTS:
                raise SweepError(
                    f"worker pool died {restarts} times; "
                    f"{total - len(results)}/{total} pairs unfinished "
                    f"(seed={eff_seed})",
                    seed=eff_seed,
                )
    if manifest is not None:
        manifest.pool_restarts += restarts
    return [(pairs[i][0], pairs[i][1], results[i]) for i in range(total)]


def prefetch(
    runner: ExperimentRunner,
    pairs: Iterable[tuple[str, str]],
    processes: int | None = None,
    progress: ProgressFn | None = None,
    manifest: "RunManifest | None" = None,
    sweep: str = "prefetch",
    backend: str = "process",
) -> int:
    """Fill the runner's caches for ``pairs`` using worker processes.

    Pairs already in the memory cache are skipped; pairs present on disk are
    *installed into the memory cache* (parsed once, not discarded), so the
    experiment modules hit memory afterwards either way. Returns the number
    of simulations actually executed.

    When ``manifest`` is given, cache-served pairs are recorded as
    ``source="memory"``/``"disk"`` and simulated pairs with their worker
    timing and retry counts (see :func:`run_pairs`).
    """
    seed = runner.simcfg.seed
    todo: list[tuple[str, str]] = []
    for wl, pol in dict.fromkeys(pairs):  # dedupe, keep order
        key = runner._key(wl, pol)
        if key in runner._mem_cache:
            if manifest is not None:
                manifest.record_pair(sweep, wl, pol, "memory", 0.0, seed=seed)
            continue
        t0 = time.perf_counter()
        res = runner._load_disk(key)
        if res is not None:
            runner._mem_cache[key] = res
            if manifest is not None:
                manifest.record_pair(
                    sweep, wl, pol, "disk", time.perf_counter() - t0, seed=seed
                )
            continue
        todo.append((wl, pol))
    results = run_pairs(
        runner.machine,
        runner.simcfg,
        todo,
        processes,
        trace_cache_dir=runner.trace_cache_dir,
        progress=progress,
        manifest=manifest,
        sweep=sweep,
        seed=seed,
        backend=backend,
    )
    for wl, pol, res in results:
        runner.store_result(wl, pol, res)
    runner.simulations_run += len(results)
    return len(results)


def prefetch_seed_sweep(
    runner: ExperimentRunner,
    pairs: Iterable[tuple[str, str]],
    seeds: Iterable[int],
    processes: int | None = None,
    progress: ProgressFn | None = None,
    manifest: "RunManifest | None" = None,
    sweep: str = "seeds",
    backend: str = "process",
) -> int:
    """Prefetch ``pairs`` under several trace *seeds* (the ext_seeds sweep).

    The seed-robustness extension re-runs its pairs once per seed; without
    this, those simulations execute serially inside the report long after
    the main prefetch finished — the largest remaining serial tail of
    ``dwarn-sim report -j N``. Cache keys fold the seed in, so the per-seed
    sub-runners can share the caller's memory cache (exactly what
    ``ExperimentRunner.run_multi`` later hits). Returns the number of
    simulations executed.
    """
    total = 0
    pairs = list(pairs)
    for seed in seeds:
        sub = runner.with_seed(seed)
        total += prefetch(
            sub,
            pairs,
            processes,
            progress,
            manifest=manifest,
            sweep=sweep,
            backend=backend,
        )
        runner.simulations_run += sub.simulations_run
    return total
