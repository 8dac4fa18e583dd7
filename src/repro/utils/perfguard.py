"""Perf-regression guard: the CI entry point for speed and behavior drift.

Runs a short deterministic workload sweep (fixed seed, fixed ``baseline``
preset) and compares it against a checked-in baseline file
(``benchmarks/baselines.json``) in two parts:

1. **Result digests** — per-policy IPC, Hmean and exact committed-instruction
   counts for each guarded (workload, policy) pair. These are pure functions
   of simulator *behavior*: any mismatch means a semantic change, however
   small, and fails the guard regardless of tolerance. An intentional change
   must be accompanied by a baseline refresh (``--update``) in the same
   commit, which makes behavior drift reviewable in the diff.

2. **Timed gates** — each timed section (speed, sweep, ingest, walk, vec,
   vec_digest, resume) has one collector in :data:`COLLECTORS`, and each
   gated number is one row of :data:`GATES`. A row either tracks a
   host-normalized score (work per million pure-Python calibration
   operations measured on the same host, so one checked-in number can
   guard many hosts) within a multiple of the file's ``tolerance``, or
   holds a speedup ratio (both arms timed on the same host) at or above a
   hard floor. A row is checked when both files carry its section.

Two separate modes referee one thing each. ``--obs-overhead`` times an
interval-instrumented run against a plain one: results must stay
bit-identical and the overhead under 10%. ``--service-bench PATH`` gates a
``dwarn-sim loadtest`` report (``BENCH_service.json``) against the
baseline's ``service`` section: sustained jobs/min must clear
``min_jobs_per_min``, the run must have been loss-free and exactly-once,
and an optional ``max_p95_secs`` bounds tail latency.

Usage::

    python -m repro.utils.perfguard --baseline benchmarks/baselines.json
    python -m repro.utils.perfguard --baseline benchmarks/baselines.json --update
    python -m repro.utils.perfguard --obs-overhead
    python -m repro.utils.perfguard --service-bench BENCH_service.json

``--update`` rewrites the sections this run measured (only the digests with
``--skip-speed``) and carries the rest of the file over unchanged.

Exit status: 0 = within tolerance, 1 = regression or digest drift,
2 = bad invocation (missing baseline without ``--update``).
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from collections.abc import Callable, Iterator, Sequence
from pathlib import Path
from typing import Any, Literal, NamedTuple

from repro.config import SimulationConfig, get_preset
from repro.experiments.runner import ExperimentRunner
from repro.utils.profiling import cycles_per_second

__all__ = [
    "COLLECTORS",
    "GATES",
    "GUARDED_POLICIES",
    "GUARDED_WORKLOADS",
    "Gate",
    "SWEEP_PAIRS",
    "VEC_SCREEN_POLICIES",
    "calibration_score",
    "check_service_bench",
    "collect_digests",
    "collect_ingest",
    "collect_obs_overhead",
    "collect_resume",
    "collect_speed",
    "collect_sweep",
    "collect_vec_digest",
    "collect_vec_speed",
    "collect_walk",
    "compare",
    "main",
]

#: The six policies of the paper's main comparison (Table 4 / Figures 1-5),
#: plus the dynamic meta-selector extension — its digests pin the interval
#: feature sampling and switch decisions.
GUARDED_POLICIES: tuple[str, ...] = (
    "icount", "stall", "flush", "dg", "pdg", "dwarn", "meta",
)

#: Small but policy-discriminating workloads: a memory-bound pair (where the
#: load-miss policies separate from ICOUNT) and the mixed 4-thread workload
#: used by the speed microbench.
GUARDED_WORKLOADS: tuple[str, ...] = ("2-MEM", "4-MIX")

#: Deterministic short-run window. Small enough to keep the guard under a
#: couple of minutes, long enough that every policy mechanism (gates,
#: flushes, predictor warm-up) has fired.
_DIGEST_SIMCFG = dict(
    warmup_cycles=200, measure_cycles=1500, trace_length=6_000, seed=777
)

#: Relative tolerance when the baseline file stores none.
_TOLERANCE = 0.20

#: Speed-measurement shape (matches the tentpole's 4-MIX/dwarn microbench).
_SPEED_WORKLOAD = "4-MIX"
_SPEED_POLICY = "dwarn"
_SPEED_CYCLES = 20_000
_SPEED_REPEATS = 3

#: Sweep-measurement shape: a policy-and-thread-count-diverse slice of the
#: report sweep, small enough for CI, wide enough that scheduling matters.
SWEEP_PAIRS: tuple[tuple[str, str], ...] = (
    ("4-MIX", "dwarn"),
    ("4-MIX", "icount"),
    ("2-MEM", "dwarn"),
    ("2-MEM", "flush"),
    ("2-ILP", "icount"),
    ("gzip", "icount"),
)
_SWEEP_PROCESSES = 2


def calibration_score(rounds: int = 3) -> float:
    """Millions of pure-Python calibration operations per second on this host.

    The loop mixes integer arithmetic, list indexing and attribute-free
    function calls — the same primitive mix the simulator hot loop spends
    its time in — so the ratio sim-cycles/sec : calibration-ops/sec is
    far more stable across hosts than raw cycles/sec.
    """

    def one_round() -> float:
        buf = list(range(256))
        acc = 0
        n = 400_000
        t0 = time.perf_counter()
        for k in range(n):
            acc = (acc + buf[k & 255]) & 0xFFFFFFFF
            buf[k & 255] = acc & 255
        dt = time.perf_counter() - t0
        if acc < 0:  # pragma: no cover - keeps the loop from being elided
            raise AssertionError
        return n / dt / 1e6

    return max(one_round() for _ in range(rounds))


def _best_of(
    repeats: int,
    arms: Sequence[Callable[[], Callable[[], Any]]],
    diverged: str = "",
) -> tuple[list[float], list[Any]]:
    """Best-of-``repeats`` wall clock per arm, running the arms in order
    once per round so host noise lands on every arm alike.

    Each arm does its untimed setup and returns the callable to time. With
    ``diverged`` set, the arms' results must be equal in every round, else
    ``AssertionError(diverged)``. Returns each arm's best seconds and its
    result from the last round.
    """
    best = [float("inf")] * len(arms)
    last: list[Any] = [None] * len(arms)
    for _ in range(repeats):
        for i, arm in enumerate(arms):
            timed = arm()
            t0 = time.perf_counter()
            last[i] = timed()
            best[i] = min(best[i], time.perf_counter() - t0)
        if diverged and any(r != last[0] for r in last[1:]):
            raise AssertionError(diverged)
    return best, last


def collect_digests() -> dict[str, Any]:
    """Behavioral digests for every guarded (workload, policy) pair.

    Exact integers (cycles, per-thread committed counts) catch any semantic
    drift; rounded IPC/Hmean floats make the baseline file human-reviewable.
    """
    runner = ExperimentRunner("baseline", SimulationConfig(**_DIGEST_SIMCFG))
    digests: dict[str, Any] = {}
    for workload in GUARDED_WORKLOADS:
        for policy in GUARDED_POLICIES:
            res = runner.run(workload, policy)
            digests[f"{workload}/{policy}"] = {
                "cycles": res.cycles,
                "committed": list(res.committed),
                "ipc": [round(x, 6) for x in res.ipc],
                "hmean": round(runner.hmean(workload, policy), 6),
            }
    return digests


def collect_speed() -> dict[str, float]:
    """Measure simulation speed and its host-normalized score."""
    calib = calibration_score()
    cps = max(
        cycles_per_second(_SPEED_WORKLOAD, _SPEED_POLICY, cycles=_SPEED_CYCLES)
        for _ in range(_SPEED_REPEATS)
    )
    return {
        "cycles_per_second": round(cps, 1),
        "calibration_mops": round(calib, 3),
        "normalized_score": round(cps / calib, 1),
    }


def collect_sweep(processes: int = _SWEEP_PROCESSES) -> dict[str, float]:
    """Measure end-to-end sweep wall-clock through the parallel engine.

    Runs :data:`SWEEP_PAIRS` via ``run_pairs`` with ``processes`` workers
    and a pre-warmed temporary trace-artifact cache — the steady state a
    repeat ``dwarn-sim report -j N`` runs in — and normalizes the wall
    seconds by the host calibration score (lower is better).
    """
    import tempfile

    from repro.experiments.parallel import run_pairs
    from repro.trace.artifact import TraceArtifactCache
    from repro.workloads import build_programs

    calib = calibration_score()
    simcfg = SimulationConfig(**_DIGEST_SIMCFG)
    machine = get_preset("baseline")
    with tempfile.TemporaryDirectory(prefix="perfguard-traces-") as tmp:
        cache = TraceArtifactCache(tmp)
        for wl, _pol in SWEEP_PAIRS:  # pre-warm the trace cache
            build_programs(wl, simcfg, trace_cache=cache)
        t0 = time.perf_counter()
        run_pairs(machine, simcfg, list(SWEEP_PAIRS), processes, trace_cache_dir=tmp)
        sweep_secs = time.perf_counter() - t0
    return {
        "sweep_secs": round(sweep_secs, 3),
        "pairs": len(SWEEP_PAIRS),
        "processes": processes,
        "calibration_mops": round(calib, 3),
        "normalized_sweep_secs": round(sweep_secs * calib, 1),
    }


#: Ingest-measurement shape: records in the round-tripped trace file and
#: timing repeats (best-of, like the speed microbench).
_INGEST_RECORDS = 6_000
_INGEST_REPEATS = 3


def collect_ingest(repeats: int = _INGEST_REPEATS) -> dict[str, float]:
    """Measure the trace-ingest frontend's round-trip wall-clock.

    Exports a deterministic synthetic trace to a temporary ``.dwit`` file,
    then times the full consumer path — header + CRC validation, record
    checks, materialization into a simulator-ready trace — ``repeats``
    times (best run wins, cold memo each time). ``normalized_ingest_secs``
    is host-normalized like the sweep metric (lower is better), so the
    guard catches validation or interning work creeping into the hot path.
    """
    import tempfile

    from repro.trace import clear_trace_cache, generate_trace, get_profile
    from repro.trace import ingest as ingest_mod

    calib = calibration_score()
    trace = generate_trace(get_profile("gzip"), _INGEST_RECORDS, 0, 777)
    with tempfile.TemporaryDirectory(prefix="perfguard-ingest-") as tmp:
        path = ingest_mod.export_trace(trace, Path(tmp) / "guard.dwit")

        def cold_ingest() -> Callable[[], Any]:
            clear_trace_cache()
            return lambda: ingest_mod.materialize(
                ingest_mod.read_trace_file(path), base=0, seed=777
            )

        (best,), _ = _best_of(repeats, [cold_ingest])
    return {
        "ingest_secs": round(best, 4),
        "records": _INGEST_RECORDS,
        "calibration_mops": round(calib, 3),
        "normalized_ingest_secs": round(best * calib, 2),
    }


#: Trace-walk measurement shape: the four traces of 4-MIX, long enough that
#: the walk, not the code layout or address-space set-up, dominates.
_WALK_WORKLOAD = "4-MIX"
_WALK_TRACE_LENGTH = 30_000
_WALK_REPEATS = 3


def collect_walk() -> dict[str, float]:
    """Measure a fresh trace build: every trace of a workload walked anew.

    Times ``build_programs`` for :data:`_WALK_WORKLOAD` with the in-process
    trace memo cleared before each run and no trace cache, so each trace
    pays the synthetic CFG walk (best of :data:`_WALK_REPEATS`).
    ``normalized_walk_secs`` is host-normalized like the sweep metric
    (lower is better).
    """
    from repro.trace import clear_trace_cache
    from repro.workloads import build_programs, get_workload

    calib = calibration_score()
    simcfg = SimulationConfig(**{**_DIGEST_SIMCFG, "trace_length": _WALK_TRACE_LENGTH})
    workload = get_workload(_WALK_WORKLOAD)

    def fresh_build() -> Callable[[], Any]:
        clear_trace_cache()
        return lambda: build_programs(workload, simcfg)

    try:
        (best,), _ = _best_of(_WALK_REPEATS, [fresh_build])
    finally:
        clear_trace_cache()
    return {
        "walk_secs": round(best, 4),
        "traces": len(workload.benchmarks),
        "trace_length": _WALK_TRACE_LENGTH,
        "calibration_mops": round(calib, 3),
        "normalized_walk_secs": round(best * calib, 2),
    }


#: The vectorized-backend measurement: a *screening* sweep — every policy in
#: the registry over the paper's 2/4-thread workload mix at short windows,
#: the "rank candidate policies cheaply" regime the batch backend exists
#: for. The serial arm pays what a fresh worker process pays per pair (cold
#: in-process trace memo); the batch arm shares setup across the whole
#: sweep, so the ratio is the backend's honest end-to-end win.
VEC_SCREEN_POLICIES: tuple[str, ...] = (
    "icount", "stall", "flush", "dg", "pdg", "dwarn",
    "dwarn-pure", "dcpred", "rr", "brcount", "misscount", "meta",
)
_VEC_SIMCFG = dict(
    warmup_cycles=100, measure_cycles=400, trace_length=6_000, seed=777
)
_VEC_REPEATS = 2


def _collect_vec(
    section: str,
    simcfg_kw: dict[str, int],
    policies: Sequence[str],
    speedup_key: str,
    repeats: int,
) -> dict[str, Any]:
    """One vec batch against cold serial runs of the same lanes
    (:data:`GUARDED_WORKLOADS` x ``policies``); keys are named for ``section``.

    Arms alternate each round, best of ``repeats``, results asserted
    identical between them:

    - **serial-cold**: one pair at a time, clearing the in-process trace
      memo between pairs — the setup cost a fresh worker process pays;
    - **batch**: one ``VecBatchSimulator`` over all lanes.
    """
    from repro.core import Simulator, make_policy
    from repro.core.vec import VecBatchSimulator
    from repro.trace.synthetic import clear_trace_cache
    from repro.workloads import build_programs, get_workload

    calib = calibration_score()
    machine = get_preset("baseline")
    simcfg = SimulationConfig(**simcfg_kw)
    lanes = [(wl, pol) for wl in GUARDED_WORKLOADS for pol in policies]

    def serial_cold() -> list[Any]:
        results = []
        for wl, pol in lanes:
            clear_trace_cache()  # what a fresh worker process pays
            programs = build_programs(get_workload(wl), simcfg)
            results.append(Simulator(machine, programs, make_policy(pol), simcfg).run())
        return results

    def batched() -> Callable[[], Any]:
        clear_trace_cache()
        return VecBatchSimulator(machine, simcfg, lanes).run

    (serial_secs, batch_secs), (_, results) = _best_of(
        repeats,
        [lambda: serial_cold, batched],
        f"{section} batch results differ from serial run",
    )
    vec_cps = sum(r.cycles for r in results) / batch_secs
    return {
        "lanes": len(lanes),
        "serial_secs": round(serial_secs, 3),
        "batch_secs": round(batch_secs, 3),
        speedup_key: round(serial_secs / batch_secs, 2),
        f"{section}_cycles_per_sec": round(vec_cps, 1),
        "calibration_mops": round(calib, 3),
        f"normalized_{section}_score": round(vec_cps / calib, 1),
    }


def collect_vec_speed(repeats: int = _VEC_REPEATS) -> dict[str, Any]:
    """Measure the vectorized backend's batched screening sweep
    (:data:`VEC_SCREEN_POLICIES` x :data:`GUARDED_WORKLOADS`, short
    windows) against cold serial runs; see :func:`_collect_vec`.
    """
    return _collect_vec("vec", _VEC_SIMCFG, VEC_SCREEN_POLICIES, "batch_speedup", repeats)


def collect_vec_digest(repeats: int = _VEC_REPEATS) -> dict[str, Any]:
    """Measure the batched backend at *digest scale* (the guarded pairs'
    long windows — the shape design-space sweeps and interval-telemetry
    runs take), cold serial versus one batch; see :func:`_collect_vec`.
    """
    return _collect_vec("vec_digest", _DIGEST_SIMCFG, GUARDED_POLICIES, "digest_speedup", repeats)


#: Resume-measurement shape: long enough that the half-run saving dwarfs
#: envelope parse + restore cost, short enough for CI. The trace is 3x the
#: window so neither arm runs out of records early.
_RESUME_SIMCFG = dict(
    warmup_cycles=200, measure_cycles=20_000, trace_length=60_000, seed=777
)
_RESUME_WORKLOAD = "4-MIX"
_RESUME_POLICY = "dwarn"
_RESUME_REPEATS = 3


def collect_resume(repeats: int = _RESUME_REPEATS) -> dict[str, Any]:
    """Measure the checkpoint-resume win on the guarded microbench pair.

    One checkpointed run captures a midpoint envelope (and the reference
    result); then, ``repeats`` times each, alternating arms so host noise
    lands on both equally:

    - **rerun**: a cold simulation of the full window from cycle 0 — what
      a lease redelivery costs without a checkpoint;
    - **resume**: envelope parse, :meth:`ColumnarState.restore_into`, and
      the remaining half of the window — what a preemptible worker pays.

    Best-of-N wall-clock per arm; both arms are asserted bit-identical to
    each other every round and to the reference, so a resume that is fast
    but wrong fails loudly here rather than silently corrupting a sweep.
    """
    from repro.core import Simulator, make_policy
    from repro.core.columnar import (
        checkpoint_from_bytes,
        checkpoint_to_bytes,
        run_checkpointed,
    )
    from repro.workloads import build_programs, get_workload

    calib = calibration_score()
    machine = get_preset("baseline")
    simcfg = SimulationConfig(**_RESUME_SIMCFG)
    total = simcfg.total_cycles
    half = total // 2

    def fresh_sim() -> Simulator:
        programs = build_programs(get_workload(_RESUME_WORKLOAD), simcfg)
        return Simulator(machine, programs, make_policy(_RESUME_POLICY), simcfg)

    envelopes: list[bytes] = []
    reference = run_checkpointed(
        fresh_sim(), half, lambda s: envelopes.append(checkpoint_to_bytes(s))
    )
    envelope = envelopes[0]
    cycle, _, _ = checkpoint_from_bytes(envelope)

    def resumed() -> Callable[[], Any]:
        sim = fresh_sim()

        def resume() -> Any:
            _at, _tot, state = checkpoint_from_bytes(envelope)
            state.restore_into(sim)
            return sim.run()  # mid-run resume; commit-limit stops intact

        return resume

    diverged = "resumed run diverged from cold rerun"
    (rerun_secs, resume_secs), (rerun_res, _) = _best_of(
        repeats, [lambda: fresh_sim().run, resumed], diverged
    )
    if rerun_res != reference:
        raise AssertionError(diverged)
    return {
        "pair": f"{_RESUME_WORKLOAD}/{_RESUME_POLICY}",
        "checkpoint_cycle": cycle,
        "total_cycles": total,
        "envelope_bytes": len(envelope),
        "rerun_secs": round(rerun_secs, 3),
        "resume_secs": round(resume_secs, 3),
        "resume_speedup": round(rerun_secs / resume_secs, 2),
        "calibration_mops": round(calib, 3),
    }


#: Instrumented-overhead measurement shape: long enough that per-window
#: sampling cost is visible against real simulation work.
_OBS_SIMCFG = dict(
    warmup_cycles=200, measure_cycles=12_000, trace_length=20_000, seed=777
)
_OBS_WINDOW = 256
_OBS_REPEATS = 3
#: ``--obs-overhead`` budget: the instrumented run may cost this fraction
#: more wall clock than the plain one.
_OBS_BUDGET = 0.10


def collect_obs_overhead(
    window: int = _OBS_WINDOW, repeats: int = _OBS_REPEATS
) -> dict[str, Any]:
    """Measure interval-metrics overhead: instrumented vs plain wall-clock.

    Runs the speed microbench (4-MIX/dwarn) ``repeats`` times each way —
    alternating plain and ``IntervalCollector``-instrumented runs so host
    noise hits both arms equally — and reports best-of-N times, the
    overhead fraction, and whether the instrumented results stayed
    bit-identical (they must: window pauses are behavior-neutral).
    """
    from repro.core import Simulator, make_policy
    from repro.obs import IntervalCollector
    from repro.workloads import build_programs, get_workload

    simcfg = SimulationConfig(**_OBS_SIMCFG)
    machine = get_preset("baseline")
    spec = get_workload(_SPEED_WORKLOAD)
    collectors: list[IntervalCollector] = []

    def one_run(instrumented: bool) -> Callable[[], Any]:
        programs = build_programs(spec, simcfg)
        sim = Simulator(machine, programs, make_policy(_SPEED_POLICY), simcfg)
        if instrumented:
            collector = IntervalCollector(window)
            collectors.append(collector)
            sim.obs = collector
        return sim.run

    (best_plain, best_inst), (plain_res, inst_res) = _best_of(
        repeats, [lambda: one_run(False), lambda: one_run(True)]
    )
    return {
        "plain_secs": round(best_plain, 4),
        "instrumented_secs": round(best_inst, 4),
        "overhead_frac": round(best_inst / best_plain - 1.0, 4),
        "window": window,
        "windows_sampled": len(collectors[-1].records),
        "digest_match": (
            plain_res.cycles == inst_res.cycles
            and list(plain_res.committed) == list(inst_res.committed)
            and list(plain_res.fetched) == list(inst_res.fetched)
        ),
    }


#: Timed collectors by baseline section, in measurement order;
#: ``--skip-speed`` skips them all.
COLLECTORS: dict[str, Callable[[], dict[str, Any]]] = {
    "speed": collect_speed,
    "ingest": collect_ingest,
    "walk": collect_walk,
    "vec": collect_vec_speed,
    "vec_digest": collect_vec_digest,
    "resume": collect_resume,
    "sweep": collect_sweep,
}


class Gate(NamedTuple):
    """One gated number: ``current[section][key]`` against ``baseline[section]``.

    A *tracked* row (``floor == 0``) holds the value within ``k`` times the
    file's ``tolerance`` of the baseline's own value, on the side ``better``
    names; ``override``, when set, is a top-level baseline key that replaces
    ``k`` times the tolerance. A *floor* row holds the value at or above
    ``floor``, which the baseline section's ``min_speedup`` replaces and
    ``--update`` carries over.
    """

    section: str
    key: str
    better: Literal["higher", "lower"] = "higher"
    k: float = 1.0
    override: str = ""
    floor: float = 0.0


#: Every timed gate, one row per gated number.
GATES: tuple[Gate, ...] = (
    Gate("speed", "normalized_score"),
    # Parallel wall clock is noisier than the single-process microbench,
    # and ingest validation is deliberately strict (CRC + per-record
    # checks), so both get twice the tolerance.
    Gate("sweep", "normalized_sweep_secs", better="lower", k=2.0, override="sweep_tolerance"),
    Gate("ingest", "normalized_ingest_secs", better="lower", k=2.0, override="ingest_tolerance"),
    Gate("walk", "normalized_walk_secs", better="lower"),
    Gate("vec", "normalized_vec_score"),
    Gate("vec_digest", "normalized_vec_digest_score"),
    # The batch backend's reason to exist: it must beat per-pair cold serial
    # execution 5x on the screening sweep. Long windows amortize setup less
    # (the serial arm's per-pair trace rebuild is a smaller share of its
    # time), so the honest digest-scale floor is lower; docs/PERFORMANCE.md
    # has the measured ceiling analysis.
    Gate("vec", "batch_speedup", floor=5.0),
    Gate("vec_digest", "digest_speedup", floor=2.2),
    # Preemptible workers exist to bank this win: the ideal ratio is ~2x,
    # and the floor leaves headroom for restore cost and host noise.
    Gate("resume", "resume_speedup", floor=1.3),
)


def _verdicts(
    baseline: dict[str, Any], current: dict[str, Any], tolerance: float
) -> Iterator[tuple[bool, str]]:
    """``(passed, message)`` for every :data:`GATES` row both files carry,
    then for the resume checkpoint's position."""
    for g in GATES:
        base, cur = baseline.get(g.section), current.get(g.section)
        if not (base and cur):
            continue
        value = float(cur.get(g.key, 0.0))
        if g.floor:
            floor = float(base.get("min_speedup", g.floor))
            ok = value >= floor
            yield ok, (
                f"{g.section} speedup {value:.2f}x {'meets' if ok else 'below'} "
                f"the {floor:.1f}x floor ({g.key})"
            )
            continue
        ref = float(base.get(g.key, 0.0))
        if ref <= 0.0:
            continue
        tol = float(baseline.get(g.override, g.k * tolerance))
        if g.better == "higher":
            limit, bound = ref * (1.0 - tol), "floor"
            ok = value >= limit
        else:
            limit, bound = ref * (1.0 + tol), "ceiling"
            ok = value <= limit
        yield ok, (
            f"{g.section}{'' if ok else ' regression'}: {g.key} {value:.2f}, "
            f"{bound} {limit:.2f} (baseline {ref:.2f}, tolerance {tol:.0%})"
        )
    # A capture drifting toward cycle 0 would make the resume floor vacuous.
    res = current.get("resume")
    if baseline.get("resume") and res:
        at, total = int(res.get("checkpoint_cycle", 0)), int(res.get("total_cycles", 0))
        ok = total <= 0 or at * 2 >= total
        yield ok, (
            f"resume checkpoint at cycle {at}/{total} is "
            f"{'at or past' if ok else 'below'} the 50% mark"
        )


def compare(
    baseline: dict[str, Any], current: dict[str, Any], tolerance: float
) -> list[str]:
    """Return a list of human-readable failures (empty = guard passes)."""
    failures: list[str] = []
    base_digests = baseline.get("digests", {})
    cur_digests = current.get("digests", {})
    for key in sorted(base_digests):
        if key not in cur_digests:
            failures.append(f"digest missing for {key}")
        elif base_digests[key] != cur_digests[key]:
            failures.append(
                f"digest drift for {key}: baseline={base_digests[key]} "
                f"current={cur_digests[key]}"
            )
    failures += [msg for ok, msg in _verdicts(baseline, current, tolerance) if not ok]
    return failures


#: Default sustained-throughput floor for the ``service`` baseline section:
#: the ROADMAP's scale-out graduation gate (a 2-shard router must clear 1k
#: jobs/min with dedup intact).
_SERVICE_MIN_JOBS_PER_MIN = 1000.0


def check_service_bench(
    report: dict[str, Any], baseline: dict[str, Any]
) -> list[str]:
    """Gate a ``dwarn-sim loadtest`` report against ``baseline["service"]``.

    Returns the list of failure strings (empty = pass). Three checks are
    unconditional — throughput floor, exactly-once dedup, zero lost jobs —
    and ``max_p95_secs`` adds an optional tail-latency ceiling when the
    baseline sets one.
    """
    svc = baseline.get("service", {})
    floor = float(svc.get("min_jobs_per_min", _SERVICE_MIN_JOBS_PER_MIN))
    failures: list[str] = []

    jobs = report.get("jobs", {})
    jpm = float(report.get("throughput", {}).get("jobs_per_min", 0.0))
    if jpm < floor:
        failures.append(
            f"service throughput {jpm:.0f} jobs/min below floor {floor:.0f}"
        )
    if not report.get("dedup", {}).get("exactly_once", False):
        failures.append("service run was not exactly-once (duplicate results)")
    failed = int(jobs.get("failed", 0))
    if failed:
        failures.append(f"service run lost {failed} job(s)")
    requested, completed = int(jobs.get("requested", 0)), int(jobs.get("completed", 0))
    if completed < requested:
        failures.append(
            f"service run completed {completed}/{requested} requested jobs"
        )
    p95_ceiling = svc.get("max_p95_secs")
    if p95_ceiling is not None:
        p95 = float(report.get("latency", {}).get("p95", 0.0))
        if p95 > float(p95_ceiling):
            failures.append(
                f"service p95 latency {p95:.3f}s exceeds ceiling "
                f"{float(p95_ceiling):.3f}s"
            )
    return failures


def _service_bench_check(report_path: Path, baseline_path: Path) -> int:
    """The ``--service-bench`` mode: referee an existing BENCH_service.json
    against the baseline's ``service`` section. Returns the exit status."""
    if not report_path.exists():
        print(
            f"perfguard: service bench report {report_path} not found "
            "(produce one with `dwarn-sim loadtest`)",
            file=sys.stderr,
        )
        return 2
    report = json.loads(report_path.read_text())
    baseline: dict[str, Any] = {}
    if baseline_path.exists():
        baseline = json.loads(baseline_path.read_text())
    jobs = report.get("jobs", {})
    lat = report.get("latency", {})
    print(
        f"perfguard service: {jobs.get('completed', 0)}/{jobs.get('requested', 0)} "
        f"jobs, {report.get('throughput', {}).get('jobs_per_min', 0.0):.0f} "
        f"jobs/min, p50 {lat.get('p50', 0.0):.3f}s p95 {lat.get('p95', 0.0):.3f}s, "
        f"exactly_once={report.get('dedup', {}).get('exactly_once', False)}"
    )
    failures = check_service_bench(report, baseline)
    for f in failures:
        print(f"perfguard FAIL: {f}", file=sys.stderr)
    if not failures:
        floor = float(
            baseline.get("service", {}).get(
                "min_jobs_per_min", _SERVICE_MIN_JOBS_PER_MIN
            )
        )
        print(
            f"perfguard OK: service bench clears the {floor:.0f} jobs/min "
            "floor, exactly-once, no lost jobs"
        )
    return 1 if failures else 0


def _obs_overhead_check() -> int:
    """The ``--obs-overhead`` mode: measure, report, and gate (within
    :data:`_OBS_BUDGET`, digests bit-identical). Returns the exit status."""
    m = collect_obs_overhead()
    print(
        f"perfguard obs: plain {m['plain_secs']:.3f}s, instrumented "
        f"{m['instrumented_secs']:.3f}s ({m['windows_sampled']} windows of "
        f"{m['window']} cycles) -> overhead {m['overhead_frac']:+.1%}"
    )
    failures = []
    if not m["digest_match"]:
        failures.append("instrumented results differ from plain run")
    if m["overhead_frac"] > _OBS_BUDGET:
        failures.append(
            f"observability overhead {m['overhead_frac']:.1%} exceeds "
            f"{_OBS_BUDGET:.0%} budget"
        )
    for f in failures:
        print(f"perfguard FAIL: {f}", file=sys.stderr)
    if not failures:
        print(
            f"perfguard OK: observability overhead within {_OBS_BUDGET:.0%} "
            "budget, results bit-identical"
        )
    return 1 if failures else 0


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns the process exit status (see module doc)."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.utils.perfguard", description=__doc__
    )
    parser.add_argument(
        "--baseline",
        type=Path,
        default=Path("benchmarks/baselines.json"),
        help="baseline file to compare against (default: benchmarks/baselines.json)",
    )
    parser.add_argument(
        "--update",
        action="store_true",
        help="rewrite the measured sections of the baseline from this run "
        "instead of comparing",
    )
    parser.add_argument(
        "--skip-speed",
        action="store_true",
        help="check result digests only (no timing; fully deterministic)",
    )
    parser.add_argument(
        "--service-bench",
        type=Path,
        default=None,
        metavar="PATH",
        help="gate an existing `dwarn-sim loadtest` report (BENCH_service.json) "
        "against the baseline's `service` section; no simulation runs",
    )
    parser.add_argument(
        "--obs-overhead",
        action="store_true",
        help="measure interval-metrics overhead only: instrumented vs plain "
        f"simulation; fails above {_OBS_BUDGET * 100:.0f}%% or on digest drift",
    )
    args = parser.parse_args(argv)

    if args.obs_overhead:
        return _obs_overhead_check()

    if args.service_bench is not None:
        return _service_bench_check(args.service_bench, args.baseline)

    if not (args.update or args.baseline.exists()):
        print(
            f"perfguard: baseline {args.baseline} not found "
            "(run with --update to create it)",
            file=sys.stderr,
        )
        return 2
    baseline: dict[str, Any] = {}
    if args.baseline.exists():
        baseline = json.loads(args.baseline.read_text())

    current: dict[str, Any] = {"digests": collect_digests()}
    if not args.skip_speed:
        for section, collect in COLLECTORS.items():
            current[section] = collect()

    if args.update:
        # Hard floors survive a refresh: keep the previous file's
        # (hand-tuned) values when present, else seed the row defaults.
        for g in GATES:
            if g.floor and g.section in current:
                current[g.section]["min_speedup"] = baseline.get(g.section, {}).get(
                    "min_speedup", g.floor
                )
        written = {
            "tolerance": _TOLERANCE,
            "service": {"min_jobs_per_min": _SERVICE_MIN_JOBS_PER_MIN},
            **baseline,
            **current,
        }
        args.baseline.parent.mkdir(parents=True, exist_ok=True)
        args.baseline.write_text(json.dumps(written, indent=2, sort_keys=True) + "\n")
        print(f"perfguard: baseline written to {args.baseline}")
        return 0

    tolerance = float(baseline.get("tolerance", _TOLERANCE))
    failures = compare(baseline, current, tolerance)
    if failures:
        for f in failures:
            print(f"perfguard FAIL: {f}", file=sys.stderr)
        return 1

    skipped = " (timed gates skipped)" if args.skip_speed else ""
    print(f"perfguard OK: {len(current['digests'])} digests match{skipped}")
    for _ok, msg in _verdicts(baseline, current, tolerance):
        print(f"perfguard OK: {msg}")
    return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
