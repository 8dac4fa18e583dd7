"""Perf-regression guard: the CI entry point for speed and behavior drift.

Runs a short deterministic workload sweep (fixed seed, fixed ``baseline``
preset) and compares two things against a checked-in baseline file
(``benchmarks/baselines.json``):

1. **Result digests** — per-policy IPC, Hmean and exact committed-instruction
   counts for each guarded (workload, policy) pair. These are pure functions
   of simulator *behavior*: any mismatch means a semantic change, however
   small, and fails the guard regardless of tolerance. An intentional change
   must be accompanied by a baseline refresh (``--update``) in the same
   commit, which makes behavior drift reviewable in the diff.

2. **Simulation speed** — ``cycles_per_second`` on the 4-MIX/dwarn
   microbench, *normalized* by a pure-Python calibration score measured on
   the same host immediately before. Raw cycles/sec depends on the machine
   CI happens to schedule; the normalized score (simulated cycles per
   million calibration operations) mostly cancels host speed out, so one
   checked-in number can guard many hosts. The comparison uses a relative
   tolerance (default 20%, per-file override in the baseline).

3. **Sweep speed** — ``sweep_secs``: wall-clock of a small multi-workload
   sweep through the parallel execution engine (``run_pairs``, 2 worker
   processes, warm trace-artifact cache), host-normalized the same way
   (``normalized_sweep_secs = sweep_secs * calibration_mops``; lower is
   better). This is the end-to-end path ``dwarn-sim report -j N`` takes, so
   it catches sweep-level regressions (scheduling, serialization, cache
   plumbing) that the single-simulation microbench cannot see. Parallel
   wall-clock is noisier than a single-process measurement, so its
   tolerance is twice the speed tolerance (override: ``sweep_tolerance``
   in the baseline file).

4. **Ingest round-trip** — ``ingest_secs``: wall-clock of one full trace
   ingest consumer path (header + CRC validation, per-record checks,
   materialization) over a freshly exported ``.dwit`` file,
   host-normalized like the sweep metric (lower is better). Guards the
   ``repro.trace.ingest`` frontend against validation or interning work
   creeping into the hot path.

5. **Vectorized-backend throughput** — the batched screening sweep (every
   registry policy over the 2/4-thread workload mix) through
   ``repro.core.vec`` versus per-pair cold serial execution. The speedup
   ratio is self-normalizing (both arms run on the same host) and has a
   hard floor (``vec.min_speedup`` in the baseline, default 5x); the
   batch's ``vec_cycles_per_sec`` additionally gets the usual
   host-normalized regression check.

6. **Digest-scale vec throughput** — the same guarded pairs the digests run
   (long windows, the shape cache-size sweeps and interval-telemetry runs
   take), batched with idle-span skipping versus cold serial. This gates
   the batch's win there separately from the screening-scale gate:
   ``vec_digest.min_speedup`` is the floor and
   ``vec_digest_cycles_per_sec`` gets the host-normalized check.
   ``--json [PATH]`` additionally emits both vec sections as a
   machine-readable benchmark artifact (default ``BENCH_vec.json``) for
   trajectory tracking.

7. **Checkpoint-resume win** — ``resume_speedup``: wall-clock of a cold
   rerun of the guarded microbench pair versus restoring a midpoint
   checkpoint envelope and finishing the remaining half. Resuming from a
   >=50% checkpoint must beat the rerun by a hard floor
   (``resume.min_speedup`` in the baseline, default 1.3x) — the whole
   point of the lease protocol's preemptible workers — and both arms are
   asserted bit-identical, so the gate also pins resume correctness. The
   ratio is self-normalizing (both arms share the host), like the vec
   speedup gates.

A separate mode, ``--backend-parity``, compares the staged, fused and
vectorized engines bit-for-bit (results *and* per-thread gating cycles) on
every guarded pair — the CI gate that pins the vectorized backend
cycle-exact.

Another separate mode, ``--service-bench PATH``, gates a ``dwarn-sim
loadtest`` report (``BENCH_service.json``) against the baseline's
``service`` section: sustained jobs/min must clear ``min_jobs_per_min``
(the ROADMAP's scale-out graduation gate), the run must have been
loss-free and exactly-once, and an optional ``max_p95_secs`` bounds tail
latency. The report is produced by the load harness, not by this module —
perfguard only referees it.

Usage::

    python -m repro.utils.perfguard --baseline benchmarks/baselines.json
    python -m repro.utils.perfguard --baseline benchmarks/baselines.json --update
    python -m repro.utils.perfguard --backend-parity
    python -m repro.utils.perfguard --service-bench BENCH_service.json

Exit status: 0 = within tolerance, 1 = regression or digest drift,
2 = bad invocation (missing baseline without ``--update``).
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path
from typing import Any

from repro.config import SimulationConfig, get_preset
from repro.experiments.runner import ExperimentRunner
from repro.utils.profiling import cycles_per_second

__all__ = [
    "GUARDED_POLICIES",
    "GUARDED_WORKLOADS",
    "SWEEP_PAIRS",
    "VEC_SCREEN_POLICIES",
    "calibration_score",
    "check_service_bench",
    "collect_backend_parity",
    "collect_digests",
    "collect_ingest",
    "collect_obs_overhead",
    "collect_resume",
    "collect_speed",
    "collect_sweep",
    "collect_vec_digest",
    "collect_vec_speed",
    "compare",
    "main",
]

#: The six policies of the paper's main comparison (Table 4 / Figures 1-5),
#: plus the dynamic meta-selector extension — its digests pin the interval
#: feature sampling and switch decisions, and its backend-parity leg keeps
#: the staged/fused/vec engines honest about mid-run policy switches.
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
    from repro.trace.artifact import TraceArtifactCache, trace_cache_installed
    from repro.workloads import build_programs, build_single, get_workload

    calib = calibration_score()
    simcfg = SimulationConfig(**_DIGEST_SIMCFG)
    machine = get_preset("baseline")
    with tempfile.TemporaryDirectory(prefix="perfguard-traces-") as tmp:
        cache = TraceArtifactCache(tmp)
        with trace_cache_installed(cache):  # pre-warm the artifact cache
            for wl, _pol in SWEEP_PAIRS:
                try:
                    build_programs(get_workload(wl), simcfg)
                except KeyError:
                    build_single(wl, simcfg)
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

    from repro.trace import generate_trace, get_profile
    from repro.trace import ingest as ingest_mod

    calib = calibration_score()
    trace = generate_trace(get_profile("gzip"), _INGEST_RECORDS, 0, 777)
    best = float("inf")
    with tempfile.TemporaryDirectory(prefix="perfguard-ingest-") as tmp:
        path = ingest_mod.export_trace(trace, Path(tmp) / "guard.dwit")
        for _ in range(repeats):
            ingest_mod._MATERIALIZE_CACHE.clear()
            t0 = time.perf_counter()
            tf = ingest_mod.read_trace_file(path)
            ingest_mod.materialize(tf, base=0, seed=777)
            best = min(best, time.perf_counter() - t0)
    return {
        "ingest_secs": round(best, 4),
        "records": _INGEST_RECORDS,
        "calibration_mops": round(calib, 3),
        "normalized_ingest_secs": round(best * calib, 2),
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
#: CI floor for the batched-sweep speedup (overridable per baseline file
#: via ``vec.min_speedup``): the vectorized backend must beat per-pair cold
#: serial execution by at least this factor on the screening sweep.
_VEC_MIN_SPEEDUP = 5.0


def collect_vec_speed(repeats: int = _VEC_REPEATS) -> dict[str, float]:
    """Measure the vectorized backend's batched-sweep throughput.

    Runs the screening sweep (:data:`VEC_SCREEN_POLICIES` x
    :data:`GUARDED_WORKLOADS`) both ways, ``repeats`` times each,
    alternating arms so host noise lands on both equally:

    - **serial-cold**: one pair at a time, clearing the in-process trace
      memo between pairs — the setup cost a fresh worker process pays;
    - **batch**: one ``VecBatchSimulator`` over all lanes.

    Reports best-of-N wall-clock for each arm, the speedup ratio,
    ``vec_cycles_per_sec`` (simulated cycles per second across the whole
    batch) and its host-normalized score. Results are asserted identical
    between the arms (cheap insurance on top of ``--backend-parity``).
    """
    from repro.core import Simulator, make_policy
    from repro.core.vec import VecBatchSimulator
    from repro.trace.synthetic import clear_trace_cache
    from repro.workloads import build_programs, get_workload

    calib = calibration_score()
    machine = get_preset("baseline")
    simcfg = SimulationConfig(**_VEC_SIMCFG)
    lanes = [(wl, pol) for wl in GUARDED_WORKLOADS for pol in VEC_SCREEN_POLICIES]

    def serial_cold() -> tuple[float, list]:
        results = []
        t0 = time.perf_counter()
        for wl, pol in lanes:
            clear_trace_cache()  # what a fresh worker process pays
            programs = build_programs(get_workload(wl), simcfg)
            results.append(Simulator(machine, programs, make_policy(pol), simcfg).run())
        return time.perf_counter() - t0, results

    def batch() -> tuple[float, list]:
        clear_trace_cache()
        b = VecBatchSimulator(machine, simcfg, lanes)
        t0 = time.perf_counter()
        results = b.run()
        return time.perf_counter() - t0, results

    serial_secs: list[float] = []
    batch_secs: list[float] = []
    batch_cycles = 0
    for _ in range(repeats):
        s_secs, s_res = serial_cold()
        b_secs, b_res = batch()
        if s_res != b_res:
            raise AssertionError("vec batch results differ from serial run")
        serial_secs.append(s_secs)
        batch_secs.append(b_secs)
        batch_cycles = sum(r.cycles for r in b_res)
    best_serial = min(serial_secs)
    best_batch = min(batch_secs)
    vec_cps = batch_cycles / best_batch
    return {
        "lanes": len(lanes),
        "serial_secs": round(best_serial, 3),
        "batch_secs": round(best_batch, 3),
        "batch_speedup": round(best_serial / best_batch, 2),
        "vec_cycles_per_sec": round(vec_cps, 1),
        "calibration_mops": round(calib, 3),
        "normalized_vec_score": round(vec_cps / calib, 1),
    }


#: Floor for the digest-scale batched speedup over cold serial. Long
#: windows are build-amortized less than screening sweeps (the serial arm's
#: per-pair trace rebuild is a smaller fraction of its time), so the honest
#: floor is lower than the screening gate's; see docs/PERFORMANCE.md for
#: the measured ceiling analysis.
_VEC_DIGEST_MIN_SPEEDUP = 2.2


def collect_vec_digest(repeats: int = _VEC_REPEATS) -> dict[str, Any]:
    """Measure the batched backend at *digest scale* (the guarded pairs'
    long windows — the shape design-space sweeps and interval-telemetry
    runs take), cold serial versus one batch.

    Same methodology as :func:`collect_vec_speed` — alternating arms,
    best-of-N, results asserted identical — plus the batch's idle-span
    telemetry.
    """
    from repro.core import Simulator, make_policy
    from repro.core.vec import VecBatchSimulator
    from repro.trace.synthetic import clear_trace_cache
    from repro.workloads import build_programs, get_workload

    calib = calibration_score()
    machine = get_preset("baseline")
    simcfg = SimulationConfig(**_DIGEST_SIMCFG)
    lanes = [(wl, pol) for wl in GUARDED_WORKLOADS for pol in GUARDED_POLICIES]

    def serial_cold() -> tuple[float, list]:
        results = []
        t0 = time.perf_counter()
        for wl, pol in lanes:
            clear_trace_cache()  # what a fresh worker process pays
            programs = build_programs(get_workload(wl), simcfg)
            results.append(Simulator(machine, programs, make_policy(pol), simcfg).run())
        return time.perf_counter() - t0, results

    serial_secs: list[float] = []
    batch_secs: list[float] = []
    batch_cycles = 0
    idle_skipped = 0
    for _ in range(repeats):
        s_secs, s_res = serial_cold()
        clear_trace_cache()
        b = VecBatchSimulator(machine, simcfg, lanes)
        t0 = time.perf_counter()
        b_res = b.run()
        b_secs = time.perf_counter() - t0
        if s_res != b_res:
            raise AssertionError("vec digest batch results differ from serial run")
        serial_secs.append(s_secs)
        batch_secs.append(b_secs)
        batch_cycles = sum(r.cycles for r in b_res)
        idle_skipped = b.idle_cycles_skipped
    best_serial = min(serial_secs)
    best_batch = min(batch_secs)
    vec_cps = batch_cycles / best_batch
    return {
        "lanes": len(lanes),
        "idle_cycles_skipped": idle_skipped,
        "serial_secs": round(best_serial, 3),
        "batch_secs": round(best_batch, 3),
        "digest_speedup": round(best_serial / best_batch, 2),
        "vec_digest_cycles_per_sec": round(vec_cps, 1),
        "calibration_mops": round(calib, 3),
        "normalized_vec_digest_score": round(vec_cps / calib, 1),
    }


#: Resume-measurement shape: long enough that the half-run saving dwarfs
#: envelope parse + restore cost, short enough for CI. The trace is 3x the
#: window so neither arm runs out of records early.
_RESUME_SIMCFG = dict(
    warmup_cycles=200, measure_cycles=20_000, trace_length=60_000, seed=777
)
_RESUME_WORKLOAD = "4-MIX"
_RESUME_POLICY = "dwarn"
_RESUME_REPEATS = 3
#: CI floor for the resume-vs-rerun speedup (overridable per baseline file
#: via ``resume.min_speedup``): restoring a midpoint checkpoint and
#: finishing must beat a cold rerun by at least this factor. The ideal
#: ratio is ~2x; the floor leaves headroom for restore cost and host noise.
_RESUME_MIN_SPEEDUP = 1.3


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
    the reference, so a resume that is fast but wrong fails loudly here
    rather than silently corrupting a sweep.
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

    rerun_secs: list[float] = []
    resume_secs: list[float] = []
    for _ in range(repeats):
        sim = fresh_sim()
        t0 = time.perf_counter()
        rerun_res = sim.run()
        rerun_secs.append(time.perf_counter() - t0)

        sim = fresh_sim()
        t0 = time.perf_counter()
        at, _tot, state = checkpoint_from_bytes(envelope)
        state.restore_into(sim)
        resume_res = sim.run()  # mid-run resume; commit-limit stops intact
        resume_secs.append(time.perf_counter() - t0)
        if rerun_res != reference or resume_res != reference:
            raise AssertionError("resumed run diverged from cold rerun")
    best_rerun = min(rerun_secs)
    best_resume = min(resume_secs)
    return {
        "pair": f"{_RESUME_WORKLOAD}/{_RESUME_POLICY}",
        "checkpoint_cycle": cycle,
        "total_cycles": total,
        "envelope_bytes": len(envelope),
        "rerun_secs": round(best_rerun, 3),
        "resume_secs": round(best_resume, 3),
        "resume_speedup": round(best_rerun / best_resume, 2),
        "calibration_mops": round(calib, 3),
    }


def collect_backend_parity() -> dict[str, Any]:
    """Run every guarded (workload, policy) pair through all three engines
    — staged ``_step``, fused ``_run_fast``, and the vectorized batch — and
    compare results *and* per-thread gating statistics exactly.

    The staged engine is forced the same way the property suite does: any
    instance-dict stage override makes ``_fast_eligible`` refuse the fused
    loop. The vec arm runs all pairs as one lockstep batch, which is
    exactly how the backend amortizes setup in production.
    """
    from repro.core import Simulator, make_policy
    from repro.core.vec import VecBatchSimulator
    from repro.workloads import build_programs, get_workload

    machine = get_preset("baseline")
    simcfg = SimulationConfig(**_DIGEST_SIMCFG)
    lanes = [(wl, pol) for wl in GUARDED_WORKLOADS for pol in GUARDED_POLICIES]

    def one(workload: str, policy: str, staged: bool):
        programs = build_programs(get_workload(workload), simcfg)
        sim = Simulator(machine, programs, make_policy(policy), simcfg)
        if staged:
            sim._step = sim._step  # instance override -> staged engine
        res = sim.run()
        return res, list(sim.stats.gated_cycles)

    vec_batch = VecBatchSimulator(machine, simcfg, lanes)
    vec_results = vec_batch.run()
    vec_gated = [list(r.sim.stats.gated_cycles) for r in vec_batch._runs]

    pairs: dict[str, Any] = {}
    all_match = True
    for i, (wl, pol) in enumerate(lanes):
        staged_res, staged_gated = one(wl, pol, staged=True)
        fused_res, fused_gated = one(wl, pol, staged=False)
        match = (
            staged_res == fused_res == vec_results[i]
            and staged_gated == fused_gated == vec_gated[i]
        )
        all_match = all_match and match
        pairs[f"{wl}/{pol}"] = {
            "match": match,
            "cycles": staged_res.cycles,
            "committed": list(staged_res.committed),
            "gated_cycles": staged_gated,
        }
    return {"pairs": pairs, "all_match": all_match}


#: Instrumented-overhead measurement shape: long enough that per-window
#: sampling cost is visible against real simulation work.
_OBS_SIMCFG = dict(
    warmup_cycles=200, measure_cycles=12_000, trace_length=20_000, seed=777
)
_OBS_WINDOW = 256
_OBS_REPEATS = 3


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
    from repro.config import get_preset
    from repro.core import Simulator, make_policy
    from repro.obs import IntervalCollector
    from repro.workloads import build_programs, get_workload

    simcfg = SimulationConfig(**_OBS_SIMCFG)
    machine = get_preset("baseline")
    spec = get_workload(_SPEED_WORKLOAD)

    def one_run(instrumented: bool):
        programs = build_programs(spec, simcfg)
        sim = Simulator(machine, programs, make_policy(_SPEED_POLICY), simcfg)
        collector = None
        if instrumented:
            collector = IntervalCollector(window)
            sim.obs = collector
        t0 = time.perf_counter()
        res = sim.run()
        return time.perf_counter() - t0, res, collector

    plain_secs = []
    inst_secs = []
    plain_res = inst_res = None
    windows = 0
    for _ in range(repeats):
        dt, plain_res, _c = one_run(False)
        plain_secs.append(dt)
        dt, inst_res, collector = one_run(True)
        inst_secs.append(dt)
        windows = len(collector.records)
    assert plain_res is not None and inst_res is not None
    best_plain = min(plain_secs)
    best_inst = min(inst_secs)
    return {
        "plain_secs": round(best_plain, 4),
        "instrumented_secs": round(best_inst, 4),
        "overhead_frac": round(best_inst / best_plain - 1.0, 4),
        "window": window,
        "windows_sampled": windows,
        "digest_match": (
            plain_res.cycles == inst_res.cycles
            and list(plain_res.committed) == list(inst_res.committed)
            and list(plain_res.fetched) == list(inst_res.fetched)
        ),
    }


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
            continue
        if base_digests[key] != cur_digests[key]:
            failures.append(
                f"digest drift for {key}: baseline={base_digests[key]} "
                f"current={cur_digests[key]}"
            )

    base_speed = baseline.get("speed", {})
    cur_speed = current.get("speed", {})
    base_score = float(base_speed.get("normalized_score", 0.0))
    cur_score = float(cur_speed.get("normalized_score", 0.0))
    if base_score > 0.0:
        floor = base_score * (1.0 - tolerance)
        if cur_score < floor:
            failures.append(
                "speed regression: normalized score "
                f"{cur_score:.1f} < floor {floor:.1f} "
                f"(baseline {base_score:.1f}, tolerance {tolerance:.0%})"
            )

    # Sweep wall-clock: lower is better, and parallel timing is noisier
    # than the single-process microbench, so the tolerance doubles unless
    # the baseline pins its own (``sweep_tolerance``).
    base_sweep = baseline.get("sweep", {})
    cur_sweep = current.get("sweep", {})
    base_norm = float(base_sweep.get("normalized_sweep_secs", 0.0))
    cur_norm = float(cur_sweep.get("normalized_sweep_secs", 0.0))
    if base_norm > 0.0 and cur_norm > 0.0:
        sweep_tol = float(baseline.get("sweep_tolerance", 2.0 * tolerance))
        ceiling = base_norm * (1.0 + sweep_tol)
        if cur_norm > ceiling:
            failures.append(
                "sweep regression: normalized sweep_secs "
                f"{cur_norm:.1f} > ceiling {ceiling:.1f} "
                f"(baseline {base_norm:.1f}, tolerance {sweep_tol:.0%})"
            )

    # Ingest round-trip: lower is better; validation is deliberately strict
    # (CRC + per-record checks), so the ceiling uses the doubled sweep-style
    # tolerance unless the baseline pins ``ingest_tolerance``.
    base_ing = baseline.get("ingest", {})
    cur_ing = current.get("ingest", {})
    base_inorm = float(base_ing.get("normalized_ingest_secs", 0.0))
    cur_inorm = float(cur_ing.get("normalized_ingest_secs", 0.0))
    if base_inorm > 0.0 and cur_inorm > 0.0:
        ing_tol = float(baseline.get("ingest_tolerance", 2.0 * tolerance))
        ceiling = base_inorm * (1.0 + ing_tol)
        if cur_inorm > ceiling:
            failures.append(
                "ingest regression: normalized ingest_secs "
                f"{cur_inorm:.2f} > ceiling {ceiling:.2f} "
                f"(baseline {base_inorm:.2f}, tolerance {ing_tol:.0%})"
            )

    # Vectorized backend: the batched-sweep speedup has a hard floor (the
    # backend's reason to exist), and its cycles/sec gets the same
    # normalized-regression check as the single-run microbench.
    base_vec = baseline.get("vec", {})
    cur_vec = current.get("vec", {})
    if base_vec and cur_vec:
        floor_ratio = float(base_vec.get("min_speedup", _VEC_MIN_SPEEDUP))
        cur_ratio = float(cur_vec.get("batch_speedup", 0.0))
        if cur_ratio < floor_ratio:
            failures.append(
                f"vec backend speedup {cur_ratio:.2f}x below the "
                f"{floor_ratio:.1f}x floor (batched screening sweep vs "
                "cold serial)"
            )
        base_vscore = float(base_vec.get("normalized_vec_score", 0.0))
        cur_vscore = float(cur_vec.get("normalized_vec_score", 0.0))
        if base_vscore > 0.0:
            vfloor = base_vscore * (1.0 - tolerance)
            if cur_vscore < vfloor:
                failures.append(
                    "vec backend regression: normalized vec score "
                    f"{cur_vscore:.1f} < floor {vfloor:.1f} "
                    f"(baseline {base_vscore:.1f}, tolerance {tolerance:.0%})"
                )

    # Digest-scale vec: same two checks as the screening gate, with its own
    # (lower) speedup floor — long windows amortize setup less, and the
    # idle-skipping win there is exactly what this section regression-gates.
    base_vd = baseline.get("vec_digest", {})
    cur_vd = current.get("vec_digest", {})
    if base_vd and cur_vd:
        floor_ratio = float(base_vd.get("min_speedup", _VEC_DIGEST_MIN_SPEEDUP))
        cur_ratio = float(cur_vd.get("digest_speedup", 0.0))
        if cur_ratio < floor_ratio:
            failures.append(
                f"vec digest-scale speedup {cur_ratio:.2f}x below the "
                f"{floor_ratio:.1f}x floor (batched guarded pairs vs cold "
                "serial)"
            )
        base_vdscore = float(base_vd.get("normalized_vec_digest_score", 0.0))
        cur_vdscore = float(cur_vd.get("normalized_vec_digest_score", 0.0))
        if base_vdscore > 0.0:
            vdfloor = base_vdscore * (1.0 - tolerance)
            if cur_vdscore < vdfloor:
                failures.append(
                    "vec digest-scale regression: normalized score "
                    f"{cur_vdscore:.1f} < floor {vdfloor:.1f} "
                    f"(baseline {base_vdscore:.1f}, tolerance {tolerance:.0%})"
                )

    # Checkpoint resume: the speedup over a cold rerun has a hard floor
    # (the lease protocol's preemptible workers exist to bank this win),
    # and the checkpoint must genuinely sit at >=50% of the window — a
    # capture drifting toward cycle 0 would make the gate vacuous.
    base_res = baseline.get("resume", {})
    cur_res = current.get("resume", {})
    if base_res and cur_res:
        floor_ratio = float(base_res.get("min_speedup", _RESUME_MIN_SPEEDUP))
        cur_ratio = float(cur_res.get("resume_speedup", 0.0))
        if cur_ratio < floor_ratio:
            failures.append(
                f"resume speedup {cur_ratio:.2f}x below the "
                f"{floor_ratio:.1f}x floor (midpoint-checkpoint restore vs "
                "cold rerun)"
            )
        at = int(cur_res.get("checkpoint_cycle", 0))
        total = int(cur_res.get("total_cycles", 0))
        if total > 0 and at * 2 < total:
            failures.append(
                f"resume checkpoint at cycle {at}/{total} is below the 50% "
                "mark the gate requires"
            )
    return failures


def _build_current(skip_speed: bool, skip_sweep: bool) -> dict[str, Any]:
    current: dict[str, Any] = {"digests": collect_digests()}
    if not skip_speed:
        current["speed"] = collect_speed()
        current["ingest"] = collect_ingest()
        current["vec"] = collect_vec_speed()
        current["vec_digest"] = collect_vec_digest()
        current["resume"] = collect_resume()
    if not (skip_speed or skip_sweep):
        current["sweep"] = collect_sweep()
    return current


def _backend_parity_check() -> int:
    """The ``--backend-parity`` mode: staged vs fused vs vectorized, every
    guarded pair, results and gating stats bit-identical. Exit status."""
    parity = collect_backend_parity()
    for key, rec in sorted(parity["pairs"].items()):
        status = "ok " if rec["match"] else "FAIL"
        print(
            f"perfguard parity [{status}] {key}: cycles={rec['cycles']} "
            f"committed={rec['committed']} gated={rec['gated_cycles']}"
        )
    n = len(parity["pairs"])
    if not parity["all_match"]:
        bad = [k for k, rec in parity["pairs"].items() if not rec["match"]]
        print(
            f"perfguard FAIL: backend divergence on {len(bad)}/{n} pairs: "
            f"{', '.join(sorted(bad))}",
            file=sys.stderr,
        )
        return 1
    print(
        f"perfguard OK: staged, fused and vectorized engines "
        f"bit-identical on all {n} pairs (results and gating stats)"
    )
    return 0


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


def _obs_overhead_check(tolerance: float) -> int:
    """The ``--obs-overhead`` mode: measure, report, and gate (<tolerance,
    digests bit-identical). Returns the process exit status."""
    m = collect_obs_overhead()
    print(
        f"perfguard obs: plain {m['plain_secs']:.3f}s, instrumented "
        f"{m['instrumented_secs']:.3f}s ({m['windows_sampled']} windows of "
        f"{m['window']} cycles) -> overhead {m['overhead_frac']:+.1%}"
    )
    failures = []
    if not m["digest_match"]:
        failures.append("instrumented results differ from plain run")
    if m["overhead_frac"] > tolerance:
        failures.append(
            f"observability overhead {m['overhead_frac']:.1%} exceeds "
            f"{tolerance:.0%} budget"
        )
    for f in failures:
        print(f"perfguard FAIL: {f}", file=sys.stderr)
    if not failures:
        print(
            f"perfguard OK: observability overhead within {tolerance:.0%} "
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
        help="rewrite the baseline from this run instead of comparing",
    )
    parser.add_argument(
        "--tolerance",
        type=float,
        default=None,
        help="relative speed tolerance (default: value stored in the baseline, "
        "else 0.20)",
    )
    parser.add_argument(
        "--skip-speed",
        action="store_true",
        help="check result digests only (no timing; fully deterministic)",
    )
    parser.add_argument(
        "--skip-sweep",
        action="store_true",
        help="skip the parallel-sweep wall-clock measurement only",
    )
    parser.add_argument(
        "--backend-parity",
        action="store_true",
        help="compare the staged, fused and vectorized engines bit-for-bit "
        "on every guarded pair (results and gating stats); no timing",
    )
    parser.add_argument(
        "--json",
        nargs="?",
        const="BENCH_vec.json",
        default=None,
        metavar="PATH",
        help="also write the vec benchmark sections as a machine-readable "
        "JSON artifact (default path: BENCH_vec.json)",
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
        help="measure interval-metrics overhead only: one instrumented vs one "
        "plain simulation; fails above --obs-tolerance or on digest drift",
    )
    parser.add_argument(
        "--obs-tolerance",
        type=float,
        default=0.10,
        help="max allowed instrumented-run overhead fraction (default: 0.10)",
    )
    args = parser.parse_args(argv)

    if args.backend_parity:
        return _backend_parity_check()

    if args.obs_overhead:
        return _obs_overhead_check(args.obs_tolerance)

    if args.service_bench is not None:
        return _service_bench_check(args.service_bench, args.baseline)

    current = _build_current(args.skip_speed, args.skip_sweep)

    if args.json is not None:
        artifact = {
            "vec": current.get("vec"),
            "vec_digest": current.get("vec_digest"),
        }
        Path(args.json).write_text(
            json.dumps(artifact, indent=2, sort_keys=True) + "\n"
        )
        print(f"perfguard: vec benchmark artifact written to {args.json}")

    if args.update:
        current["tolerance"] = args.tolerance if args.tolerance is not None else 0.20
        # Hard speedup floors survive a refresh: keep the previous file's
        # (hand-tuned) values when present, else seed the module defaults.
        prior: dict[str, Any] = {}
        if args.baseline.exists():
            prior = json.loads(args.baseline.read_text())
        if "vec" in current:
            current["vec"]["min_speedup"] = prior.get("vec", {}).get(
                "min_speedup", _VEC_MIN_SPEEDUP
            )
        if "vec_digest" in current:
            current["vec_digest"]["min_speedup"] = prior.get("vec_digest", {}).get(
                "min_speedup", _VEC_DIGEST_MIN_SPEEDUP
            )
        if "resume" in current:
            current["resume"]["min_speedup"] = prior.get("resume", {}).get(
                "min_speedup", _RESUME_MIN_SPEEDUP
            )
        current["service"] = prior.get(
            "service", {"min_jobs_per_min": _SERVICE_MIN_JOBS_PER_MIN}
        )
        args.baseline.parent.mkdir(parents=True, exist_ok=True)
        args.baseline.write_text(json.dumps(current, indent=2, sort_keys=True) + "\n")
        print(f"perfguard: baseline written to {args.baseline}")
        return 0

    if not args.baseline.exists():
        print(
            f"perfguard: baseline {args.baseline} not found "
            "(run with --update to create it)",
            file=sys.stderr,
        )
        return 2

    baseline = json.loads(args.baseline.read_text())
    tolerance = (
        args.tolerance
        if args.tolerance is not None
        else float(baseline.get("tolerance", 0.20))
    )
    if args.skip_speed:
        baseline = dict(baseline)
        baseline.pop("speed", None)
        baseline.pop("sweep", None)
        baseline.pop("ingest", None)
        baseline.pop("vec", None)
        baseline.pop("vec_digest", None)
        baseline.pop("resume", None)
    if args.skip_sweep:
        baseline = dict(baseline)
        baseline.pop("sweep", None)

    failures = compare(baseline, current, tolerance)
    if failures:
        for f in failures:
            print(f"perfguard FAIL: {f}", file=sys.stderr)
        return 1

    n = len(current["digests"])
    speed = current.get("speed")
    if speed is not None:
        print(
            f"perfguard OK: {n} digests match; normalized speed "
            f"{speed['normalized_score']:.1f} vs baseline "
            f"{baseline.get('speed', {}).get('normalized_score', 0.0):.1f} "
            f"(tolerance {tolerance:.0%})"
        )
    else:
        print(f"perfguard OK: {n} digests match (speed check skipped)")
    sweep = current.get("sweep")
    if sweep is not None:
        print(
            f"perfguard OK: sweep {sweep['sweep_secs']:.2f}s "
            f"({sweep['pairs']} pairs, -j{sweep['processes']}), normalized "
            f"{sweep['normalized_sweep_secs']:.1f} vs baseline "
            f"{baseline.get('sweep', {}).get('normalized_sweep_secs', 0.0):.1f}"
        )
    ing = current.get("ingest")
    if ing is not None:
        print(
            f"perfguard OK: ingest round-trip {ing['ingest_secs']:.3f}s "
            f"({ing['records']} records), normalized "
            f"{ing['normalized_ingest_secs']:.2f} vs baseline "
            f"{baseline.get('ingest', {}).get('normalized_ingest_secs', 0.0):.2f}"
        )
    vec = current.get("vec")
    if vec is not None:
        print(
            f"perfguard OK: vec backend {vec['batch_speedup']:.2f}x over "
            f"cold serial ({vec['lanes']} lanes, batch {vec['batch_secs']:.2f}s), "
            f"{vec['vec_cycles_per_sec']:,.0f} cycles/s"
        )
    vd = current.get("vec_digest")
    if vd is not None:
        print(
            f"perfguard OK: vec digest-scale {vd['digest_speedup']:.2f}x over "
            f"cold serial ({vd['lanes']} lanes, "
            f"{vd['idle_cycles_skipped']} idle cycles skipped), "
            f"{vd['vec_digest_cycles_per_sec']:,.0f} cycles/s"
        )
    res = current.get("resume")
    if res is not None:
        print(
            f"perfguard OK: resume {res['resume_speedup']:.2f}x over cold "
            f"rerun ({res['pair']}, checkpoint at cycle "
            f"{res['checkpoint_cycle']}/{res['total_cycles']}, "
            f"{res['resume_secs']:.2f}s vs {res['rerun_secs']:.2f}s)"
        )
    return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
