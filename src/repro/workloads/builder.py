"""Build per-thread programs (trace + wrong-path supplier) for a workload.

Each hardware context gets a disjoint 1 GiB address-space slice (the region
offsets in :mod:`repro.trace.address_space` stay below 1 GiB), and replicated
benchmarks get distinct instance numbers so their walks and data regions are
decorrelated — the reproduction of the paper's 1M-instruction shift.
"""

from __future__ import annotations

from dataclasses import dataclass

from pathlib import Path

from repro.config.simulation import SimulationConfig
from repro.trace import ingest
from repro.trace.artifact import TraceArtifactCache, trace_cache_installed
from repro.trace.profiles import PROFILES, BenchmarkProfile, get_profile
from repro.trace.synthetic import SyntheticTrace, generate_trace
from repro.trace.wrongpath import WrongPathSupplier
from repro.utils.rng import derive_seed
from repro.workloads.specint import WORKLOADS, WorkloadSpec

__all__ = [
    "ThreadProgram",
    "build_ingested_program",
    "build_programs",
    "build_single",
]

#: Address-space slice per hardware context.
_THREAD_BASE_STRIDE = 1 << 30


@dataclass(frozen=True)
class ThreadProgram:
    """Everything the simulator needs to run one hardware context."""

    profile: BenchmarkProfile
    trace: SyntheticTrace
    wp_supplier: WrongPathSupplier


def _make_program(
    bench: str, tid: int, instance: int, simcfg: SimulationConfig
) -> ThreadProgram:
    profile = get_profile(bench)
    base = tid * _THREAD_BASE_STRIDE
    trace = generate_trace(
        profile,
        simcfg.trace_length,
        base,
        simcfg.seed,
        instance=instance,
    )
    wp_seed = derive_seed(simcfg.seed, "wrongpath", bench, instance)
    return ThreadProgram(profile, trace, WrongPathSupplier(profile, base, wp_seed))


def build_programs(
    spec: WorkloadSpec | str,
    simcfg: SimulationConfig,
    trace_cache: TraceArtifactCache | None = None,
) -> list[ThreadProgram]:
    """Thread programs for a workload (slot order preserved).

    ``spec`` is a :class:`WorkloadSpec` or a name: a Table 2(b) workload
    (``"4-MIX"``), else a lone benchmark or an ingested trace, which run as
    :func:`build_single` builds them. Any other name raises a KeyError
    listing all three kinds.

    ``trace_cache`` optionally backs trace generation with the persistent
    artifact cache for the duration of the build: the six-policies-over-one-
    workload sweep then pays each trace walk once per machine *ever*, not
    once per process. Traces are keyed by (bench, length, base, seed,
    instance), all of which this builder determines, so cached replay is
    bit-identical to regeneration.
    """
    if isinstance(spec, str):
        if spec not in WORKLOADS:
            if spec not in PROFILES and ingest.find_ingested(spec) is None:
                raise KeyError(
                    f"unknown workload {spec!r}; valid: {sorted(WORKLOADS)}, a "
                    f"benchmark from {sorted(PROFILES)}, or an ingested trace name "
                    f"(see `dwarn-sim ingest`)"
                )
            return build_single(spec, simcfg, trace_cache)
        spec = WORKLOADS[spec]
    instance_count: dict[str, int] = {}
    programs = []
    with trace_cache_installed(trace_cache):
        for tid, bench in enumerate(spec.benchmarks):
            instance = instance_count.get(bench, 0)
            instance_count[bench] = instance + 1
            programs.append(_make_program(bench, tid, instance, simcfg))
    return programs


def build_ingested_program(
    name: str, path: str | Path, tid: int, simcfg: SimulationConfig
) -> ThreadProgram:
    """One thread program materialized from an ingested trace file.

    The trace's length comes from the file (``simcfg.trace_length`` does
    not apply — a recorded trace is as long as it is); everything else
    (address-space slice per tid, wrong-path supply derived from the run
    seed) matches the synthetic path, so an ingested workload is a drop-in
    thread anywhere a synthetic one is.
    """
    tf = ingest.read_trace_file(path)
    base = tid * _THREAD_BASE_STRIDE
    trace = ingest.materialize(tf, base, simcfg.seed)
    # Seed wrong-path supply from the *profile* (not the workload name):
    # wrong-path instructions are synthesized from profile statistics
    # either way, and this makes an exported-then-reingested benchmark
    # bit-identical to its native synthetic twin — the round-trip gate.
    wp_seed = derive_seed(simcfg.seed, "wrongpath", trace.profile.name, 0)
    return ThreadProgram(
        trace.profile, trace, WrongPathSupplier(trace.profile, base, wp_seed)
    )


def build_single(
    bench: str,
    simcfg: SimulationConfig,
    trace_cache: TraceArtifactCache | None = None,
) -> list[ThreadProgram]:
    """A one-thread 'workload': the single-thread reference runs used for
    Table 2(a) and for the relative-IPC denominators (Hmean).

    Ingested workload names (see :mod:`repro.trace.ingest`) resolve here
    too — native benchmark names always win, so an ingested file can never
    shadow a profile — which is the single hook that makes ingested
    workloads runnable through ``run``/``run_pairs``/the vec backend/the
    service without any of them knowing about trace files.
    """
    if bench not in PROFILES:
        path = ingest.find_ingested(bench)
        if path is not None:
            return [build_ingested_program(bench, path, 0, simcfg)]
    with trace_cache_installed(trace_cache):
        return [_make_program(bench, 0, 0, simcfg)]
