"""Calibration tooling: verify (and re-fit) trace profiles against Table 2(a).

The shipped profiles were tuned with exactly this machinery. Two levels:

- :func:`replay_miss_rates` — fast cache-only replay of a trace's memory
  stream through a fresh hierarchy (no pipeline): how the address-tier model
  behaves in isolation;
- :func:`calibrate_profile` — one fixed-point correction step for the tier
  probabilities: measure, compare with the profile's targets, and return an
  adjusted profile. The tier construction is analytic (cold always misses
  both levels, warm misses L1 and hits L2 by design), so one or two steps
  converge; the function mainly exists to re-fit after changing machine
  geometry or tier construction.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

from repro.config.memory import MemoryConfig
from repro.isa.opcodes import OpClass
from repro.mem.hierarchy import MemoryHierarchy
from repro.trace.profiles import BenchmarkProfile
from repro.trace.synthetic import SyntheticTrace, generate_trace

__all__ = ["ReplayResult", "replay_miss_rates", "calibrate_profile", "calibration_report"]

_OP_LOAD = int(OpClass.LOAD)
_OP_STORE = int(OpClass.STORE)


@dataclass(frozen=True)
class ReplayResult:
    """Measured cache behaviour of one trace replay."""

    loads: int
    l1_missrate: float
    l2_missrate: float

    @property
    def l1_to_l2_ratio(self) -> float:
        return self.l2_missrate / self.l1_missrate if self.l1_missrate else 0.0


def replay_miss_rates(
    trace: SyntheticTrace,
    mem: MemoryConfig | None = None,
    warmup_fraction: float = 0.25,
    cycles_per_op: int = 3,
    prewarm: bool = True,
) -> ReplayResult:
    """Replay a trace's loads/stores through a fresh hierarchy.

    ``warmup_fraction`` of the trace primes the caches without counting;
    ``cycles_per_op`` spaces accesses in time so MSHR merging behaves like a
    real run's. With ``prewarm`` the steady-state-resident lines are
    installed first, mirroring the simulator.
    """
    mem = mem or MemoryConfig()
    hier = MemoryHierarchy(mem, 1)
    if prewarm:
        shift = hier.line_shift
        for addr in trace.aspace.l1_resident_lines():
            hier.dcache.fill(addr >> shift)
            hier.l2.fill(addr >> shift)
        for addr in trace.aspace.l2_resident_lines():
            hier.l2.fill(addr >> shift)

    warm_end = int(len(trace) * warmup_fraction)
    snap = None
    cycle = 0
    ops, addrs = trace.cols[0], trace.cols[5]
    for i, op in enumerate(ops):
        if i == warm_end:
            snap = (hier.loads[0], hier.load_l1_misses[0], hier.load_l2_misses[0])
        if op == _OP_LOAD:
            hier.load_access(0, addrs[i], cycle)
        elif op == _OP_STORE:
            hier.store_access(addrs[i], cycle)
        cycle += cycles_per_op

    base = snap or (0, 0, 0)
    loads = hier.loads[0] - base[0]
    l1 = hier.load_l1_misses[0] - base[1]
    l2 = hier.load_l2_misses[0] - base[2]
    if loads == 0:
        return ReplayResult(0, 0.0, 0.0)
    return ReplayResult(loads, l1 / loads, l2 / loads)


def calibrate_profile(
    profile: BenchmarkProfile,
    mem: MemoryConfig | None = None,
    length: int = 60_000,
    seed: int = 12345,
    damping: float = 0.7,
) -> tuple[BenchmarkProfile, ReplayResult]:
    """One correction step: adjust the profile's nominal miss-rate targets so
    the *measured* rates land on the original targets.

    Returns ``(adjusted_profile, measured_before_adjustment)``. Iterate to
    convergence if needed::

        for _ in range(3):
            profile, measured = calibrate_profile(profile)
    """
    trace = generate_trace(profile, length, base=1 << 30, seed=seed)
    measured = replay_miss_rates(trace, mem)

    # Error relative to the *declared* targets; shift the generator's tier
    # draws by the (damped) error. Clamp into valid profile space.
    target_l1 = profile.l1_missrate
    target_l2 = profile.l2_missrate
    new_l2 = max(0.0, target_l2 - damping * (measured.l2_missrate - target_l2))
    new_l1 = max(new_l2, target_l1 - damping * (measured.l1_missrate - target_l1))
    adjusted = dataclasses.replace(
        profile, l1_missrate=min(0.99, new_l1), l2_missrate=min(0.99, new_l2)
    )
    return adjusted, measured


def calibration_report(
    profiles: dict[str, BenchmarkProfile],
    mem: MemoryConfig | None = None,
    length: int = 60_000,
    seed: int = 12345,
) -> list[list[object]]:
    """Measured-vs-target rows for a set of profiles (used by the example
    scripts and the Table 2(a) pre-checks)."""
    rows: list[list[object]] = []
    for name, profile in profiles.items():
        trace = generate_trace(profile, length, base=1 << 30, seed=seed)
        measured = replay_miss_rates(trace, mem)
        rows.append([
            name,
            round(100 * profile.l1_missrate, 2),
            round(100 * measured.l1_missrate, 2),
            round(100 * profile.l2_missrate, 2),
            round(100 * measured.l2_missrate, 2),
        ])
    return rows
