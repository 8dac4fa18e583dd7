"""Run-control configuration: how long to simulate and how to measure.

The paper simulates 300M-instruction SimPoint trace segments. A pure-Python
cycle-level simulator cannot do that, so runs are controlled by an explicit
warm-up window (caches/predictors train, no stats) followed by a measurement
window, both in cycles. This gives every (workload, policy) pair an identical
measurement interval — the property the paper's throughput comparison relies
on — with bounded runtime. See DESIGN.md §2/§6 for the substitution argument.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["SimulationConfig"]


@dataclass(frozen=True)
class SimulationConfig:
    """Measurement windows, trace sizing and determinism knobs."""

    #: Cycles simulated before statistics start (cache/predictor warm-up).
    warmup_cycles: int = 5_000
    #: Cycles over which IPC and all other statistics are measured.
    measure_cycles: int = 40_000
    #: Early stop: end measurement once any thread commits this many
    #: instructions inside the window (0 = disabled). The default stops fast
    #: threads before they exhaust their trace: a wrapped trace replays its
    #: cold-tier addresses, which would make "cold" loads hit and deflate the
    #: calibrated L2 miss rates. warmup (<=~21k instrs at IPC 4) + 40k stays
    #: inside the 80k-entry default trace.
    commit_limit: int = 40_000
    #: Static trace length per thread; traces wrap around when exhausted
    #: (see commit_limit for why full-scale runs should not reach the wrap).
    trace_length: int = 80_000
    #: Master seed; all component seeds derive from it (utils.rng.derive_seed).
    seed: int = 12345
    #: Pre-install each thread's steady-state-resident lines (hot/stack tiers
    #: in L1+L2, warm tier in L2) at simulator construction. The paper's 300M
    #: -instruction segments reach steady state trivially; scaled-down runs
    #: would otherwise measure first-touch transients that distort the
    #: Table 2(a)-calibrated miss rates.
    prewarm_caches: bool = True

    def validate(self) -> None:
        """Check window/trace sizing; raises ValueError on bad parameters."""
        if self.warmup_cycles < 0:
            raise ValueError("warmup_cycles must be non-negative")
        if self.measure_cycles <= 0:
            raise ValueError("measure_cycles must be positive")
        if self.commit_limit < 0:
            raise ValueError("commit_limit must be non-negative")
        if self.trace_length <= 0:
            raise ValueError("trace_length must be positive")

    @property
    def total_cycles(self) -> int:
        """Upper bound on simulated cycles: warm-up plus measurement."""
        return self.warmup_cycles + self.measure_cycles

    def scaled(self, factor: float) -> "SimulationConfig":
        """A proportionally shorter/longer run (used by tests and CI)."""
        return SimulationConfig(
            warmup_cycles=max(0, int(self.warmup_cycles * factor)),
            measure_cycles=max(1, int(self.measure_cycles * factor)),
            commit_limit=self.commit_limit,
            trace_length=max(1024, int(self.trace_length * factor)),
            seed=self.seed,
            prewarm_caches=self.prewarm_caches,
        )
