"""ExperimentRunner: cached simulation driver for the experiment modules.

Results are cached in memory and (optionally) as JSON on disk, keyed by
(machine, workload, policy, simulation parameters), so sweeping six policies
over twelve workloads pays each simulation exactly once — including across
processes when a cache directory is given.
"""

from __future__ import annotations

import dataclasses
import json
from pathlib import Path
from typing import Iterable

from repro.config import MachineConfig, SimulationConfig, get_preset
from repro.core import Simulator, SimResult, make_policy
from repro.metrics.fairness import FairnessReport
from repro.trace.artifact import trace_cache_for
from repro.utils.rng import stable_hash64
from repro.workloads import WorkloadSpec, build_programs

__all__ = ["ExperimentRunner", "ExperimentResult", "MultiSeedResult", "CACHE_VERSION"]

#: Bump whenever a simulator behaviour change alters results without any
#: config-visible difference (the cache key folds this in, so stale entries
#: from older library versions can never be returned).
CACHE_VERSION = 4


@dataclasses.dataclass
class MultiSeedResult:
    """Aggregate of the same (workload, policy) run under several seeds."""

    results: list[SimResult]

    @property
    def throughputs(self) -> list[float]:
        return [r.throughput for r in self.results]

    @property
    def mean_throughput(self) -> float:
        t = self.throughputs
        return sum(t) / len(t)

    @property
    def throughput_stdev(self) -> float:
        t = self.throughputs
        if len(t) < 2:
            return 0.0
        mu = self.mean_throughput
        return (sum((x - mu) ** 2 for x in t) / (len(t) - 1)) ** 0.5

    def mean_ipc(self) -> list[float]:
        """Per-thread IPC averaged over the seeds."""
        n = self.results[0].num_threads
        k = len(self.results)
        return [sum(r.ipc[t] for r in self.results) / k for t in range(n)]

    def __len__(self) -> int:
        return len(self.results)


@dataclasses.dataclass
class ExperimentResult:
    """Output of one experiment module: a titled table plus checks.

    ``checks`` maps a qualitative-claim description to a bool — the
    reproduction bands recorded in EXPERIMENTS.md.
    """

    name: str
    title: str
    headers: list[str]
    rows: list[list[object]]
    notes: list[str] = dataclasses.field(default_factory=list)
    checks: dict[str, bool] = dataclasses.field(default_factory=dict)
    extra: dict = dataclasses.field(default_factory=dict)

    def to_text(self) -> str:
        """Plain-text table + notes + check results (CLI output)."""
        from repro.metrics.reporting import format_table

        parts = [format_table(self.headers, self.rows, title=self.title)]
        if self.notes:
            parts.append("")
            parts.extend(f"  note: {n}" for n in self.notes)
        if self.checks:
            parts.append("")
            for desc, ok in self.checks.items():
                parts.append(f"  [{'PASS' if ok else 'MISS'}] {desc}")
        return "\n".join(parts)

    def to_markdown(self) -> str:
        """Markdown section for EXPERIMENTS.md."""
        from repro.metrics.reporting import format_table

        parts = [f"### {self.title}", ""]
        parts.append(format_table(self.headers, self.rows, markdown=True))
        if self.notes:
            parts.append("")
            parts.extend(f"- {n}" for n in self.notes)
        if self.checks:
            parts.append("")
            parts.append("| reproduction check | result |")
            parts.append("|---|---|")
            for desc, ok in self.checks.items():
                parts.append(f"| {desc} | {'**pass**' if ok else 'miss'} |")
        return "\n".join(parts)

    @property
    def all_checks_pass(self) -> bool:
        return all(self.checks.values())


class ExperimentRunner:
    """Runs (workload, policy) simulations with result caching."""

    def __init__(
        self,
        machine: MachineConfig | str = "baseline",
        simcfg: SimulationConfig | None = None,
        cache_dir: str | Path | None = None,
        verbose: bool = False,
        trace_cache_dir: str | Path | None = None,
    ) -> None:
        self.machine = get_preset(machine) if isinstance(machine, str) else machine
        self.simcfg = simcfg or SimulationConfig()
        self._mem_cache: dict[str, SimResult] = {}
        self.cache_dir = Path(cache_dir) if cache_dir else None
        if self.cache_dir:
            self.cache_dir.mkdir(parents=True, exist_ok=True)
        #: Persistent trace cache backing ``_simulate`` (and, via
        #: ``prefetch``, every worker process): traces are much costlier to
        #: walk than to load, and are shared bit-identically by every policy
        #: over one workload. The process's one object for the directory,
        #: so the sweeps' loads and stores count here too.
        self.trace_cache = trace_cache_for(trace_cache_dir)
        self.verbose = verbose
        self.simulations_run = 0

    @property
    def trace_cache_dir(self) -> str | None:
        """Directory of the persistent trace cache (``None`` = disabled);
        the picklable handle worker processes receive."""
        return str(self.trace_cache.directory) if self.trace_cache else None

    # ------------------------------------------------------------------

    def with_machine(self, machine: MachineConfig | str) -> "ExperimentRunner":
        """A runner for a different architecture sharing both caches (keys
        include the machine, so sharing is collision-free)."""
        other = ExperimentRunner(
            machine,
            self.simcfg,
            self.cache_dir,
            self.verbose,
            trace_cache_dir=self.trace_cache_dir,
        )
        other._mem_cache = self._mem_cache
        return other

    def with_seed(self, seed: int) -> "ExperimentRunner":
        """A runner for a different trace seed sharing both caches (keys
        include the seed, so sharing is collision-free)."""
        other = self.with_machine(self.machine)
        other.simcfg = dataclasses.replace(self.simcfg, seed=seed)
        return other

    def _key(self, workload: str, policy: str) -> str:
        sim = self.simcfg
        h = stable_hash64(
            CACHE_VERSION,
            self.machine.name,
            repr(self.machine),
            workload,
            policy,
            sim.warmup_cycles,
            sim.measure_cycles,
            0,  # the removed max_cycles field's slot, so every cache key stays the same
            sim.commit_limit,
            sim.trace_length,
            sim.seed,
            int(sim.prewarm_caches),
        )
        return f"{self.machine.name}-{workload}-{policy}-{h:016x}"

    # ------------------------------------------------------------------

    def run(self, workload: str | WorkloadSpec, policy: str) -> SimResult:
        """Simulate one (workload, policy) pair; cached."""
        wl_name = workload if isinstance(workload, str) else workload.name
        res = self.cached_result(wl_name, policy)
        if res is None:
            res = self._simulate(workload, policy)
            self.store_result(wl_name, policy, res)
        return res

    def cached_result(self, workload: str, policy: str) -> SimResult | None:
        """The cached result for a pair, or ``None`` — never simulates.

        Checks the memory cache, then the disk cache (installing a disk hit
        into memory so the next probe is free). This is the public dedup
        probe: ``prefetch`` uses it to skip already-paid pairs, and the
        service daemon uses it to answer a job from the caches before
        queueing any execution.
        """
        key = self._key(workload, policy)
        res = self._mem_cache.get(key)
        if res is not None:
            return res
        res = self._load_disk(key)
        if res is not None:
            self._mem_cache[key] = res
        return res

    def store_result(self, workload: str, policy: str, res: SimResult) -> None:
        """Install a result into both caches (memory always, disk if on)."""
        key = self._key(workload, policy)
        self._mem_cache[key] = res
        self._store_disk(key, res)

    def run_single(self, bench: str, policy: str = "icount") -> SimResult:
        """Simulate one benchmark running alone (Table 2(a) / baselines)."""
        return self.run(bench, policy)

    def alone_ipc(self, bench: str) -> float:
        """Single-thread reference IPC (ICOUNT, thread alone) for Hmean."""
        return self.run_single(bench).ipc[0]

    def alone_ipc_map(self, benchmarks: Iterable[str]) -> dict[str, float]:
        """Single-thread reference IPCs for a set of benchmarks."""
        return {b: self.alone_ipc(b) for b in set(benchmarks)}

    def fairness(self, workload: str, policy: str) -> FairnessReport:
        """FairnessReport (relative IPCs, Hmean) for one run."""
        res = self.run(workload, policy)
        alone = self.alone_ipc_map(res.benchmarks)
        return FairnessReport.from_result(res, alone)

    def hmean(self, workload: str, policy: str) -> float:
        """Hmean of relative IPCs for one (workload, policy) run."""
        return self.fairness(workload, policy).hmean

    # -- instrumented runs ------------------------------------------------

    def run_instrumented(
        self, workload: str | WorkloadSpec, policy: str, obs
    ) -> SimResult:
        """Simulate one pair with an observability attachment; never cached.

        ``obs`` is a ``repro.obs.ObservabilityHub`` (or bare
        ``IntervalCollector``) and, like a fetch policy, is single-use —
        after the call it holds the run's interval records / event trace /
        decisions. Results bypass both caches in *both* directions: a cached
        ``SimResult`` has no telemetry to give, and an instrumented result
        is bit-identical to an uninstrumented one, so storing it would only
        duplicate work the plain :meth:`run` path can fill in later.
        """
        programs = build_programs(workload, self.simcfg, trace_cache=self.trace_cache)
        if self.verbose:  # pragma: no cover
            wl = workload if isinstance(workload, str) else workload.name
            print(f"[sim+obs] {self.machine.name} {wl} {policy}", flush=True)
        sim = Simulator(self.machine, programs, make_policy(policy), self.simcfg)
        sim.obs = obs
        self.simulations_run += 1
        return sim.run()

    # -- multi-seed robustness -------------------------------------------

    def run_multi(
        self, workload: str | WorkloadSpec, policy: str, seeds: Iterable[int]
    ) -> "MultiSeedResult":
        """Run the same (workload, policy) under several trace seeds.

        The paper runs each point once on fixed traces; with synthetic
        traces, seed variation quantifies how much of an observed policy gap
        is substance versus trace luck. Results are cached per seed.
        """
        results = []
        for seed in seeds:
            sub = self.with_seed(seed)
            results.append(sub.run(workload, policy))
            self.simulations_run += sub.simulations_run
        return MultiSeedResult(results)

    # ------------------------------------------------------------------

    def _simulate(self, workload: str | WorkloadSpec, policy: str) -> SimResult:
        programs = build_programs(workload, self.simcfg, trace_cache=self.trace_cache)
        if self.verbose:  # pragma: no cover
            wl = workload if isinstance(workload, str) else workload.name
            print(f"[sim] {self.machine.name} {wl} {policy}", flush=True)
        sim = Simulator(self.machine, programs, make_policy(policy), self.simcfg)
        self.simulations_run += 1
        return sim.run()

    # -- disk cache -----------------------------------------------------

    def _disk_path(self, key: str) -> Path:
        """On-disk location for ``key``.

        The filename folds in both ``CACHE_VERSION`` and the installed
        ``repro`` version *explicitly* — not only through the opaque key
        hash — so a library upgrade (which can change results without any
        config-visible difference) can never resolve to a stale file, and
        stale entries are identifiable (and sweepable) by filename.
        """
        assert self.cache_dir is not None
        import repro

        return self.cache_dir / f"{key}-c{CACHE_VERSION}-r{repro.__version__}.json"

    def _load_disk(self, key: str) -> SimResult | None:
        if not self.cache_dir:
            return None
        path = self._disk_path(key)
        if not path.exists():
            return None
        try:
            data = json.loads(path.read_text())
            data["benchmarks"] = tuple(data["benchmarks"])
            return SimResult(**data)
        except (UnicodeDecodeError, json.JSONDecodeError, TypeError, KeyError):  # corrupt
            path.unlink(missing_ok=True)
            return None

    def _store_disk(self, key: str, res: SimResult) -> None:
        if not self.cache_dir:
            return
        path = self._disk_path(key)
        payload = dataclasses.asdict(res)
        payload["benchmarks"] = list(payload["benchmarks"])
        path.write_text(json.dumps(payload))
