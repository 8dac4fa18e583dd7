"""Metric names, units and the helpers every workload shares.

``END_TO_END`` and ``PER_LAYER`` must list exactly the names in
``BENCHMARK.json``; ``run.py`` refuses to report when they drift apart.
"""

from __future__ import annotations

import hashlib
import json
import resource
import statistics
from dataclasses import dataclass, field
from typing import Any, Iterable

#: (name, unit). Reported by every workload with ``--trace 0``.
END_TO_END = (
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("sim_kips", "kinstr/s"),
    ("pairs_per_s", "1/s"),
)

#: (name, unit). Reported by every workload with ``--trace 1``; a layer the
#: workload never enters reads 0.
PER_LAYER = (
    ("trace.gen_s", "s"),
    ("trace.gen_krec_per_s", "krec/s"),
    ("trace.load_s", "s"),
    ("trace.load_hit_ratio", "ratio"),
    ("trace.store_s", "s"),
    ("workloads.build_s", "s"),
    ("core.ctor_s", "s"),
    ("core.step_s", "s"),
    ("core.ns_per_cycle", "ns"),
    ("core.ns_per_instr", "ns"),
    ("core.cycles", "count"),
    ("experiments.sims", "count"),
    ("vec.build_s", "s"),
    ("vec.clone_s", "s"),
    ("vec.step_s", "s"),
    ("vec.idle_skip_frac", "ratio"),
    ("vec.lanes", "count"),
    ("experiments.store_s", "s"),
    ("experiments.analysis_s", "s"),
    ("columnar.checkpoint_ms", "ms"),
    ("columnar.checkpoint_kb", "KB"),
    ("router.forward_ms", "ms"),
    ("server.submit_ms", "ms"),
    ("server.hit_ratio", "ratio"),
    ("server.queue_wait_ms", "ms"),
    ("server.exec_ms", "ms"),
    ("worker.lease_wait_ms", "ms"),
    ("worker.exec_ms", "ms"),
    ("worker.lease_ms", "ms"),
    ("worker.empty_poll_ratio", "ratio"),
    ("worker.upload_ms", "ms"),
    ("worker.checkpoint_put_ms", "ms"),
    ("client.notify_ms", "ms"),
    ("service.jobs_per_s", "1/s"),
    ("service.hit_p50_ms", "ms"),
    ("service.hit_p95_ms", "ms"),
    ("service.local_p50_ms", "ms"),
    ("service.local_p95_ms", "ms"),
    ("service.leased_p50_ms", "ms"),
    ("service.leased_p95_ms", "ms"),
    ("mem.l1d_miss_rate", "ratio"),
    ("mem.l2_miss_rate", "ratio"),
    ("branch.mispredict_rate", "ratio"),
    ("core.useful_fetch_ratio", "ratio"),
    ("policies.flush_frac", "ratio"),
    ("accuracy.paper_checks_pass", "count"),
    ("trace.coverage", "ratio"),
    ("trace.overhead_frac", "ratio"),
)

#: Set-up is repeated this many times per run; ``setup_s`` is the median.
SETUP_REPS = 3


@dataclass
class Outcome:
    """What one workload run hands back to ``run.py``."""

    attempted: int
    failed: int
    #: Metric name -> value: the end-to-end set untraced, per-layer traced.
    metrics: dict[str, float]
    #: Human-readable rows: (name, value, unit, sample count).
    rows: list[tuple[str, float, str, int]] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)


def peak_rss_mb(children: bool = False) -> float:
    """Peak resident set of this process (or of its largest reaped child)."""
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


def median(values: Iterable[float]) -> float:
    """Median of a non-empty sample."""
    return statistics.median(list(values))


def result_digest(res: Any) -> str:
    """Digest of a result's exact outputs: cycles, per-thread commits, IPC."""
    blob = json.dumps([res.cycles, list(res.committed), list(res.ipc)])
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


def model_metrics(results: Iterable[Any]) -> dict[str, float]:
    """Simulated-machine ratios pooled over many ``SimResult``s."""
    loads = l1 = l2 = mis = br = commit = fetched = flushed = 0
    for r in results:
        loads += sum(r.loads)
        l1 += sum(r.load_l1_misses)
        l2 += sum(r.load_l2_misses)
        mis += sum(r.mispredicts)
        br += sum(r.branches_resolved)
        commit += sum(r.committed)
        fetched += sum(r.fetched)
        flushed += sum(r.squashed_flush)
    return {
        "mem.l1d_miss_rate": l1 / loads if loads else 0.0,
        "mem.l2_miss_rate": l2 / loads if loads else 0.0,
        "branch.mispredict_rate": mis / br if br else 0.0,
        "core.useful_fetch_ratio": commit / fetched if fetched else 0.0,
        "policies.flush_frac": flushed / fetched if fetched else 0.0,
    }


def layer_defaults() -> dict[str, float]:
    """Every per-layer metric at 0 (layers a workload never enters)."""
    return {name: 0.0 for name, _ in PER_LAYER}
