"""Sweep-level observability: a run manifest of per-pair timing, retry and
cache-hit counters.

``experiments.parallel`` fans a sweep's (workload, policy) pairs out over a
process pool with widest-first dispatch, worker retries and pool
restarts — and until now the only record of what happened was the progress
lines scrolling past. A :class:`RunManifest` captures the same facts as
data: one :class:`PairRecord` per completed pair (who ran it, how long it
took, how many retries it needed, and whether it was served from the
in-memory cache, loaded from the disk cache, or actually simulated), plus
sweep-level counters such as pool restarts. ``dwarn-sim report
--manifest out.json`` writes it next to the report.

This module is pure data — it imports nothing from ``experiments`` (the
dependency points the other way: ``experiments.parallel`` accepts an
optional manifest and records into it).
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field
from pathlib import Path

__all__ = ["PAIR_SOURCES", "PairRecord", "RunManifest"]

#: How a pair's result was obtained. ``memory``/``disk`` are the
#: ExperimentRunner's two cache layers, ``simulated`` is an actual run,
#: ``store`` is the service daemon's persistent result store
#: (``repro.service``), which fronts all three for repeat submissions, and
#: ``worker`` is an execution leased to (and uploaded by) a distributed
#: worker process (``repro.service.worker``).
PAIR_SOURCES = ("memory", "disk", "simulated", "store", "worker")


@dataclass
class PairRecord:
    """One (workload, policy) pair's outcome within a sweep."""

    sweep: str            # sweep label, e.g. "baseline" or "seeds"
    workload: str
    policy: str
    source: str           # one of PAIR_SOURCES
    secs: float           # wall-clock to obtain the result
    retries: int = 0      # worker-death retries this pair needed
    seed: int | None = None   # set for seed-sweep pairs


@dataclass
class RunManifest:
    """Accumulates sweep observability across one report/prefetch run."""

    label: str = "sweep"
    pairs: list[PairRecord] = field(default_factory=list)
    pool_restarts: int = 0
    extras: dict = field(default_factory=dict)

    def record_pair(
        self,
        sweep: str,
        workload: str,
        policy: str,
        source: str,
        secs: float,
        retries: int = 0,
        seed: int | None = None,
    ) -> None:
        """Append one pair outcome (``source`` must be in PAIR_SOURCES)."""
        if source not in PAIR_SOURCES:
            raise ValueError(f"source {source!r} not in {PAIR_SOURCES}")
        self.pairs.append(
            PairRecord(sweep, workload, policy, source, secs, retries, seed)
        )

    # -- summaries -------------------------------------------------------

    def latency_percentiles(
        self,
        qs: tuple[float, ...] = (50.0, 95.0),
        sweep: str | None = None,
    ) -> dict[str, float]:
        """Percentiles of per-pair seconds, e.g. ``{"p50": ..., "p95": ...}``.

        Covers every recorded pair regardless of source (cache hits report
        their near-zero serve time, which is the honest job-latency
        distribution a service client experiences). Empty manifests report
        zeros. The service's ``/metrics`` endpoint exposes these directly.

        ``sweep`` restricts the sample to pairs recorded under that sweep
        label — the load-test harness tags each request's record with the
        serving shard's name, so per-shard latency splits fall out of one
        manifest (``BENCH_service.json`` reports them alongside the fleet
        aggregate).
        """
        from repro.utils.mathx import percentile

        secs = [p.secs for p in self.pairs if sweep is None or p.sweep == sweep]
        return {f"p{q:g}": round(percentile(secs, q), 6) for q in qs}

    def summary(self) -> dict:
        """Roll-up: counts per source, total/max pair seconds, retries."""
        by_source = {s: 0 for s in PAIR_SOURCES}
        total_secs = 0.0
        slowest: PairRecord | None = None
        retries = 0
        for p in self.pairs:
            by_source[p.source] += 1
            total_secs += p.secs
            retries += p.retries
            if slowest is None or p.secs > slowest.secs:
                slowest = p
        return {
            "label": self.label,
            "pairs": len(self.pairs),
            "by_source": by_source,
            "total_secs": round(total_secs, 3),
            "retries": retries,
            "pool_restarts": self.pool_restarts,
            "slowest": (
                f"{slowest.workload}/{slowest.policy} ({slowest.secs:.1f}s)"
                if slowest is not None
                else None
            ),
        }

    def render(self) -> str:
        """Human-readable one-paragraph summary (for CLI output)."""
        s = self.summary()
        src = s["by_source"]
        lines = [
            f"[manifest {s['label']}] {s['pairs']} pairs: "
            f"{src['simulated']} simulated, {src['disk']} from disk cache, "
            f"{src['memory']} from memory",
            f"  {s['total_secs']:.1f}s total pair time, "
            f"{s['retries']} retries, {s['pool_restarts']} pool restarts",
        ]
        if s["slowest"]:
            lines.append(f"  slowest: {s['slowest']}")
        return "\n".join(lines)

    def merge(self, other: "RunManifest") -> None:
        """Fold another manifest's records into this one.

        The service daemon runs each batch under its own manifest (so batch
        failures cannot corrupt service-wide counters mid-flight) and merges
        completed batches into the long-lived manifest ``/metrics`` reads.
        """
        self.pairs.extend(other.pairs)
        self.pool_restarts += other.pool_restarts

    # -- export ----------------------------------------------------------

    def to_dict(self) -> dict:
        """Plain-dict form: summary + full per-pair records."""
        return {
            "summary": self.summary(),
            "pairs": [asdict(p) for p in self.pairs],
            "extras": self.extras,
        }

    def write_json(self, path: str | Path) -> Path:
        """Write the manifest (summary + per-pair records) as JSON."""
        out = Path(path)
        out.parent.mkdir(parents=True, exist_ok=True)
        out.write_text(json.dumps(self.to_dict(), indent=2) + "\n")
        return out
