"""Terminal strips of a run's dynamics, drawn from its interval records.

The paper's phenomena are *dynamics* — queues clogging when a load misses,
threads starving while another holds the registers — which aggregate IPCs
hide. :class:`repro.obs.IntervalCollector` records per-thread IPC, ICOUNT,
the in-flight-miss counters and shared resource occupancy at every window
edge; :func:`interval_strips` renders those records as ASCII intensity
strips.

Example::

    sim.obs = collector = IntervalCollector(window=200)
    sim.run()
    print(interval_strips(collector.records, ("ipc", "dmiss", "ls_q_free")))
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Sequence

if TYPE_CHECKING:  # pragma: no cover
    from repro.obs.interval import IntervalRecord

__all__ = ["interval_strips", "sparkline"]

_SPARK_CHARS = " .:-=+*#%@"

#: Free entries of one shared issue queue, by strip name: ``q_free`` index.
_QUEUES = {"int_q_free": 0, "fp_q_free": 1, "ls_q_free": 2}


def sparkline(values: list[float], width: int = 60) -> str:
    """Render a series as a fixed-width ASCII intensity strip."""
    if not values:
        return ""
    if len(values) > width:
        # Downsample by averaging buckets.
        bucket = len(values) / width
        values = [
            sum(values[int(i * bucket):max(int(i * bucket) + 1, int((i + 1) * bucket))])
            / max(1, len(values[int(i * bucket):max(int(i * bucket) + 1, int((i + 1) * bucket))]))
            for i in range(width)
        ]
    lo = min(values)
    hi = max(values)
    span = (hi - lo) or 1.0
    out = []
    for v in values:
        idx = int((v - lo) / span * (len(_SPARK_CHARS) - 1))
        out.append(_SPARK_CHARS[idx])
    return "".join(out)


def interval_strips(
    records: Sequence["IntervalRecord"],
    metrics: Sequence[str] = ("ipc", "dmiss"),
    width: int = 60,
) -> str:
    """ASCII strips (low..high intensity) of interval records, one per line.

    A per-thread record field (``ipc``, ``dmiss``, ``rob``, ...) gives one
    strip per thread; a scalar field (``free_int_regs``, ``issued``, ...)
    or a shared queue's free entries (``int_q_free``, ``fp_q_free``,
    ``ls_q_free``) gives one strip. Each strip ends with its range.
    """
    window = max((r.cycles for r in records), default=0)
    lines = [f"timeline: {len(records)} samples x {window} cycles"]
    for metric in metrics:
        if metric in _QUEUES:
            q = _QUEUES[metric]
            strips = [("  ", [r.q_free[q] for r in records])]
        elif records and isinstance(getattr(records[0], metric), list):
            per_thread = [getattr(r, metric) for r in records]
            strips = [
                (f"t{t}", [vals[t] for vals in per_thread])
                for t in range(len(per_thread[0]))
            ]
        else:
            strips = [("  ", [getattr(r, metric) for r in records])]
        for label, vals in strips:
            lo, hi = (min(vals), max(vals)) if vals else (0, 0)
            lines.append(
                f"  {metric:8s} {label}: |{sparkline(list(map(float, vals)), width)}| "
                f"[{lo:.2f}..{hi:.2f}]"
            )
    return "\n".join(lines)
