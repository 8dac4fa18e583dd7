"""Performance and fairness metrics (§5 of the paper)."""

from repro.metrics.fairness import (
    relative_ipcs,
    hmean_relative,
    weighted_speedup,
    FairnessReport,
)
from repro.metrics.reporting import format_table, format_pct
from repro.metrics.timeline import interval_strips, sparkline
from repro.metrics.export import result_to_csv, matrix_to_csv

__all__ = [
    "relative_ipcs",
    "hmean_relative",
    "weighted_speedup",
    "FairnessReport",
    "format_table",
    "format_pct",
    "interval_strips",
    "sparkline",
    "result_to_csv",
    "matrix_to_csv",
]
