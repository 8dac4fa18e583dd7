"""Run every experiment and emit EXPERIMENTS.md (paper vs measured)."""

from __future__ import annotations

import sys
import time
from pathlib import Path

from repro.config import SimulationConfig
from repro.experiments import (
    ext_metrics,
    ext_seeds,
    figure1,
    figure2,
    figure3,
    figure4,
    figure5,
    figure_meta,
    table2a,
    table4,
)
from repro.experiments.runner import ExperimentResult, ExperimentRunner

__all__ = ["ALL_EXPERIMENTS", "EXTENSION_EXPERIMENTS", "generate_report", "main", "run_all"]

#: (module, description) in the paper's presentation order.
ALL_EXPERIMENTS = (
    (table2a, "Table 2(a) — trace-substrate calibration"),
    (figure1, "Figure 1 — throughput, baseline machine"),
    (figure2, "Figure 2 — FLUSH refetch cost"),
    (figure3, "Figure 3 — Hmean fairness"),
    (table4, "Table 4 — 4-MIX relative IPCs"),
    (figure4, "Figure 4 — smaller machine"),
    (figure5, "Figure 5 — deeper machine"),
)

#: Beyond-the-paper studies included at the end of the report.
EXTENSION_EXPERIMENTS = (
    (ext_metrics, "Extension — metric choice (throughput/WS/Hmean)"),
    (ext_seeds, "Extension — seed robustness"),
    (figure_meta, "Extension — dynamic meta-policy selection"),
)

_HEADER = """# EXPERIMENTS — paper vs. measured

Reproduction of the evaluation of *DCache Warn: an I-Fetch Policy to Increase
SMT Efficiency* (IPDPS 2004) on the synthetic-trace substrate described in
DESIGN.md. Absolute IPCs are not expected to match the paper (different
traces, scaled run lengths); every table below therefore records the *shape*
checks — who wins, by roughly what factor, where the crossovers fall — next
to the measured numbers.

Regenerate with:

```bash
python -m repro.experiments.report            # or: dwarn-sim report
pytest benchmarks/ --benchmark-only           # one bench per table/figure
```
"""


def run_all(
    runner: ExperimentRunner | None = None,
    verbose: bool = True,
    include_extensions: bool = True,
) -> list[ExperimentResult]:
    """Execute every experiment; returns their results in order."""
    runner = runner or ExperimentRunner("baseline", SimulationConfig(), verbose=verbose)
    experiments = ALL_EXPERIMENTS + (EXTENSION_EXPERIMENTS if include_extensions else ())
    results = []
    for module, desc in experiments:
        t0 = time.time()
        res = module.run(runner)
        if verbose:  # pragma: no cover
            status = "ok" if res.all_checks_pass else "CHECK MISSES"
            print(f"[{res.name}] {desc}: {time.time() - t0:.1f}s ({status})", flush=True)
        results.append(res)
    return results


def generate_report(
    path: str | Path = "EXPERIMENTS.md",
    runner: ExperimentRunner | None = None,
    verbose: bool = True,
) -> Path:
    """Run everything and write the markdown report. Returns the path."""
    results = run_all(runner, verbose=verbose)
    parts = [_HEADER]

    total = sum(len(r.checks) for r in results)
    passed = sum(sum(r.checks.values()) for r in results)
    parts.append(f"\n**Reproduction checks: {passed}/{total} pass.**\n")

    for res in results:
        parts.append(res.to_markdown())
        parts.append("")

    out = Path(path)
    out.write_text("\n".join(parts))
    return out


def main(argv: list[str] | None = None) -> int:
    """``python -m repro.experiments.report [options]`` is ``dwarn-sim report
    [options]``, so both write the same EXPERIMENTS.md."""
    from repro.cli import main as cli_main

    return cli_main(["report", *(sys.argv[1:] if argv is None else argv)])


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
