#!/usr/bin/env python3
"""Regenerate reference.json: the expected results of sim-long and report-vec.

Run from the repository root, one workload per process::

    python3 perfbench/make_reference.py sim-long
    python3 perfbench/make_reference.py report-vec

Each call rewrites that workload's section of reference.json. Only a change
that alters simulated behaviour on purpose should need it; a performance
change must leave every digest as it is.
"""

from __future__ import annotations

import json
import os
import shutil
import sys

from run import HERE, ROOT, SRC


def main(argv: list[str]) -> int:
    """Recompute one workload's section of reference.json."""
    if len(argv) != 1 or argv[0] not in ("sim-long", "report-vec"):
        print(__doc__, file=sys.stderr)
        return 2
    which = argv[0]
    sys.path.insert(0, str(SRC))
    state = ROOT / ".perfbench_state" / f"reference-{os.getpid()}"
    state.mkdir(parents=True)
    os.environ["DWARN_SIM_TRACE_CACHE"] = str(state / "trace-cache")
    os.environ["DWARN_SIM_INGEST_DIR"] = str(state / "ingested")

    from metrics import result_digest
    import report_vec
    import sim_long

    try:
        if which == "sim-long":
            from repro import SimulationConfig

            simcfg = SimulationConfig()
            sim_long.walk_traces(simcfg)
            section: dict[str, object] = {
                label: result_digest(res) for label, res, _ in sim_long.one_pass(simcfg, 0)
            }
        else:
            simcfg = report_vec.sim_config()
            trace_dir = state / "traces"
            report_vec.fill_trace_cache(simcfg, trace_dir)
            runner, results, _ = report_vec.report_pass(simcfg, trace_dir)
            section = {
                "paper_checks_pass": report_vec.checks_passed(results),
                "results": report_vec.digests(runner),
            }
    finally:
        shutil.rmtree(state, ignore_errors=True)

    path = HERE / "reference.json"
    data = json.loads(path.read_text()) if path.exists() else {}
    data[which] = section
    path.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
