#!/usr/bin/env python3
"""Repository benchmark: three workloads, end-to-end and per-layer metrics.

Run from the repository root::

    python3 perfbench/run.py --workload sim-long --seed 0 --seconds 15 --trace 0
    python3 perfbench/run.py --workload all --seed 0 --seconds 15 --trace 0

``--trace 0`` measures the end-to-end metrics with nothing installed;
``--trace 1`` is a separate run that wraps each layer's entry points and
reports per-layer metrics (see NOTES.md for every definition). Human-readable
rows come first; the last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.

Each run works in a fresh directory under ``.perfbench_state/`` in the
repository root (removed at exit); traced runs leave their spans in
``.perfbench_out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import types
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

#: Workload name -> module in this directory.
WORKLOADS = {"sim-long": "sim_long", "report-vec": "report_vec", "service-mixed": "service_mixed"}


def _check_benchmark_json() -> str | None:
    """Complaint if BENCHMARK.json's metric names drift from metrics.py."""
    from metrics import END_TO_END, PER_LAYER

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if [m["name"] for m in spec["end_to_end"]] != [n for n, _ in END_TO_END]:
        return "BENCHMARK.json end_to_end names differ from metrics.END_TO_END"
    if [m["name"] for m in spec["per_layer"]] != [n for n, _ in PER_LAYER]:
        return "BENCHMARK.json per_layer names differ from metrics.PER_LAYER"
    if sorted(w["name"] for w in spec["workloads"]) != sorted(WORKLOADS):
        return "BENCHMARK.json workloads differ from run.WORKLOADS"
    return None


def _run_all(args: argparse.Namespace) -> int:
    """Every workload in its own process, then one summary table."""
    summary = []
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__)), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        print(f"== {name}", flush=True)
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]), flush=True)
        if proc.returncode != 0 or not lines:
            print(f"perfbench: {name} exited {proc.returncode}", file=sys.stderr)
            return 1
        summary.append((name, json.loads(lines[-1])))
    print("== summary")
    for name, res in summary:
        print(f"{name:14s} correct={res['correct']} attempted={res['attempted']} "
              f"failed={res['failed']}")
        for metric, v in res["metrics"].items():
            print(f"  {metric:28s} {v['value']:.6g} {v['unit']}")
    print(json.dumps({name: res for name, res in summary}))
    return 0 if all(res["correct"] for _, res in summary) else 1


def main(argv: list[str] | None = None) -> int:
    """Parse arguments, run one workload, print its rows and result line."""
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: {SRC}/repro not found; run from a full checkout",
              file=sys.stderr)
        return 2
    problem = _check_benchmark_json()
    if problem:
        print(f"perfbench: {problem}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return _run_all(args)

    # Children (fleet daemons, the worker) import the same checkout.
    sys.path.insert(0, str(SRC))
    os.environ["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), os.environ.get("PYTHONPATH", "")) if p
    )
    import repro

    if Path(repro.__file__).resolve().parent != SRC / "repro":
        print(f"perfbench: imported repro from {repro.__file__}, not {SRC}",
              file=sys.stderr)
        return 2

    state = ROOT / ".perfbench_state" / f"{args.workload}-{os.getpid()}"
    shutil.rmtree(state, ignore_errors=True)
    state.mkdir(parents=True)
    # Nothing may fall back to the repository's own .cache/.
    os.environ["DWARN_SIM_TRACE_CACHE"] = str(state / "trace-cache")
    os.environ["DWARN_SIM_INGEST_DIR"] = str(state / "ingested")

    from metrics import END_TO_END, PER_LAYER
    from repro.utils.perfguard import calibration_score

    calibration = calibration_score()
    nproc = len(os.sched_getaffinity(0))
    ctx = types.SimpleNamespace(
        seed=args.seed,
        seconds=args.seconds,
        trace=bool(args.trace),
        state=state,
        out_dir=ROOT / ".perfbench_out",
        nproc=nproc,
        reference=json.loads((HERE / "reference.json").read_text()),
    )
    try:
        module = __import__(WORKLOADS[args.workload])
        outcome = module.run(ctx)
    finally:
        shutil.rmtree(state, ignore_errors=True)

    units = dict(PER_LAYER if args.trace else END_TO_END)
    missing = set(units) - set(outcome.metrics)
    if missing:
        print(f"perfbench: workload did not report {sorted(missing)}", file=sys.stderr)
        return 2
    print(f"host: calibration_score={calibration:.4f} Mops/s nproc={nproc} "
          f"workload={args.workload} seed={args.seed} "
          f"trace={args.trace}")
    for name, value, unit, samples in outcome.rows:
        print(f"  {name:22s} {value:14.6f} {unit:9s} n={samples}")
    for note in outcome.notes:
        print(f"  note: {note}")
    print(f"  attempted={outcome.attempted} failed={outcome.failed}", flush=True)
    print(json.dumps({
        "correct": outcome.failed == 0,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {name: {"value": outcome.metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
