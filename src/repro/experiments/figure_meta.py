"""Extension: dynamic meta-policy vs. the six static paper policies.

The ``meta`` policy (:mod:`repro.core.policies.meta`) re-selects the active
fetch policy every interval from per-thread IPC, declared-miss and
L2-outstanding features.  A perfect selector would match the best static
policy on every workload; this experiment measures how close the realized
selector gets, over every paper mix plus one *ingested* trace workload
(the committed ``examples/traces/sample-mcf.dwit`` fixture, exercising the
``repro.trace.ingest`` frontend end to end through the experiment runner).
"""

from __future__ import annotations

from pathlib import Path

from repro.core import PAPER_POLICIES, Simulator, make_policy
from repro.experiments.runner import ExperimentResult, ExperimentRunner
from repro.trace import ingest
from repro.workloads import build_programs, workloads_for_machine

__all__ = ["run", "NAME", "FIXTURE_RELPATH", "INGESTED_NAME"]

NAME = "figure_meta"

#: Committed sample trace fixture, relative to the repository root.
FIXTURE_RELPATH = Path("examples") / "traces" / "sample-mcf.dwit"

#: In-process workload name the fixture is registered under for this run.
INGESTED_NAME = "ingested-mcf"

#: Records in the committed fixture (and its export-on-the-fly stand-in).
_FIXTURE_RECORDS = 6000

#: Meta may trail the best static policy (selection lag, hysteresis); in
#: aggregate it must stay clear of the *worst* static policy.
_WORST_TOLERANCE = 0.98

#: "Close to the best static" margin used by the coverage check.
_BEST_MARGIN = 0.90


def _fixture_path() -> Path:
    """The committed fixture, or a freshly exported stand-in.

    ``parents[3]`` walks ``src/repro/experiments/figure_meta.py`` up to the
    repository root.  Installed layouts without the fixture fall back to
    exporting the deterministic synthetic twin into the ingest directory,
    so the experiment is self-contained everywhere.
    """
    root = Path(__file__).resolve().parents[3]
    fixture = root / FIXTURE_RELPATH
    if fixture.is_file():
        return fixture
    from repro.config import SimulationConfig
    from repro.trace import generate_trace, get_profile

    simcfg = SimulationConfig()
    trace = generate_trace(get_profile("mcf"), _FIXTURE_RECORDS, 0, simcfg.seed)
    out = ingest.ingest_dir() / f"{INGESTED_NAME}{ingest.INGEST_SUFFIX}"
    return ingest.export_trace(trace, out, name=INGESTED_NAME)


def _switch_count(runner: ExperimentRunner, workload: str) -> tuple[int, str]:
    """(number of interval switches, first transition) from one direct run.

    ``runner.run`` caches only the :class:`SimResult`; the policy object —
    which owns the switch log — is discarded, so the log is sampled with
    one small uncached simulation here.
    """
    programs = build_programs(workload, runner.simcfg, trace_cache=runner.trace_cache)
    policy = make_policy("meta")
    Simulator(runner.machine, programs, policy, runner.simcfg).run()
    switches = getattr(policy, "switches", [])
    if not switches:
        return 0, "none"
    cyc, src, dst = switches[0]
    return len(switches), f"cycle {cyc}: {src}->{dst}"


def run(runner: ExperimentRunner) -> ExperimentResult:
    """Execute this experiment on ``runner`` (cached) and return the table."""
    policies = tuple(PAPER_POLICIES) + ("meta",)
    headers = ["workload", "metric", *policies, "best static"]
    rows: list[list[object]] = []
    checks: dict[str, bool] = {}
    extra: dict[str, object] = {}

    specs = workloads_for_machine(runner.machine.proc.max_contexts)
    meta_tputs: list[float] = []
    worst_tputs: list[float] = []
    near_best = 0
    for spec in specs:
        tput = {p: runner.run(spec.name, p).throughput for p in policies}
        hmean = {p: runner.hmean(spec.name, p) for p in policies}
        for metric, vals in (("tput", tput), ("hmean", hmean)):
            static = {p: vals[p] for p in PAPER_POLICIES}
            best = max(static, key=static.__getitem__)
            rows.append([
                spec.name, metric,
                *[round(vals[p], 3) for p in policies],
                best,
            ])
        meta_tputs.append(tput["meta"])
        worst_tputs.append(min(tput[p] for p in PAPER_POLICIES))
        if tput["meta"] >= max(tput[p] for p in PAPER_POLICIES) * _BEST_MARGIN:
            near_best += 1
        extra[spec.name] = {"tput": tput, "hmean": hmean}

    checks["meta mean tput clear of always-picking-the-worst"] = (
        sum(meta_tputs) >= sum(worst_tputs) * _WORST_TOLERANCE
    )
    checks["meta within 10% of best static on >= half the workloads"] = (
        2 * near_best >= len(specs)
    )

    # Ingested-trace leg: the committed fixture flows through register ->
    # find_ingested -> build_single -> the same runner cache as everything
    # else (single thread, so throughput only).
    ingest.register_workload(INGESTED_NAME, _fixture_path())
    ing_tput = {p: runner.run(INGESTED_NAME, p).throughput for p in policies}
    rows.append([
        INGESTED_NAME, "tput",
        *[round(ing_tput[p], 3) for p in policies],
        max(
            {p: ing_tput[p] for p in PAPER_POLICIES},
            key=ing_tput.__getitem__,
        ),
    ])
    checks["ingested fixture runs under every policy"] = all(
        v > 0.0 for v in ing_tput.values()
    )
    extra[INGESTED_NAME] = {"tput": ing_tput}

    mem_specs = [s for s in specs if s.wl_class == "MEM"]
    notes = [
        "meta re-selects among the six paper policies each interval "
        "(w=256 cycles, hysteresis=2); `best static` names the top "
        "throughput/Hmean column among the paper policies.",
        f"`{INGESTED_NAME}` is the committed {FIXTURE_RELPATH} fixture "
        "ingested through the trace frontend (single thread).",
    ]
    if mem_specs:
        probe = mem_specs[0].name
        n_switch, first = _switch_count(runner, probe)
        checks[f"meta actually switches on {probe}"] = n_switch > 0
        notes.append(
            f"on {probe} the selector switched {n_switch} times "
            f"(first: {first})."
        )
        extra["switches"] = {"workload": probe, "count": n_switch}

    return ExperimentResult(
        name=NAME,
        title=(
            "Extension — dynamic meta-policy vs. static policies "
            f"({runner.machine.name})"
        ),
        headers=headers,
        rows=rows,
        notes=notes,
        checks=checks,
        extra=extra,
    )
