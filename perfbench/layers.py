"""Which calls the traced run wraps, and how spans become per-layer metrics.

Span names are ``<layer>.<what>``; every ``*_s`` metric below is the summed
*self* time of that layer's spans, so the layers add up to the traced wall
clock without double counting (``trace.coverage`` reports how much of it
they explain). The two exceptions split one span: ``vec.build_s`` is the
part of ``VecBatchSimulator.run`` spent in its build children (programs,
constructors, warm-hierarchy cloning, trace loads) and ``vec.step_s`` the
rest of it. ``trace.load_*`` cover the measured phase only: set-up fills a
cold artifact cache, so its lookups miss by design.
"""

from __future__ import annotations

from typing import Any

from spans import Tracer

#: Children of ``vec.batch`` that count as lane build rather than stepping.
VEC_BUILD_CHILDREN = frozenset(
    {"workloads.build", "core.ctor", "vec.clone", "trace.gen", "trace.load", "trace.store"}
)


def _step_enter(args: tuple, kwargs: dict, attrs: dict) -> None:
    sim = args[0]
    attrs["c0"] = sim.cycle
    attrs["i0"] = sim.idle_cycles_skipped
    attrs["n0"] = sum(sim.stats.committed)


def _step_exit(args: tuple, kwargs: dict, result: Any, attrs: dict) -> None:
    sim = args[0]
    attrs["cycles"] = sim.cycle - attrs.pop("c0")
    attrs["idle"] = sim.idle_cycles_skipped - attrs.pop("i0")
    attrs["instrs"] = sum(sim.stats.committed) - attrs.pop("n0")


def _gen_enter(args: tuple, kwargs: dict, attrs: dict) -> None:
    attrs["records"] = kwargs["length"] if "length" in kwargs else args[2]


def _load_exit(args: tuple, kwargs: dict, result: Any, attrs: dict) -> None:
    attrs["hit"] = result is not None


def _batch_exit(args: tuple, kwargs: dict, result: Any, attrs: dict) -> None:
    attrs["lanes"] = len(args[0].lanes)


def install_layers(tracer: Tracer) -> None:
    """Wrap the public entry points of the in-process layers."""
    from repro.core.columnar import capture_warm_hierarchy, restore_warm_hierarchy
    from repro.core.simulator import Simulator
    from repro.core.vec import VecBatchSimulator
    from repro.experiments import report
    from repro.experiments.runner import ExperimentRunner
    from repro.trace.artifact import TraceArtifactCache
    from repro.trace.synthetic import SyntheticTrace
    from repro.workloads import build_programs, build_single

    tracer.install_attr(SyntheticTrace, "__init__", "trace.gen", on_enter=_gen_enter)
    tracer.install_attr(TraceArtifactCache, "load", "trace.load", on_exit=_load_exit)
    tracer.install_attr(TraceArtifactCache, "store", "trace.store")
    tracer.install_function(build_programs, "workloads.build")
    tracer.install_function(build_single, "workloads.build")
    tracer.install_attr(Simulator, "__init__", "core.ctor")
    for method in ("run_cycles", "run_cycles_skip_idle", "advance_idle"):
        tracer.install_attr(
            Simulator, method, "core.step", on_enter=_step_enter, on_exit=_step_exit
        )
    tracer.install_attr(VecBatchSimulator, "run", "vec.batch", on_exit=_batch_exit)
    tracer.install_function(capture_warm_hierarchy, "vec.clone")
    tracer.install_function(restore_warm_hierarchy, "vec.clone")
    tracer.install_attr(ExperimentRunner, "store_result", "experiments.store")
    tracer.install_function(report.run_all, "experiments.analysis")


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer metrics of the in-process layers from the recorded spans."""
    spans = tracer.spans
    child = tracer.children_time()
    self_s: dict[str, float] = {}
    count: dict[str, int] = {}
    for i, (name, t0, t1, _, _) in enumerate(spans):
        self_s[name] = self_s.get(name, 0.0) + (t1 - t0) - child[i]
        count[name] = count.get(name, 0) + 1

    gen_s = gen_records = 0.0
    load_s = 0.0
    lookups = hits = 0
    cycles = instrs = 0
    lanes = lane_cycles = idle = 0
    clone_s = batch_s = build_s = 0.0
    for i, (name, t0, t1, parent, attrs) in enumerate(spans):
        attrs = attrs or {}
        if name == "trace.gen":
            gen_s += t1 - t0
            gen_records += attrs.get("records", 0)
        elif name == "trace.load" and tracer.ancestor_named(i, "bench.measure") >= 0:
            # Set-up fills a cold cache, so only the measured phase's
            # lookups say how well loads are served.
            load_s += t1 - t0
            lookups += 1
            hits += bool(attrs.get("hit"))
        elif name == "core.step" and "cycles" in attrs:
            if parent >= 0 and spans[parent][0] == "core.step":
                continue  # already inside a counted step span
            cycles += attrs["cycles"]
            instrs += attrs["instrs"]
            if tracer.ancestor_named(i, "vec.batch") >= 0:
                lane_cycles += attrs["cycles"]
                idle += attrs["idle"]
        elif name == "vec.batch":
            batch_s += t1 - t0
            lanes += attrs.get("lanes", 0)
        elif name == "vec.clone":
            clone_s += t1 - t0
        if parent >= 0 and spans[parent][0] == "vec.batch" and name in VEC_BUILD_CHILDREN:
            build_s += t1 - t0

    step_s = self_s.get("core.step", 0.0)
    return {
        "trace.gen_s": gen_s,
        "trace.gen_krec_per_s": gen_records / gen_s / 1e3 if gen_s else 0.0,
        "trace.load_s": load_s,
        "trace.load_hit_ratio": hits / lookups if lookups else 0.0,
        "trace.store_s": self_s.get("trace.store", 0.0),
        "workloads.build_s": self_s.get("workloads.build", 0.0),
        "core.ctor_s": self_s.get("core.ctor", 0.0),
        "core.step_s": step_s,
        "core.ns_per_cycle": step_s * 1e9 / cycles if cycles else 0.0,
        "core.ns_per_instr": step_s * 1e9 / instrs if instrs else 0.0,
        "core.cycles": float(cycles),
        "experiments.sims": float(count.get("core.ctor", 0)),
        "vec.build_s": build_s,
        "vec.clone_s": clone_s,
        "vec.step_s": batch_s - build_s,
        "vec.idle_skip_frac": idle / lane_cycles if lane_cycles else 0.0,
        "vec.lanes": float(lanes),
        "experiments.store_s": self_s.get("experiments.store", 0.0),
        "experiments.analysis_s": self_s.get("experiments.analysis", 0.0),
    }


def coverage(tracer: Tracer) -> float:
    """Share of the benchmark's phase spans explained by layer self times."""
    child = tracer.children_time()
    roots = covered = 0.0
    for i, (name, t0, t1, parent, _) in enumerate(tracer.spans):
        if name.startswith("bench."):
            roots += t1 - t0
        elif tracer.ancestor_named(i, "bench.setup") >= 0 or tracer.ancestor_named(
            i, "bench.measure"
        ) >= 0:
            covered += (t1 - t0) - child[i]
    return covered / roots if roots else 0.0
