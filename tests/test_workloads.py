"""Tests for Table 2(b) workloads and the thread-program builder."""

from __future__ import annotations

import pytest

from repro.config import SimulationConfig
from repro.trace import MEM_BENCHMARKS, get_profile
from repro.workloads import (
    WORKLOADS,
    build_programs,
    build_single,
    get_workload,
    workloads_for_machine,
)


class TestTable2b:
    def test_twelve_workloads(self):
        assert len(WORKLOADS) == 12

    def test_sizes_and_classes(self):
        for name, spec in WORKLOADS.items():
            size, cls = name.split("-")
            assert spec.num_threads == int(size)
            assert spec.wl_class == cls
            assert spec.size_class == int(size)

    def test_exact_paper_composition(self):
        assert get_workload("2-MEM").benchmarks == ("mcf", "twolf")
        assert get_workload("4-MIX").benchmarks == ("gzip", "twolf", "bzip2", "mcf")
        assert get_workload("8-MEM").benchmarks == (
            "mcf", "twolf", "vpr", "parser", "mcf", "twolf", "vpr", "parser",
        )
        assert get_workload("8-ILP").benchmarks == (
            "gzip", "bzip2", "eon", "gcc", "crafty", "perlbmk", "gap", "vortex",
        )

    def test_mem_workloads_all_mem(self):
        for name, spec in WORKLOADS.items():
            if spec.wl_class == "MEM":
                assert all(b in MEM_BENCHMARKS for b in spec.benchmarks)

    def test_ilp_workloads_all_ilp(self):
        for name, spec in WORKLOADS.items():
            if spec.wl_class == "ILP":
                assert all(
                    get_profile(b).thread_type == "ILP" for b in spec.benchmarks
                )

    def test_mix_workloads_are_mixed(self):
        for name, spec in WORKLOADS.items():
            if spec.wl_class == "MIX":
                types = {get_profile(b).thread_type for b in spec.benchmarks}
                assert types == {"ILP", "MEM"}

    def test_replicated_benchmarks_only_in_mem(self):
        for name, spec in WORKLOADS.items():
            if spec.wl_class != "MEM":
                assert len(set(spec.benchmarks)) == len(spec.benchmarks), name

    def test_unknown_workload(self):
        with pytest.raises(KeyError, match="4-MIX"):
            get_workload("16-ALL")

    def test_invalid_benchmark_rejected(self):
        from repro.workloads.specint import WorkloadSpec

        with pytest.raises(ValueError):
            WorkloadSpec("2-BAD", ("gzip", "nonesuch"))

    def test_workloads_for_machine_filters(self):
        four = workloads_for_machine(4)
        assert {w.name for w in four} == {
            "2-ILP", "2-MIX", "2-MEM", "4-ILP", "4-MIX", "4-MEM",
        }
        assert len(workloads_for_machine(8)) == 12

    def test_workloads_for_machine_ordering(self):
        names = [w.name for w in workloads_for_machine(8)]
        assert names[:3] == ["2-ILP", "2-MIX", "2-MEM"]
        assert names[-1] == "8-MEM"


class TestBuilder:
    CFG = SimulationConfig(trace_length=2048, seed=9)

    def test_single(self):
        programs = build_single("mcf", self.CFG)
        assert len(programs) == 1
        assert programs[0].profile.name == "mcf"
        assert len(programs[0].trace) == 2048

    def test_threads_get_disjoint_bases(self):
        programs = build_programs(get_workload("4-MIX"), self.CFG)
        bases = {p.trace.base for p in programs}
        assert len(bases) == 4
        assert bases == {0, 1 << 30, 2 << 30, 3 << 30}

    def test_duplicates_get_distinct_instances(self):
        programs = build_programs(get_workload("6-MEM"), self.CFG)
        # mcf appears at slots 0 and 4.
        assert programs[0].profile.name == programs[4].profile.name == "mcf"
        assert programs[0].trace.instance == 0
        assert programs[4].trace.instance == 1
        first_pcs = [[pc for _, pc, *_ in p.trace.rec[:50]] for p in (programs[0], programs[4])]
        assert first_pcs[0] != first_pcs[1]

    def test_wp_supplier_shares_base(self):
        programs = build_programs(get_workload("2-MIX"), self.CFG)
        for p in programs:
            assert p.wp_supplier.base == p.trace.base

    def test_names_build_what_spec_and_build_single_build(self):
        from repro.trace import clear_trace_cache

        def fingerprint(build, arg):
            clear_trace_cache()  # every build walks its own traces
            return [
                (p.profile.name, p.trace.base, p.trace.rec, p.wp_supplier.seed)
                for p in build(arg, self.CFG)
            ]

        assert fingerprint(build_programs, "4-MIX") == fingerprint(
            build_programs, get_workload("4-MIX")
        )
        assert fingerprint(build_programs, "mcf") == fingerprint(build_single, "mcf")
