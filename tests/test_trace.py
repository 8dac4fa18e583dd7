"""Tests for the synthetic trace substrate: profiles, codegen, walk, addresses."""

from __future__ import annotations

import gc
import hashlib
import sys
import tracemalloc
import types
from array import array
from collections import Counter
from itertools import islice

import pytest
from hypothesis import given, settings, strategies as st

from repro.isa.opcodes import BranchKind, OpClass
from repro.isa.registers import REG_NONE
from repro.trace import (
    ILP_BENCHMARKS,
    MEM_BENCHMARKS,
    PROFILES,
    AddressSpace,
    WrongPathSupplier,
    generate_trace,
    get_profile,
)
from repro.trace import ingest
from repro.trace.address_space import (
    COLD_OFFSET,
    L1_SETS,
    LINE_BYTES,
    STACK_OFFSET,
    WARM_OFFSET,
    set_stagger,
)
from repro.trace.artifact import TraceArtifactCache
from repro.trace.codegen import INSTR_BYTES, BasicBlock, CodeLayout
from repro.trace.synthetic import RECORD_FIELDS, SyntheticTrace, clear_trace_cache
from repro.utils.rng import derive_seed


def _columns(trace) -> dict[str, list]:
    """The trace's columns by field name: one value per record."""
    return dict(zip(RECORD_FIELDS, trace.cols))


class TestProfiles:
    def test_all_twelve_specint_benchmarks_present(self):
        expected = {
            "gzip", "vpr", "gcc", "mcf", "crafty", "parser",
            "eon", "perlbmk", "gap", "vortex", "bzip2", "twolf",
        }
        assert set(PROFILES) == expected

    def test_mem_ilp_split_matches_table_2a(self):
        # Paper: MEM = L2 load miss rate above ~1% (parser is grouped MEM).
        assert set(MEM_BENCHMARKS) == {"mcf", "twolf", "vpr", "parser"}
        assert len(ILP_BENCHMARKS) == 8

    def test_table_2a_values(self):
        mcf = get_profile("mcf")
        assert mcf.l1_missrate == pytest.approx(0.323)
        assert mcf.l2_missrate == pytest.approx(0.296)
        assert mcf.l1_to_l2_ratio == pytest.approx(0.916, abs=0.01)
        gzip = get_profile("gzip")
        assert gzip.l1_to_l2_ratio == pytest.approx(0.02, abs=0.002)

    def test_tier_probabilities_sum(self):
        for p in PROFILES.values():
            assert p.p_cold + p.p_warm == pytest.approx(p.l1_missrate)

    def test_unknown_benchmark_raises(self):
        with pytest.raises(KeyError, match="mcf"):
            get_profile("nonesuch")

    def test_invalid_profile_rejected(self):
        import dataclasses

        with pytest.raises(ValueError):
            dataclasses.replace(get_profile("mcf"), l2_missrate=0.5)  # > l1

    def test_mix_fractions_below_one(self):
        for p in PROFILES.values():
            assert p.load_frac + p.store_frac + p.branch_frac + p.fp_frac < 1.0


class TestCodeLayout:
    def test_blocks_laid_out_contiguously(self):
        lay = CodeLayout(get_profile("gzip"), 0x1000, seed=1)
        pc = 0x1000
        for blk in lay.blocks:
            assert blk.pc == pc
            pc += blk.num_instrs * INSTR_BYTES
        assert lay.footprint_bytes == pc - 0x1000

    def test_block_count_from_profile(self):
        p = get_profile("gcc")
        lay = CodeLayout(p, 0, seed=2)
        assert len(lay) == p.n_blocks

    def test_deterministic(self):
        a = CodeLayout(get_profile("mcf"), 0, seed=7)
        b = CodeLayout(get_profile("mcf"), 0, seed=7)
        assert [(x.pc, x.brkind, x.taken_index) for x in a.blocks] == [
            (x.pc, x.brkind, x.taken_index) for x in b.blocks
        ]

    def test_seeds_differ(self):
        a = CodeLayout(get_profile("mcf"), 0, seed=7)
        b = CodeLayout(get_profile("mcf"), 0, seed=8)
        assert [x.brkind for x in a.blocks] != [x.brkind for x in b.blocks]

    def test_cond_targets_are_backward_jumps(self):
        lay = CodeLayout(get_profile("gzip"), 0, seed=3)
        n = len(lay)
        for blk in lay.blocks:
            if blk.brkind == BranchKind.COND:
                delta = (blk.index - blk.taken_index) % n
                assert 1 <= delta <= 8

    def test_gcc_has_largest_footprint(self):
        foot = {
            name: CodeLayout(get_profile(name), 0, seed=1).footprint_bytes
            for name in ("gcc", "gzip", "mcf")
        }
        assert foot["gcc"] > foot["gzip"]
        assert foot["gcc"] > foot["mcf"]


class TestSyntheticTrace:
    @pytest.fixture(scope="class")
    def trace(self):
        # Non-zero base: thread 0's first hot line would legitimately be
        # address 0, which would collide with the "no address" sentinel.
        return generate_trace(get_profile("twolf"), 8000, 1 << 30, seed=99)

    def test_length(self, trace):
        assert len(trace) == 8000

    def test_successor_consistency(self, trace):
        """Index i+1 is the architectural successor of index i — THE trace
        invariant the fetch unit and squash recovery rely on."""
        t = _columns(trace)
        for i in range(len(trace) - 1):
            if t["op"][i] == OpClass.BRANCH:
                expected = t["target"][i] if t["taken"][i] else t["pc"][i] + 4
            else:
                expected = t["pc"][i] + 4
            assert t["pc"][i + 1] == expected, f"broken successor at {i}"

    def test_wrap_patch(self, trace):
        t = _columns(trace)
        last = len(trace) - 1
        assert t["op"][last] == OpClass.BRANCH
        assert t["brkind"][last] == BranchKind.JUMP
        assert t["taken"][last]
        assert t["target"][last] == t["pc"][0]

    def test_non_branches_have_no_branch_fields(self, trace):
        t = _columns(trace)
        for i in range(0, len(trace) - 1, 7):
            if t["op"][i] != OpClass.BRANCH:
                assert t["brkind"][i] == BranchKind.NONE
                assert not t["taken"][i]

    def test_memory_ops_have_addresses(self, trace):
        t = _columns(trace)
        for i in range(len(trace)):
            if t["op"][i] in (OpClass.LOAD, OpClass.STORE):
                assert t["addr"][i] > 0
            elif t["op"][i] != OpClass.BRANCH:
                assert t["addr"][i] == 0

    def test_stores_have_no_dest(self, trace):
        t = _columns(trace)
        for i in range(len(trace)):
            if t["op"][i] == OpClass.STORE:
                assert t["dest"][i] == REG_NONE

    def test_fp_ops_use_fp_dest(self):
        t = _columns(generate_trace(get_profile("eon"), 8000, 0, seed=5))
        for i in range(len(t["op"])):
            if t["op"][i] == OpClass.FP:
                assert t["dest"][i] >= 32

    def test_mix_within_tolerance(self, trace):
        counts = trace.op_counts()
        p = trace.profile
        n = len(trace)
        assert counts.get(int(OpClass.LOAD), 0) / n == pytest.approx(p.load_frac, rel=0.15)
        assert counts.get(int(OpClass.STORE), 0) / n == pytest.approx(p.store_frac, rel=0.2)
        assert counts.get(int(OpClass.BRANCH), 0) / n == pytest.approx(p.branch_frac, rel=0.3)

    def test_deterministic_and_cached(self):
        a = generate_trace(get_profile("gzip"), 2000, 0, seed=1)
        b = generate_trace(get_profile("gzip"), 2000, 0, seed=1)
        assert a is b  # cache hit
        c = generate_trace(get_profile("gzip"), 2000, 0, seed=2)
        assert _columns(a)["addr"] != _columns(c)["addr"]

    def test_instances_decorrelated(self):
        a = generate_trace(get_profile("mcf"), 2000, 0, seed=1, instance=0)
        b = generate_trace(get_profile("mcf"), 2000, 1 << 30, seed=1, instance=1)
        assert _columns(a)["pc"][:100] != _columns(b)["pc"][:100]

    def test_record_accessor(self, trace):
        t = _columns(trace)
        assert trace.record(0) == tuple(t[field][0] for field in RECORD_FIELDS)

    def test_pcs_inside_code_region(self, trace):
        lo = trace.code_base
        hi = lo + trace.code_bytes
        assert all(lo <= pc < hi for pc in _columns(trace)["pc"])


#: The fields a trace holds as ``array('b')`` columns (the DWIT file's
#: signed-byte fields); the other three are lists of interned ints.
_BYTE_FIELDS = ("op", "dest", "src1", "src2", "brkind", "taken")


def _reachable(root: object) -> list[object]:
    """Every object reachable from ``root`` through instance data, by
    ``gc.get_referents``. Classes, modules and functions are not entered:
    through them everything in the process is reachable."""
    opaque = (type, types.ModuleType, types.FunctionType, types.BuiltinFunctionType)
    seen: dict[int, object] = {}
    stack = [root]
    while stack:
        obj = stack.pop()
        if id(obj) in seen or isinstance(obj, opaque):
            continue
        seen[id(obj)] = obj
        stack.extend(gc.get_referents(obj))
    return list(seen.values())


class TestCompactRecords:
    """The nine field columns in ``cols`` are a trace's only per-record
    store: the six small fields as ``array('b')``, and ``pc``, ``addr`` and
    ``target`` as lists in which each distinct value is one shared int. The
    code layout the walk followed is not kept. All of this holds whether the
    trace was walked, loaded from an artifact or ingested from a DWIT file."""

    KINDS = ["generated", "loaded", "ingested"]

    @pytest.fixture(scope="class")
    def traces(self, tmp_path_factory):
        generated = SyntheticTrace(get_profile("gcc"), 6000, 1 << 30, 4242, 0)
        cache = TraceArtifactCache(tmp_path_factory.mktemp("artifacts"))
        cache.store(generated)
        loaded = cache.load(generated.profile, 6000, 1 << 30, 4242, 0)
        assert loaded is not None
        path = ingest.export_trace(generated, tmp_path_factory.mktemp("dwit") / "gcc.dwit")
        ingested = ingest.materialize(ingest.read_trace_file(path), base=1 << 30, seed=4242)
        return {"generated": generated, "loaded": loaded, "ingested": ingested}

    @pytest.mark.parametrize("kind", KINDS)
    def test_cols_are_the_only_per_record_store(self, traces, kind):
        trace = traces[kind]
        assert len(trace.cols) == len(RECORD_FIELDS)
        for field, col in zip(RECORD_FIELDS, trace.cols):
            if field in _BYTE_FIELDS:
                assert type(col) is array and col.typecode == "b", field
            else:
                assert type(col) is list, field
            assert len(col) == len(trace), field
        per_record = [
            name
            for name in SyntheticTrace.__slots__
            if hasattr(getattr(trace, name), "__len__")
            and len(getattr(trace, name)) == len(trace)
        ]
        assert per_record == []
        assert not hasattr(trace, "__dict__")

    @pytest.mark.parametrize("kind", KINDS)
    def test_each_distinct_value_is_one_int(self, traces, kind):
        cols = _columns(traces[kind])
        values = [v for field in ("pc", "addr", "target") for v in cols[field]]
        assert len({id(v) for v in values}) == len(set(values))

    def test_loaded_records_equal_generated(self, traces):
        assert traces["loaded"].cols == traces["generated"].cols

    @pytest.mark.parametrize("kind", ["loaded", "ingested"])
    def test_columns_sized_like_walked_ones(self, traces, kind):
        """No spare slots: each column is as big as the walked trace's."""
        sizes = [sys.getsizeof(col) for col in traces[kind].cols]
        assert sizes == [sys.getsizeof(col) for col in traces["generated"].cols]

    def test_ingested_records_equal_generated(self, traces):
        assert traces["ingested"].cols == traces["generated"].cols

    @pytest.mark.parametrize("kind", KINDS)
    def test_no_code_layout_is_reachable(self, traces, kind):
        trace = traces[kind]
        reachable = _reachable(trace)
        assert {id(trace.cols), id(trace.aspace)} <= {id(obj) for obj in reachable}
        assert not [obj for obj in reachable if isinstance(obj, (CodeLayout, BasicBlock))]

    def test_materializing_leaves_the_file_arrays_alone(self, traces, tmp_path):
        """A materialized trace patches its wrap record into its own columns,
        never into the read file's, so one file materializes at any base."""
        arrays = {field: list(col) for field, col in zip(RECORD_FIELDS, traces["generated"].cols)}
        # A last record the wrap patch rewrites: a plain INT op.
        for field, value in (("op", int(OpClass.INT)), ("dest", 5), ("src1", 6),
                             ("brkind", int(BranchKind.NONE)), ("taken", 0), ("target", 0)):
            arrays[field][-1] = value
        path = ingest.write_trace_file(
            tmp_path / "open.dwit", "gcc-open-end", "gcc", arrays, "canonical", 1 << 30
        )
        tf = ingest.read_trace_file(path)
        assert tf.arrays == arrays
        clear_trace_cache()  # each materialization builds its own trace
        for base in (1 << 30, 2 << 30):  # the file's own base, then another
            trace = ingest.materialize(tf, base=base, seed=4242)
            assert trace.record(len(trace) - 1)[0] == OpClass.BRANCH
        clear_trace_cache()
        assert tf.arrays == arrays


class TestTraceMemory:
    """What a gcc trace (the largest code footprint) retains, counted by
    tracemalloc: six bytes and three list slots a record, plus its share of
    interned values and static products. An 80,000-record trace (the
    default length) retains about 31 bytes a record, a 6,000-record one
    (the length of report-vec's and the service's traces) about 40. Nine
    list columns retained about 80 and 168, and a kept code layout was
    about half of the latter."""

    LENGTH = 80_000
    BOUND = 36  # bytes a record
    SHORT_LENGTH = 6_000
    SHORT_BOUND = 48  # bytes a record

    @staticmethod
    def _retained_per_record(build, length):
        gc.collect()
        tracemalloc.start()
        try:
            trace = build()
            gc.collect()
            return trace, tracemalloc.get_traced_memory()[0] / length
        finally:
            tracemalloc.stop()

    def test_walked_and_loaded_trace_bytes_per_record(self, tmp_path):
        profile, n = get_profile("gcc"), self.LENGTH
        walked, walked_bytes = self._retained_per_record(
            lambda: SyntheticTrace(profile, n, 1 << 30, 4242, 0), n
        )
        cache = TraceArtifactCache(tmp_path)
        cache.store(walked)
        del walked
        loaded, loaded_bytes = self._retained_per_record(
            lambda: cache.load(profile, n, 1 << 30, 4242, 0), n
        )
        assert loaded is not None
        assert walked_bytes <= self.BOUND, walked_bytes
        assert loaded_bytes <= self.BOUND, loaded_bytes

    def test_short_trace_bytes_per_record(self):
        profile, n = get_profile("gcc"), self.SHORT_LENGTH
        _, walked_bytes = self._retained_per_record(
            lambda: SyntheticTrace(profile, n, 1 << 30, 4242, 0), n
        )
        assert walked_bytes <= self.SHORT_BOUND, walked_bytes


_PIN_FIELDS = ("pc", "op", "dest", "src1", "src2", "addr", "brkind", "taken", "target")
_PIN_BASE = 5 << 30
_PIN_SEED = 777
_PIN_LENGTH = 6000
#: SHA-256 of each pinned trace's nine arrays (see ``_trace_sha256``).
_PINNED = {
    ("mcf", 0): "ea6e7959a3a26baeac5424a20affffd08ab05657b30f58865061c13e8bd5eb38",
    ("mcf", 1): "60432fdca43dbb1ee51ed657996d1c52bf9cc6a1c54665704f8eb964e5c5880b",
    ("eon", 0): "bdca0144a1f6b61b136f3ef334878e29b7cebb46cc3e6617f64e66c93ae43b9a",
    ("eon", 1): "509c03c31f5898a448b96893c71bb9217fdebd6323971c3fc1e4fb43a25512c3",
}


def _trace_sha256(trace) -> str:
    """SHA-256 over the nine record arrays packed as little-endian int64, so
    a generated and an artifact-loaded trace hash alike."""
    columns = _columns(trace)
    h = hashlib.sha256()
    for field in _PIN_FIELDS:
        words = array("q", [int(v) for v in columns[field]])
        if sys.byteorder != "little":
            words.byteswap()
        h.update(words.tobytes())
    return h.hexdigest()


def _walk_paths(trace) -> Counter:
    """Count the records each path of the walk produced."""
    paths: Counter = Counter()
    # The trace keeps no layout; rebuild the one its walk followed.
    code_seed = derive_seed(trace.seed, "code", trace.profile.name, trace.instance)
    layout = CodeLayout(trace.profile, trace.code_base, code_seed)
    by_branch_pc = {b.branch_pc: b for b in layout.blocks}
    records = islice(zip(*trace.cols), len(trace) - 1)  # the last is the wrap patch
    for op, pc, _, _, _, addr, kind, _, _ in records:
        offset = addr - trace.base
        if op == OpClass.FP:
            paths["fp"] += 1
        elif op == OpClass.LOAD:
            tier = "cold" if offset >= COLD_OFFSET else "warm" if offset >= WARM_OFFSET else "hot"
            paths[f"{tier}_load"] += 1
        elif op == OpClass.STORE:
            paths["stack_store" if offset >= STACK_OFFSET else "warm_store"] += 1
        elif op == OpClass.BRANCH:
            block = by_branch_pc[pc]
            if kind == BranchKind.COND:
                unpredictable = 0.25 <= block.bias <= 0.75
                paths["unpredictable_cond" if unpredictable else "loop_cond"] += 1
            elif kind == BranchKind.CALL:
                paths["call"] += 1
            elif kind == BranchKind.JUMP and block.brkind == BranchKind.RET:
                paths["underflowed_ret"] += 1
    return paths


class TestPinnedTraces:
    """Every trace array, value for value: a change to the walk's draws or
    their order fails here, not only as a simulation-digest drift."""

    @pytest.fixture(scope="class")
    def traces(self):
        return {
            key: SyntheticTrace(get_profile(key[0]), _PIN_LENGTH, _PIN_BASE, _PIN_SEED, key[1])
            for key in _PINNED
        }

    @pytest.mark.parametrize("key", sorted(_PINNED), ids=lambda key: f"{key[0]}-{key[1]}")
    def test_trace_contents_pinned(self, traces, key):
        assert _trace_sha256(traces[key]) == _PINNED[key]

    def test_artifact_round_trip_hashes_alike(self, traces, tmp_path):
        cache = TraceArtifactCache(tmp_path)
        trace = traces[("mcf", 1)]
        cache.store(trace)
        loaded = cache.load(trace.profile, _PIN_LENGTH, _PIN_BASE, _PIN_SEED, 1)
        assert loaded is not None
        assert _trace_sha256(loaded) == _PINNED[("mcf", 1)]

    def test_pins_cover_every_walk_path(self, traces):
        paths = {key: _walk_paths(trace) for key, trace in traces.items()}
        total = sum(paths.values(), Counter())
        for path in (
            "cold_load", "warm_load", "hot_load", "stack_store", "warm_store",
            "loop_cond", "unpredictable_cond", "call",
        ):
            assert total[path] > 0, path
        assert paths[("eon", 0)]["fp"] > 0 and paths[("eon", 1)]["fp"] > 0
        assert [paths[key]["underflowed_ret"] for key in sorted(_PINNED)] == [0, 4, 1, 1]


class TestAddressSpace:
    def test_tier_probabilities(self):
        a = AddressSpace(get_profile("mcf"), 0, seed=1)
        hot, warm, cold = a.tier_probabilities
        assert cold == pytest.approx(0.296)
        assert warm == pytest.approx(0.323 - 0.296)
        assert hot + warm + cold == pytest.approx(1.0)

    def test_warm_geometry_bounds(self):
        for name in PROFILES:
            a = AddressSpace(get_profile(name), 0, seed=1)
            assert 3 <= a.warm_tags <= 16      # beat L1 assoc, fit L2 assoc
            assert a.warm_groups in (8, 16)

    def test_warm_addresses_collide_in_l1_sets(self):
        a = AddressSpace(get_profile("mcf"), 0, seed=1)
        lines = [(addr - WARM_OFFSET) // LINE_BYTES for addr in
                 (a._warm_address() for _ in range(a.warm_groups * a.warm_tags))]
        sets = {ln % L1_SETS for ln in lines}
        assert len(sets) == a.warm_groups  # K tags share each of G sets

    def test_cold_addresses_never_repeat_lines_quickly(self):
        a = AddressSpace(get_profile("mcf"), 0, seed=1)
        lines = set()
        for _ in range(2000):
            addr = a.base + COLD_OFFSET  # force cold via internals
        # use the public API instead: draw loads and keep cold ones
        a2 = AddressSpace(get_profile("mcf"), 0, seed=2)
        cold = []
        for _ in range(5000):
            addr = a2.load_address()
            off = addr & ((1 << 30) - 1)
            if COLD_OFFSET <= off < (512 << 20):
                cold.append(addr // LINE_BYTES)
        assert len(cold) == len(set(cold))  # every cold access a fresh line

    def test_stagger_distinct_per_thread(self):
        staggers = {set_stagger(t << 30) for t in range(8)}
        assert len(staggers) == 8

    def test_prewarm_line_lists(self):
        a = AddressSpace(get_profile("gzip"), 1 << 30, seed=1)
        l1 = a.l1_resident_lines()
        l2 = a.l2_resident_lines()
        assert len(l1) == a.profile.hot_lines + max(16, a.profile.hot_lines // 2)
        assert len(l2) == a.warm_groups * a.warm_tags
        assert all(addr >> 30 == 1 for addr in l1 + l2)  # inside thread slice

    @settings(max_examples=20, deadline=None)
    @given(st.integers(min_value=0, max_value=7))
    def test_property_addresses_stay_in_thread_slice(self, tid):
        a = AddressSpace(get_profile("twolf"), tid << 30, seed=3)
        for _ in range(300):
            assert a.load_address() >> 30 == tid
            assert a.store_address() >> 30 == tid


class TestWrongPathSupplier:
    def test_deterministic(self):
        wp = WrongPathSupplier(get_profile("gzip"), 0, seed=4)
        assert wp.supply(0x1000) == wp.supply(0x1000)

    def test_distinct_pcs_differ(self):
        wp = WrongPathSupplier(get_profile("gzip"), 0, seed=4)
        recs = {wp.supply(0x1000 + 4 * i) for i in range(64)}
        assert len(recs) > 32

    def test_branches_are_never_taken_conds(self):
        wp = WrongPathSupplier(get_profile("gcc"), 0, seed=4)
        for i in range(500):
            rec = wp.supply(0x2000 + 4 * i)
            if rec[0] == OpClass.BRANCH:
                assert rec[5] == BranchKind.COND
                assert rec[6] is False

    def test_loads_have_addresses_in_thread_slice(self):
        wp = WrongPathSupplier(get_profile("mcf"), 2 << 30, seed=4)
        for i in range(500):
            rec = wp.supply(0x3000 + 4 * i)
            if rec[0] in (OpClass.LOAD, OpClass.STORE):
                assert rec[4] >> 30 == 2

    def test_mix_roughly_matches_profile(self):
        p = get_profile("twolf")
        wp = WrongPathSupplier(p, 0, seed=4)
        from collections import Counter

        c = Counter(wp.supply(4 * i)[0] for i in range(4000))
        assert c[int(OpClass.LOAD)] / 4000 == pytest.approx(p.load_frac, rel=0.3)
