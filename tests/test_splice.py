"""The splicer that builds the simulator's loop from its stage methods.

Each rule of :mod:`repro.core.splice` is exercised on a small class defined
here (the splicer reads a class's source from its own file), and the
generated simulator loop is checked directly: what it hoists, what it keeps
in the loop, and where a fault inside it is reported.
"""

from __future__ import annotations

import dis
import importlib
import inspect
import linecache
import textwrap
import traceback

import pytest

from repro.config import SimulationConfig, baseline
from repro.core import Simulator, make_policy
from repro.core.simulator import _SPLICED, _fast_loop
from repro.core.splice import SpliceError, splice
from repro.workloads import build_programs, get_workload


class GuardedLoop:
    """Guards, parameter binding and hoisting on a toy loop."""

    def __init__(self) -> None:
        self.cycle = 0
        self.width_reads = 0
        self.log: list[tuple[int, int]] = []

    @property
    def width(self) -> int:
        self.width_reads += 1
        return 4

    def _run(self, n: int) -> None:
        for _ in range(n):
            self._step()

    def _step(self) -> None:
        cycle = self.cycle
        self._emit(cycle * 10)
        self.cycle += 1

    def _emit(self, value: int) -> None:
        width = self.width
        cycle = self.cycle
        if cycle % 2:
            return
        self.log.append((value + width, cycle))


class ReturnsValue:
    def _run(self, n: int) -> None:
        for _ in range(n):
            self._step()

    def _step(self) -> None:
        if self:
            return None
        return 1  # type: ignore[return-value]


class NestedReturn:
    def _run(self, n: int) -> None:
        for _ in range(n):
            self._step()

    def _step(self) -> None:
        for k in range(3):
            if k:
                return


class TwoValues:
    def _run(self, n: int) -> None:
        for _ in range(n):
            self._a()
            self._b()

    def _a(self) -> None:
        width = self.wide
        self.out = width

    def _b(self) -> None:
        width = self.narrow
        self.out = width


class Clobbers:
    def _run(self, n: int) -> None:
        for _ in range(n):
            self._outer()

    def _outer(self) -> None:
        k = self.count()
        self._inner()
        self.out = k

    def _inner(self) -> None:
        k = self.count()
        self.other = k


class Aliased:
    def _run(self, n: int) -> None:
        for _ in range(n):
            self._outer()

    def _outer(self) -> None:
        inner = self._inner
        inner()

    def _inner(self) -> None:
        self.out = 1


def test_guard_becomes_if_and_invariant_is_hoisted_once():
    loop = GuardedLoop()
    fn = splice(GuardedLoop, "_run", ("_step", "_emit"))
    fn(loop, 5)
    # cycle = self.cycle stays in the loop (the loop assigns self.cycle) ...
    assert loop.log == [(4, 0), (24, 2), (44, 4)]
    # ... while width = self.width is read once per call, not per cycle.
    assert loop.width_reads == 1
    fn(loop, 2)
    assert loop.width_reads == 2


def test_return_value_raises():
    with pytest.raises(SpliceError, match="return outside a top-level guard"):
        splice(ReturnsValue, "_run", ("_step",))


def test_return_outside_top_level_guard_raises():
    with pytest.raises(SpliceError, match="return outside a top-level guard"):
        splice(NestedReturn, "_run", ("_step",))


def test_hoisted_name_with_two_values_raises():
    with pytest.raises(SpliceError, match="'width' is bound to two different values"):
        splice(TwoValues, "_run", ("_a", "_b"))


def test_rebinding_a_live_caller_local_raises():
    with pytest.raises(SpliceError, match=r"_inner rebinds \['k'\]"):
        splice(Clobbers, "_run", ("_outer", "_inner"))


def test_stage_used_other_than_as_a_call_statement_raises():
    with pytest.raises(SpliceError, match="self._inner used other than as a call"):
        splice(Aliased, "_run", ("_outer", "_inner"))


def _stores(fn) -> tuple[int, dict[str, list[int]]]:
    """Offset of the loop's FOR_ITER, and each local's STORE_FAST offsets."""
    instrs = list(dis.get_instructions(fn))
    loop = next(i.offset for i in instrs if i.opname == "FOR_ITER")
    stores: dict[str, list[int]] = {}
    for i in instrs:
        if i.opname == "STORE_FAST":
            stores.setdefault(i.argval, []).append(i.offset)
    return loop, stores


def test_simulator_loop_keeps_cycle_in_the_loop_and_hoists_threads_once():
    loop, stores = _stores(_fast_loop())
    assert stores["cycle"] and all(off > loop for off in stores["cycle"])
    # threads = self.threads opens six stages; the loop binds it once.
    assert len(stores["threads"]) == 1 and stores["threads"][0] < loop
    assert all(off > loop for off in stores["budget"])


def test_simulator_loop_is_rebuilt_identically():
    again = splice(Simulator, "_run_fast", _SPLICED)
    assert again.__code__.co_code == _fast_loop().__code__.co_code
    assert again.__code__.co_filename == inspect.getsourcefile(Simulator)


def test_fault_in_generated_loop_names_the_stage_line():
    simcfg = SimulationConfig(warmup_cycles=0, measure_cycles=50, trace_length=2_000)
    programs = build_programs(get_workload("2-MIX"), simcfg)
    sim = Simulator(baseline(), programs, make_policy("dwarn"), simcfg)

    def boom() -> list[int]:
        raise RuntimeError("fetch order fault")

    sim.policy.fetch_order = boom  # type: ignore[method-assign]
    assert sim._fast_eligible()
    with pytest.raises(RuntimeError, match="fetch order fault") as info:
        sim.run_cycles(5)
    frame, lineno = next((f, n) for f, n in traceback.walk_tb(info.value.__traceback__)
                         if f.f_code.co_name == "_run_fast")
    filename = frame.f_code.co_filename
    assert filename == inspect.getsourcefile(Simulator)
    lines, first = inspect.getsourcelines(Simulator._fetch)
    assert first <= lineno < first + len(lines)
    assert "fetch_order()" in linecache.getline(filename, lineno)


def test_source_edited_after_import_raises(tmp_path, monkeypatch):
    """A process that imported a class, then sees its file edited, must not
    splice the new source into the old class."""
    src = textwrap.dedent("""\
        class Edited:
            def _run(self, n):
                for _ in range(n):
                    self._step()

            def _step(self):
                self.x = 1
        """)
    (tmp_path / "edited_mod.py").write_text(src)
    monkeypatch.syspath_prepend(str(tmp_path))
    mod = importlib.import_module("edited_mod")
    splice(mod.Edited, "_run", ("_step",))  # unchanged: builds
    (tmp_path / "edited_mod.py").write_text("\n" + src)
    with pytest.raises(SpliceError, match="changed since Edited was loaded"):
        splice(mod.Edited, "_run", ("_step",))
