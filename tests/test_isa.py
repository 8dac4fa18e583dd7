"""Tests for the ISA model: op classes, registers, DynInstr lifecycle fields."""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

import repro

from repro.isa import (
    NUM_ARCH_REGS,
    NUM_INT_ARCH_REGS,
    REG_NONE,
    BranchKind,
    DynInstr,
    OpClass,
    QUEUE_FP,
    QUEUE_INT,
    QUEUE_LS,
    QUEUE_OF,
    fp_reg,
    int_reg,
    is_fp_reg,
)


class TestQueueMapping:
    def test_int_ops_use_int_queue(self):
        assert QUEUE_OF[OpClass.INT] == QUEUE_INT
        assert QUEUE_OF[OpClass.BRANCH] == QUEUE_INT

    def test_memory_ops_use_ls_queue(self):
        assert QUEUE_OF[OpClass.LOAD] == QUEUE_LS
        assert QUEUE_OF[OpClass.STORE] == QUEUE_LS

    def test_fp_queue(self):
        assert QUEUE_OF[OpClass.FP] == QUEUE_FP

    def test_covers_all_opclasses(self):
        assert len(QUEUE_OF) == len(OpClass)


class TestRegisters:
    def test_flat_layout(self):
        assert int_reg(0) == 0
        assert int_reg(31) == 31
        assert fp_reg(0) == NUM_INT_ARCH_REGS
        assert fp_reg(31) == NUM_ARCH_REGS - 1

    def test_is_fp_reg(self):
        assert not is_fp_reg(int_reg(5))
        assert is_fp_reg(fp_reg(5))

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            int_reg(32)
        with pytest.raises(ValueError):
            fp_reg(-1)


class TestDynInstr:
    def make(self, **kw):
        defaults = dict(
            tid=0, seq=1, idx=2, op=int(OpClass.LOAD), pc=0x1000, dest=3,
            src1=4, src2=REG_NONE, addr=0xABC0, brkind=int(BranchKind.NONE),
        )
        defaults.update(kw)
        return DynInstr(**defaults)

    def test_initial_state(self):
        i = self.make()
        assert not i.dispatched and not i.issued and not i.completed
        assert not i.squashed and not i.wrongpath and not i.mispredicted
        assert i.num_wait == 0
        assert not i.dependents  # lazily allocated: None until first waiter
        assert i.fill_cycle == -1

    def test_slots_reject_adhoc_attributes(self):
        i = self.make()
        with pytest.raises(AttributeError):
            i.not_a_field = 1  # __slots__ is load-bearing for sim speed

    def test_repr_mentions_state(self):
        i = self.make()
        i.dispatched = True
        assert "D" in repr(i)

    def test_every_slot_is_read(self):
        """Each ``DynInstr`` slot is read somewhere in the package, outside
        the class itself and the checkpoint codec (which copies every slot):
        a slot only the pipeline writes costs a store per instruction and a
        checkpoint column, and buys nothing."""
        root = Path(repro.__file__).resolve().parent
        skip = {root / "isa" / "instruction.py", root / "core" / "columnar.py"}
        read: set[str] = set()
        for path in root.rglob("*.py"):
            if path in skip:
                continue
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                    read.add(node.attr)
        unread = [name for name in DynInstr.__slots__ if name not in read]
        assert not unread, f"DynInstr slots never read: {unread}"
