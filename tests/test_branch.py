"""Tests for the branch-prediction substrate: gshare, BTB, RAS, front end."""

from __future__ import annotations

import pytest
from hypothesis import given, strategies as st

from repro.branch import BTB, FrontEndPredictor, GShare, ReturnAddressStack
from repro.config.processor import BranchPredictorConfig
from repro.isa.opcodes import BranchKind


class TestGShare:
    def test_learns_always_taken(self):
        g = GShare(1024, 1, history_bits=4)
        pc = 0x400
        for _ in range(4):
            hist = g.history(0)
            g.train(0, pc, hist, True)
        assert g.predict(0, pc) is True

    def test_learns_always_not_taken(self):
        g = GShare(1024, 1, history_bits=0)
        pc = 0x404
        for _ in range(4):
            g.train(0, pc, 0, False)
        assert g.predict(0, pc) is False

    def test_history_is_per_context(self):
        g = GShare(1024, 2, history_bits=4)
        g.speculative_update(0, True)
        g.speculative_update(0, True)
        assert g.history(0) == 0b11
        assert g.history(1) == 0

    def test_history_restore(self):
        g = GShare(1024, 1, history_bits=4)
        snap = g.history(0)
        g.speculative_update(0, True)
        g.restore_history(0, snap)
        assert g.history(0) == snap

    def test_history_masked(self):
        g = GShare(1024, 1, history_bits=2)
        for _ in range(10):
            g.speculative_update(0, True)
        assert g.history(0) == 0b11

    def test_counter_saturates(self):
        g = GShare(256, 1, history_bits=0)
        for _ in range(10):
            g.train(0, 0x10, 0, True)
        assert g.counter_at(0x10, 0) == 3
        for _ in range(10):
            g.train(0, 0x10, 0, False)
        assert g.counter_at(0x10, 0) == 0

    def test_non_power_of_two_rejected(self):
        with pytest.raises(ValueError):
            GShare(1000, 1)

    def test_periodic_pattern_learned_with_history(self):
        # T T T N repeating: with >=2 history bits gshare distinguishes the
        # exit point; accuracy should be near-perfect after training.
        g = GShare(1024, 1, history_bits=4)
        pattern = [True, True, True, False] * 60
        correct = 0
        for taken in pattern:
            hist = g.history(0)
            pred = g.predict(0, pc=0x800)
            correct += pred == taken
            g.speculative_update(0, taken)  # perfect (non-spec) history
            g.train(0, 0x800, hist, taken)
        assert correct / len(pattern) > 0.85


class TestBTB:
    def test_miss_then_hit(self):
        btb = BTB(256, 4)
        assert btb.lookup(0x100) is None
        btb.update(0x100, 0x2000)
        assert btb.lookup(0x100) == 0x2000

    def test_update_replaces_target(self):
        btb = BTB(256, 4)
        btb.update(0x100, 0x2000)
        btb.update(0x100, 0x3000)
        assert btb.lookup(0x100) == 0x3000

    def test_lru_eviction_within_set(self):
        btb = BTB(8, 2)  # 4 sets, 2 ways
        # Three PCs mapping to the same set (stride = sets * 4 bytes).
        pcs = [0x0, 0x0 + 4 * 4, 0x0 + 8 * 4]
        btb.update(pcs[0], 1)
        btb.update(pcs[1], 2)
        btb.update(pcs[2], 3)  # evicts pcs[0]
        assert btb.lookup(pcs[0]) is None
        assert btb.lookup(pcs[1]) == 2
        assert btb.lookup(pcs[2]) == 3

    def test_lookup_refreshes_lru(self):
        btb = BTB(8, 2)
        pcs = [0x0, 0x10, 0x20]
        btb.update(pcs[0], 1)
        btb.update(pcs[1], 2)
        btb.lookup(pcs[0])       # refresh 0 -> LRU victim is now 1
        btb.update(pcs[2], 3)
        assert btb.lookup(pcs[0]) == 1
        assert btb.lookup(pcs[1]) is None

    def test_stats(self):
        """A lookup miss allocates nothing; only ``update`` installs."""
        btb = BTB(256, 4)
        assert btb.lookup(0x1) is None
        assert not any(btb._sets)
        btb.update(0x1, 0x2)
        assert btb.lookup(0x1) == 0x2
        assert sum(map(len, btb._sets)) == 1

    def test_bad_geometry(self):
        with pytest.raises(ValueError):
            BTB(10, 4)


class TestRAS:
    def test_push_pop(self):
        ras = ReturnAddressStack(16)
        ras.push(0x100)
        ras.push(0x200)
        assert ras.pop() == 0x200
        assert ras.pop() == 0x100

    def test_empty_pop_returns_zero(self):
        assert ReturnAddressStack(16).pop() == 0

    def test_tos_checkpoint_restore(self):
        ras = ReturnAddressStack(16)
        ras.push(0x100)
        snap = ras.tos
        ras.push(0x200)
        ras.pop()
        ras.pop()
        ras.restore(snap)
        assert ras.pop() == 0x100

    def test_wraps_when_full(self):
        ras = ReturnAddressStack(2)
        ras.push(1)
        ras.push(2)
        ras.push(3)  # overwrites 1
        assert ras.pop() == 3
        assert ras.pop() == 2
        assert len(ras) == 1  # slot holds stale value 3's position

    @given(st.lists(st.integers(min_value=4, max_value=2**30), max_size=20))
    def test_property_lifo_within_capacity(self, pushes):
        ras = ReturnAddressStack(64)
        for p in pushes:
            ras.push(p)
        for p in reversed(pushes):
            assert ras.pop() == p


class TestFrontEndPredictor:
    def make(self, contexts=1):
        return FrontEndPredictor(BranchPredictorConfig(), contexts)

    def test_cond_not_taken_gives_fallthrough(self):
        fe = self.make()
        pred = fe.predict(0, 0x1000, BranchKind.COND, 0x1004)
        # Initial PHT state is weakly-not-taken.
        assert pred.taken is False
        assert pred.target == 0x1004

    def test_jump_btb_miss_flag(self):
        fe = self.make()
        pred = fe.predict(0, 0x1000, BranchKind.JUMP, 0x1004)
        assert pred.taken is True
        assert pred.btb_miss is True

    def test_jump_after_training(self):
        fe = self.make()
        fe.train(0, 0x1000, 0, BranchKind.JUMP, True, 0x5000)
        pred = fe.predict(0, 0x1000, BranchKind.JUMP, 0x1004)
        assert pred.taken and not pred.btb_miss
        assert pred.target == 0x5000

    def test_call_pushes_return_then_ret_pops(self):
        fe = self.make()
        fe.train(0, 0x1000, 0, BranchKind.CALL, True, 0x5000)
        fe.predict(0, 0x1000, BranchKind.CALL, 0x1004)  # pushes 0x1004
        pred = fe.predict(0, 0x6000, BranchKind.RET, 0x6004)
        assert pred.taken
        assert pred.target == 0x1004

    def test_ret_with_empty_ras_uses_btb(self):
        fe = self.make()
        fe.train(0, 0x6000, 0, BranchKind.RET, True, 0x7777)
        pred = fe.predict(0, 0x6000, BranchKind.RET, 0x6004)
        assert pred.target == 0x7777

    def test_squash_recover_restores_history_and_ras(self):
        fe = self.make()
        hist0 = fe.gshare.history(0)
        tos0 = fe.ras[0].tos
        fe.predict(0, 0x1000, BranchKind.CALL, 0x1004)
        fe.predict(0, 0x2000, BranchKind.COND, 0x2004)
        fe.squash_recover(0, hist0, tos0, resolved_taken=None)
        assert fe.gshare.history(0) == hist0
        assert fe.ras[0].tos == tos0

    def test_squash_recover_reinserts_resolved_outcome(self):
        fe = self.make()
        fe.squash_recover(0, 0, 0, resolved_taken=True)
        assert fe.gshare.history(0) == 1
