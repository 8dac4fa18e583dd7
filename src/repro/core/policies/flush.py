"""FLUSH (Tullsen & Brown [11]).

Same detection moment as STALL (declared L2 miss / D-TLB miss), but the
response *squashes* every instruction of the thread after the offending load
— instantly freeing its issue-queue entries and physical registers for the
other threads — and fetch-gates the thread until the load returns. The freed
resources are FLUSH's strength on memory-bound workloads; the refetched
instructions (Figure 2: 35% of fetches on MEM workloads) are its cost.
"""

from __future__ import annotations

from repro.core.policies.base import FetchPolicy, GatingMixin
from repro.isa.instruction import DynInstr

__all__ = ["FlushPolicy"]


class FlushPolicy(GatingMixin, FetchPolicy):
    name = "flush"
    cacheable_order = True  # function of gate state and icount only

    def setup(self) -> None:
        self.setup_gating()

    def fetch_order(self) -> list[int]:
        return self.icount_order(self.ungated_tids())

    def _flush_and_gate(self, i: DynInstr) -> None:
        if i.wrongpath or i.idx < 0 or i.squashed or i.completed:
            return
        if not self.can_gate(i.tid):
            return
        # Flush only if the gate will actually hold (fill still ahead);
        # otherwise squashing would cost refetches with no resource gain.
        if self.gate_until_fill(i):
            self.sim.flush_after(i)

    def on_l2_declared(self, i: DynInstr) -> None:
        self._flush_and_gate(i)

    def on_dtlb_miss(self, i: DynInstr) -> None:
        self._flush_and_gate(i)
