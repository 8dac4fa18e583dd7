"""PDG — predictive data gating (El-Moursy & Albonesi [3]).

Like DG, but acts in the *fetch* stage using an L1-miss predictor: a thread
is gated while (loads predicted to miss) + (loads predicted to hit that in
reality missed) is at least ``threshold`` (n=1, as in [3] and the paper).

Per-load counting protocol (tracked in ``DynInstr.pmeta``):

===============  ============================================== ===========
state            meaning                                         counted?
===============  ============================================== ===========
``"F"``          predicted-miss at fetch, not yet executed       yes
``"W"``          actually missed (either prediction), fill pending  yes
``None``         not counted (predicted hit so far, or released) no
===============  ============================================== ===========

Releases: predicted-miss loads that actually *hit* release at execute;
missing loads release at fill; squashed counted loads release at squash.
The paper's two criticisms fall out naturally: predictor mistakes cause
unnecessary stalls, and gating at fetch on each predicted miss serializes
loads that would have missed in parallel.
"""

from __future__ import annotations

from repro.core.policies.base import FetchPolicy
from repro.core.policies.predictors import MissPredictor
from repro.isa.instruction import DynInstr
from repro.isa.opcodes import OpClass

__all__ = ["PredictiveDataGatingPolicy"]


class PredictiveDataGatingPolicy(FetchPolicy):
    name = "pdg"
    cacheable_order = True  # function of the per-thread predicted-miss count
    wants_load_fetch = True
    wants_load_exec = True
    wants_squash = True

    def __init__(self, threshold: int = 1, predictor_entries: int = 4096) -> None:
        super().__init__()
        if threshold < 1:
            raise ValueError("PDG threshold must be >= 1")
        self.threshold = threshold
        self.predictor = MissPredictor(predictor_entries)
        self._count: list[int] = []

    def setup(self) -> None:
        self._count = [0] * self.sim.num_threads

    def fetch_order(self) -> list[int]:
        thr = self.threshold
        cnt = self._count
        eligible = [t for t in range(self.sim.num_threads) if cnt[t] < thr]
        return self.icount_order(eligible)

    # -- counting protocol -----------------------------------------------------

    def on_load_fetched(self, i: DynInstr) -> None:
        if self.predictor.predict(i.pc):
            self._count[i.tid] += 1
            i.pmeta = "F"

    def on_load_executed(self, i: DynInstr) -> None:
        predicted = i.pmeta == "F"
        self.predictor.train(i.pc, i.l1_miss)
        if i.l1_miss:
            if not predicted:
                self._count[i.tid] += 1  # predicted hit, actually missed
            i.pmeta = "W"
        elif predicted:
            self._count[i.tid] -= 1  # predictor was wrong; release now
            i.pmeta = None

    def on_l1d_fill(self, i: DynInstr) -> None:
        if i.pmeta == "W":
            self._count[i.tid] -= 1
            i.pmeta = None

    def on_squash_instr(self, i: DynInstr) -> None:
        # Counted-at-fetch loads that never executed release here; "W" loads
        # release at their (unconditional) fill event instead.
        if i.op == OpClass.LOAD and i.pmeta == "F":
            self._count[i.tid] -= 1
            i.pmeta = None
