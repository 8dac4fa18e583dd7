"""DC-PRED (Limousin et al. [7]) — the FETCH-DM / LIMIT-RESOURCES cell of
the paper's Table 1 classification. Implemented as an extension: the paper
describes but does not re-evaluate it.

An L2-miss predictor consulted at fetch flags "delinquent" loads; while a
thread has a predicted-delinquent load in flight it is restricted to a
maximum share of the machine's resources. We enforce the restriction at the
fetch boundary (the thread is excluded from fetch while it holds more than
``resource_cap`` in-flight instructions and has a predicted miss
outstanding), which bounds its queue/register footprint the same way a
dispatch-side limiter would.

The paper's criticism (§2.1): the fetch-stage DM misses many L2-missing
loads (predictor coverage), so unpredicted misses still clog the shared
resources.
"""

from __future__ import annotations

from repro.core.policies.base import FetchPolicy
from repro.core.policies.predictors import MissPredictor
from repro.isa.instruction import DynInstr
from repro.isa.opcodes import OpClass

__all__ = ["DCPredPolicy"]


class DCPredPolicy(FetchPolicy):
    name = "dcpred"
    cacheable_order = True  # function of flagged-load counts and occupancy
    wants_load_fetch = True
    wants_load_exec = True
    wants_squash = True

    def __init__(self, resource_cap: int = 24, predictor_entries: int = 4096) -> None:
        super().__init__()
        if resource_cap < 1:
            raise ValueError("resource_cap must be >= 1")
        self.resource_cap = resource_cap
        self.predictor = MissPredictor(predictor_entries)
        self._flagged: list[int] = []  # predicted-delinquent loads in flight

    def setup(self) -> None:
        self._flagged = [0] * self.sim.num_threads

    def fetch_order(self) -> list[int]:
        threads = self.sim.threads
        cap = self.resource_cap
        flagged = self._flagged
        eligible = [
            t
            for t in range(self.sim.num_threads)
            if flagged[t] == 0 or threads[t].inflight < cap
        ]
        return self.icount_order(eligible)

    def explain_thread(self, info: dict, tc) -> None:
        """Add DC-PRED's inputs: flagged-load count and the resource cap."""
        flagged = self._flagged[tc.tid]
        info["flagged"] = flagged
        info["inflight"] = tc.inflight
        if flagged and tc.inflight >= self.resource_cap:
            info["reason"] = (
                f"resource-capped ({flagged} flagged loads, "
                f"inflight={tc.inflight}>={self.resource_cap})"
            )
        elif flagged:
            info["reason"] = (
                f"{flagged} flagged loads, under cap "
                f"(inflight={tc.inflight}<{self.resource_cap})"
            )
        else:
            info["reason"] = f"no flagged loads, icount={tc.icount}"

    # -- per-load protocol (mirrors PDG's, but predicting L2 misses) ----------

    def on_load_fetched(self, i: DynInstr) -> None:
        if self.predictor.predict(i.pc):
            self._flagged[i.tid] += 1
            i.pmeta = "F"

    def on_load_executed(self, i: DynInstr) -> None:
        predicted = i.pmeta == "F"
        self.predictor.train(i.pc, i.l2_miss)
        if i.l2_miss:
            if predicted:
                i.pmeta = "W"  # release at fill
        elif predicted:
            self._flagged[i.tid] -= 1  # resolved faster than predicted
            i.pmeta = None

    def on_l1d_fill(self, i: DynInstr) -> None:
        if i.pmeta == "W":
            self._flagged[i.tid] -= 1
            i.pmeta = None

    def on_squash_instr(self, i: DynInstr) -> None:
        # "F" loads (not yet executed, or wrong-path) release here; "W" loads
        # release at their unconditional fill event.
        if i.op == OpClass.LOAD and i.pmeta == "F":
            self._flagged[i.tid] -= 1
            i.pmeta = None
