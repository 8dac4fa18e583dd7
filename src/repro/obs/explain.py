"""Policy-decision explainability: why did each thread get its fetch
priority this cycle?

The paper's argument for DWarn is an argument about *ordering*: a thread
with in-flight L1-D misses should slip down the priority list before its
L2 miss is confirmed, but — unlike STALL/FLUSH — never be fully gated on a
mere L1 miss. End-of-run aggregates can't show that ordering happening;
the :class:`ExplainRecorder` can. It wraps ``policy.fetch_order`` (an
instance attribute both execution paths re-read, so the generated loop is
retained) and records, per fetch decision, the chosen priority order plus
each thread's inputs to that decision — ICOUNT value, in-flight-miss
(dmiss) count, Normal-vs-Dmiss group membership, gate state — as reported
by the policy's own ``explain_decision`` hook.

Two recording granularities:

- ``every_cycle=True`` (default): the recorder clears the simulator's
  fetch-order cache flag so the policy is consulted every cycle — one
  :class:`FetchDecision` per fetch cycle, exactly as ``dwarn-sim explain``
  presents it. Cacheable policies are pure functions of simulator state,
  so forcing the recompute cannot change the orders chosen (the parity
  test pins digests bit-identical).
- ``every_cycle=False``: records only when the order is actually
  recomputed (``order_dirty`` transitions); each record then stands for a
  decision that *held* until the next record's cycle.

A decision record is JSONL-exportable via :meth:`ExplainRecorder.to_jsonl`
and human-renderable via :meth:`ExplainRecorder.render`.
"""

from __future__ import annotations

import json
from collections import deque
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.simulator import Simulator

__all__ = ["ExplainRecorder", "FetchDecision"]


@dataclass
class FetchDecision:
    """One recorded fetch-priority decision.

    ``order`` is the priority-ordered thread-id tuple the policy returned
    (omitted threads were gated); ``threads`` holds one dict per hardware
    context, in tid order, with at least ``tid``/``rank``/``icount``/
    ``dmiss``/``gated``/``reason`` (policies may add fields — see
    ``FetchPolicy.explain_decision``).
    """

    cycle: int
    order: tuple[int, ...]
    threads: list[dict]

    def as_dict(self) -> dict:
        """Plain-dict form for JSON export."""
        return {"cycle": self.cycle, "order": list(self.order),
                "threads": self.threads}

    def line(self) -> str:
        """Compact one-line rendering (the ``dwarn-sim explain`` format)."""
        order = ",".join(str(t) for t in self.order) or "-"
        parts = []
        for th in self.threads:
            bits = [f"T{th['tid']}"]
            rank = th.get("rank")
            bits.append("gated" if th.get("gated") else
                        (f"rank={rank}" if rank is not None else "omitted"))
            bits.append(f"icount={th.get('icount')}")
            if th.get("dmiss") is not None:
                bits.append(f"dmiss={th.get('dmiss')}")
            reason = th.get("reason")
            if reason:
                bits.append(f"[{reason}]")
            parts.append(" ".join(bits))
        return f"cycle {self.cycle:>8}  order {order:<8} | " + "  ".join(parts)


class ExplainRecorder:
    """Ring-buffered recorder of fetch-priority decisions (single-use).

    Usage (directly, or through :class:`repro.obs.ObservabilityHub`)::

        rec = ExplainRecorder(capacity=4096)
        rec.attach(sim)
        sim.run()
        print(rec.render(last=20))
    """

    def __init__(self, capacity: int = 4096, every_cycle: bool = True) -> None:
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        self.capacity = capacity
        self.every_cycle = every_cycle
        self.decisions: deque[FetchDecision] = deque(maxlen=capacity)
        self.recorded = 0
        self._sim: "Simulator | None" = None

    @property
    def dropped(self) -> int:
        """Decisions the ring buffer has let go."""
        return self.recorded - len(self.decisions)

    def attach(self, sim: "Simulator") -> None:
        """Wrap ``sim.policy.fetch_order`` with the recording shim.

        The wrap is an instance attribute: the generated loop re-hoists
        ``policy.fetch_order`` on every ``run_cycles`` call and the staged
        path reads it per fetch, so both honor the shim and the fast path
        stays eligible.
        """
        if self._sim is not None:
            raise RuntimeError(
                "ExplainRecorder is single-use: create a fresh recorder per run"
            )
        self._sim = sim
        policy = sim.policy
        orig = policy.fetch_order
        decisions = self.decisions
        if self.every_cycle:
            # Both paths read this live; forcing recompute every cycle is
            # behavior-neutral for cacheable (pure) policies.
            sim._order_cacheable = False

        def fetch_order() -> list[int]:
            order = orig()
            self.recorded += 1
            decisions.append(
                FetchDecision(
                    cycle=sim.cycle,
                    order=tuple(order),
                    threads=policy.explain_decision(order),
                )
            )
            return order

        policy.fetch_order = fetch_order

    # -- access ----------------------------------------------------------

    def tail(self, n: int) -> list[FetchDecision]:
        """The newest ``n`` decisions, oldest of them first."""
        if n <= 0:
            return []
        return list(self.decisions)[-n:]

    def render(self, last: int = 20) -> str:
        """Human-readable rendering of the newest ``last`` decisions."""
        lines = [d.line() for d in self.tail(last)]
        if self.dropped:
            lines.insert(0, f"... {self.dropped} earlier decisions dropped "
                            f"(ring capacity {self.capacity})")
        return "\n".join(lines)

    def to_jsonl(self, path: str | Path) -> Path:
        """Write the ring's decisions (oldest first) as JSON Lines."""
        out = Path(path)
        with out.open("w") as fh:
            for d in self.decisions:
                fh.write(json.dumps(d.as_dict()) + "\n")
        return out
