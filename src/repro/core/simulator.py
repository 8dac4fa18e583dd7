"""The cycle-level SMT pipeline simulator.

One :class:`Simulator` instance models the machine of DESIGN.md §3: an
``x.y`` fetch unit driven by a pluggable fetch policy, a decode/rename front
end of configurable depth, shared issue queues with oldest-first
wakeup-select, pipelined functional units, loads executed against the
stateful memory hierarchy, per-thread ROBs, and full squash machinery for
branch-misprediction recovery and FLUSH-policy flushes.

Cycle phase order (within :meth:`_step`)::

    drain events -> commit -> issue -> dispatch -> fetch

so newly fetched instructions dispatch no earlier than ``frontend_depth``
cycles later and newly dispatched instructions issue the following cycle at
the earliest.

Hot-loop style note: this module deliberately binds instance attributes to
locals inside the per-cycle methods and uses plain tuples/ints for events —
per the hpc-parallel guide, attribute lookups and allocation are what
dominate interpreted simulator loops.

Execution paths. The stage methods are the only written form of the
pipeline. :meth:`run_cycles` runs them one of two ways: the staged path
calls :meth:`_step` once per cycle, which calls one method per stage; the
generated loop (:func:`_fast_loop`, from the :meth:`_run_fast` template) is
built from the same methods on first use, once per process, by
:func:`repro.core.splice.splice`, which splices every stage into one frame
and hoists their run-invariant bindings out of the loop (~1.5x faster on
CPython). :meth:`_fast_eligible` picks the staged path whenever any stage
in ``_FAST_STAGES`` is overridden — by a subclass or an instance attribute —
so monkeypatch-style instrumentation is always honored; the property tests
pin the two paths cycle-for-cycle equal.

Observability. Assigning ``sim.obs`` (an ``repro.obs.ObservabilityHub`` or
bare ``IntervalCollector``) before :meth:`run` turns on interval metrics:
the run loop pauses at window boundaries and lets the collector sample
quiescent state between ``run_cycles`` chunks. Chunk boundaries are
behavior-neutral, so results are bit-identical with or without it, and with
``obs is None`` (the default) the loop takes the exact pre-observability
control flow — zero cost when disabled. See docs/OBSERVABILITY.md.
"""

from __future__ import annotations

import functools
from collections import deque
from heapq import heappush, heappop
from typing import TYPE_CHECKING, Callable, Sequence

from repro.branch.predictor import FrontEndPredictor
from repro.config.machine import MachineConfig
from repro.config.simulation import SimulationConfig
from repro.core.events import (
    EV_CALL,
    EV_COMPLETE,
    EV_DECLARE,
    EV_DETECT,
    EV_FILL,
    EV_HYBRID_GATE,
    EV_UNGATE,
)
from repro.core.result import SimResult
from repro.core.splice import splice
from repro.core.stats import SimStats
from repro.core.thread import ThreadContext
from repro.isa.instruction import DynInstr
from repro.isa.opcodes import BranchKind, OpClass, QUEUE_OF
from repro.mem.hierarchy import MemoryHierarchy
from repro.utils.events import EventWheel

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.policies.base import FetchPolicy
    from repro.workloads.builder import ThreadProgram

__all__ = ["IDLE_FOREVER", "Simulator"]

#: :meth:`Simulator.quiescent_wake` return value for a machine that is idle
#: with *nothing* pending at all — no event can ever fire again, so a caller
#: may jump the lane to any horizon.
IDLE_FOREVER = 1 << 62

_OP_LOAD = int(OpClass.LOAD)
_OP_STORE = int(OpClass.STORE)
_OP_BRANCH = int(OpClass.BRANCH)
_BK_COND = int(BranchKind.COND)
_BK_CALL = int(BranchKind.CALL)
_BK_RET = int(BranchKind.RET)

#: Stage methods the generated loop (``_fast_loop``) splices.
_SPLICED = (
    "_step", "_complete", "_resolve_branch", "_fill", "_declare", "_detect", "_commit",
    "_issue", "_execute_load", "_complete_after", "_schedule", "_dispatch", "_fetch",
)

#: If any of these is overridden (subclass or per-instance monkeypatch),
#: ``run_cycles`` takes the staged ``_step`` path so the override is
#: honored: the spliced stages, plus the two the loop calls on its rare
#: paths (mispredict recovery, RET/CALL/JUMP prediction).
_FAST_STAGES = _SPLICED + ("_recover_mispredict", "_fetch_branch")


class Simulator:
    """Trace-driven SMT processor simulation of one workload under one policy."""

    def __init__(
        self,
        machine: MachineConfig,
        programs: Sequence["ThreadProgram"],
        policy: "FetchPolicy",
        simcfg: SimulationConfig,
    ) -> None:
        machine.validate()
        simcfg.validate()
        if not programs:
            raise ValueError("need at least one thread program")
        if len(programs) > machine.proc.max_contexts:
            raise ValueError(
                f"{len(programs)} threads exceed max_contexts={machine.proc.max_contexts}"
            )
        self.machine = machine
        self.simcfg = simcfg
        self.policy = policy
        proc = machine.proc

        self.threads = [
            ThreadContext(tid, p.trace, p.wp_supplier) for tid, p in enumerate(programs)
        ]
        self.num_threads = len(self.threads)
        self.hierarchy = MemoryHierarchy(machine.mem, self.num_threads)
        self.predictor = FrontEndPredictor(proc.branch, self.num_threads)
        self.stats = SimStats(self.num_threads)
        self.events = EventWheel()

        # Shared resources. Physical registers: committed architectural
        # state consumes 32 per file per context; the remainder renames.
        self.free_int_regs = proc.int_regs - 32 * self.num_threads
        self.free_fp_regs = proc.fp_regs - 32 * self.num_threads
        if self.free_int_regs <= 0 or self.free_fp_regs <= 0:
            raise ValueError("not enough physical registers for this thread count")
        self.q_free = [proc.int_queue, proc.fp_queue, proc.ls_queue]
        self._q_size = (proc.int_queue, proc.fp_queue, proc.ls_queue)
        self._units = (proc.int_units, proc.fp_units, proc.ls_units)
        self.ready: tuple[list, list, list] = ([], [], [])

        # Non-memory execution latencies indexed by OpClass.
        self._latency = (
            proc.int_latency,
            proc.fp_latency,
            0,  # LOAD: from the hierarchy
            proc.store_latency,
            proc.branch_latency,
        )

        self.cycle = 0
        self.gseq = 0
        #: Cycles jumped over as proven-quiescent spans (see
        #: :meth:`run_cycles_skip_idle`); 0 on the plain stepping paths.
        self.idle_cycles_skipped = 0
        self._line_shift = self.hierarchy.line_shift
        # The decode/rename pipe is SHARED and in-order: instructions rename
        # in fetch order, and a resource-blocked instruction at the rename
        # head stalls the whole front end. This is what makes the I-fetch
        # policy "determine how shared resources are filled" (paper §1) —
        # whatever fetch admits WILL reach the queues in that order.
        self.pipe: deque = deque()
        self._pipe_cap = proc.frontend_capacity
        self._hier_snap: dict | None = None
        self._warm_committed: list[int] | None = None

        # Hot-loop hoisted config scalars: the per-cycle methods read these
        # instead of chasing machine.proc/machine.mem attribute chains.
        self._fetch_width = proc.fetch_width
        self._fetch_threads = proc.fetch_threads
        self._frontend_depth = proc.frontend_depth
        self._rob_cap = proc.rob_entries
        self._issue_width = proc.issue_width
        self._commit_width = proc.commit_width
        self._mispredict_redirect_penalty = proc.mispredict_redirect_penalty
        self._misfetch_penalty = proc.misfetch_penalty
        self._l1_detect_extra = machine.mem.l1_detect_extra
        self._l2_declare_cycles = machine.mem.l2_declare_cycles

        # Incrementally-maintained occupancy: total ROB entries across
        # threads, so quiesced cycles skip the commit scan entirely.
        self._rob_total = 0

        # Single-cycle completions bypass the event wheel: anything issued
        # with latency 1 lands here and is drained at the start of the next
        # cycle, *after* that cycle's wheel bucket — the same position those
        # completions occupied when they were scheduled into the bucket
        # (they were always the bucket's newest entries).
        self._next_completes: list[DynInstr] = []

        #: Fetch-priority cache. ``order_dirty`` is raised by every mutation
        #: that can change a (cacheable) policy's fetch order — icount/dmiss/
        #: brcount changes, gate transitions, ROB/pipe occupancy changes and
        #: policy-counter updates (which all happen inside fetch/issue/fill/
        #: squash/commit, each of which raises the flag). Policies whose
        #: order depends on anything else must leave ``cacheable_order``
        #: False and are recomputed every cycle.
        self.order_dirty = True
        self._order_cache: list[int] = []

        #: Optional observability attachment (``repro.obs.ObservabilityHub``
        #: or ``IntervalCollector``). When set before :meth:`run`, the run
        #: loop pauses at interval-window boundaries and drives the
        #: ``on_run_start`` / ``on_window`` / ``on_run_end`` protocol.
        self.obs = None

        if simcfg.prewarm_caches:
            self._prewarm_caches()
        policy.attach(self)
        self._order_cacheable = policy.cacheable_order
        self._wants_load_fetch = policy.wants_load_fetch
        self._wants_load_exec = policy.wants_load_exec

    def _prewarm_caches(self) -> None:
        """Install each thread's steady-state-resident state: hot/stack data
        in L1D+L2, the warm tier in L2, the code footprint in L2 (the I-cache
        itself warms within a few hundred cycles once code is L2-resident —
        without this, first-touch code lines each cost a full memory round
        trip and short runs measure nothing but I-cache cold start), and the
        resident data pages in the D-TLB. Later threads may evict earlier
        threads' lines when the combined footprint exceeds capacity — exactly
        the SMT cache contention the policies then have to manage."""
        shift = self.hierarchy.line_shift
        dcache = self.hierarchy.dcache
        l2 = self.hierarchy.l2
        dtlb = self.hierarchy.dtlb
        line_bytes = 1 << shift
        for tc in self.threads:
            aspace = tc.trace.aspace
            for addr in aspace.l1_resident_lines():
                line = addr >> shift
                dcache.fill(line)
                l2.fill(line)
                dtlb.access(addr)
            for addr in aspace.l2_resident_lines():
                l2.fill(addr >> shift)
                dtlb.access(addr)
            code_base = tc.trace.code_base
            for addr in range(code_base, code_base + tc.trace.code_bytes, line_bytes):
                l2.fill(addr >> shift)
        dtlb.reset_stats()
        self.hierarchy.dcache.reset_stats()
        self.hierarchy.l2.reset_stats()

    # ------------------------------------------------------------------ API

    def schedule(self, cycle: int, event: tuple) -> None:
        """Schedule an event; policies use typed payloads (EV_UNGATE,
        EV_HYBRID_GATE) for timers so the wheel stays serializable."""
        self.events.schedule(cycle, event)

    def schedule_call(self, cycle: int, fn) -> None:
        """Schedule ``fn()`` to run at ``cycle`` (no-arg callable)."""
        self.events.schedule(cycle, (EV_CALL, fn))

    def run(self) -> SimResult:
        """Run warm-up + measurement windows; return the windowed result.

        The loop advances in chunks through :meth:`run_cycles` (which picks
        the generated loop when no stage is overridden), pausing only at the
        warm-up boundary; — when a commit limit is armed — at the same
        64-cycle-aligned checkpoints the original per-step loop polled at,
        and — when ``self.obs`` is attached — at interval-window boundaries
        so the collector can sample. All pause points are behavior-neutral.
        """
        obs = self.obs
        if obs is not None:
            obs.on_run_start(self)
            try:
                return self._run_loop(obs.window, obs.on_window)
            finally:
                obs.on_run_end(self)
        return self._run_loop(0, None)

    def _run_loop(
        self, window: int, on_window: Callable[[Simulator], object] | None
    ) -> SimResult:
        """The chunked warm-up + measurement loop: the one loop that runs a
        simulation to its end (:meth:`run`, and
        :func:`repro.core.columnar.run_checkpointed` for checkpointed runs).

        With ``window`` > 0 it also pauses at every multiple of ``window``;
        ``on_window(self)`` is called after every chunk, before the
        commit-limit test, whatever ended the chunk.
        """
        simcfg = self.simcfg
        total = simcfg.total_cycles
        warmup = simcfg.warmup_cycles
        limit = simcfg.commit_limit
        while self.cycle < total:
            cyc = self.cycle
            if cyc == warmup:
                self._begin_window()
            if cyc < warmup and warmup < total:
                stop = warmup
            else:
                stop = total
            if window:
                edge = (cyc // window + 1) * window  # next window multiple
                if edge < stop:
                    stop = edge
            if limit and self._warm_committed is not None:
                ckpt = (cyc | 63) + 1  # next 64-aligned cycle after cyc
                if ckpt < stop:
                    stop = ckpt
            self.run_cycles(stop - cyc)
            if on_window is not None:
                on_window(self)
            if (
                limit
                and self._warm_committed is not None
                and (self.cycle & 63) == 0
            ):
                committed = self.stats.committed
                base = self._warm_committed
                for t in range(self.num_threads):
                    if committed[t] - base[t] >= limit:
                        return self.result()
        return self.result()

    def run_cycles(self, n: int) -> None:
        """Advance the simulation by exactly ``n`` cycles.

        Dispatches to the generated loop unless a pipeline-stage method has
        been overridden (subclass or instance monkeypatch), in which case the
        staged path (:meth:`_run_fast` as written) honors the override.
        """
        if n > 0 and self._fast_eligible():
            _fast_loop()(self, n)
        else:
            self._run_fast(n)

    def _fast_eligible(self) -> bool:
        """True when the generated loop is behaviorally safe: every stage
        whose body it splices is still the stock implementation."""
        cls = type(self)
        if cls is not Simulator:
            for name in _FAST_STAGES:
                if getattr(cls, name) is not getattr(Simulator, name):
                    return False
        d = self.__dict__
        for name in _FAST_STAGES:
            if name in d:
                return False
        return True

    # -------------------------------------------------------- quiescence
    #
    # A cycle is *quiescent* when executing it would change nothing but the
    # cycle counters: no event bucket due, no latency-1 completions pending,
    # empty ready queues, no committable ROB head, no dispatchable (or
    # squashed) pipe head, and no thread whose fetch-ready cycle has
    # arrived. Everything that could end such a span is driven by a known
    # future cycle — the event wheel, the pipe head's frontend-depth
    # deadline, a thread's fetch-ready cycle — so the span can be *skipped*
    # wholesale instead of stepped (:meth:`run_cycles_skip_idle`). No run
    # loop skips: measured end to end, skipping bought nothing on batched
    # or serial runs (docs/PERFORMANCE.md, "Idle skipping").
    # tests/test_vec_kernel.py pins the primitives cycle-exact.

    def quiescent_wake(self, cycle: int | None = None) -> int | None:
        """Wake cycle if the machine is quiescent at ``cycle``, else None.

        For a quiescent machine the return value is the earliest future
        cycle at which anything can happen again (:data:`IDLE_FOREVER` when
        nothing is pending at all), so ``advance_idle(wake - cycle)`` is
        behavior-equivalent to stepping the whole span: every skipped cycle
        would have been a no-op. The check itself is read-only.

        Wake sources, and why they are exhaustive:

        - the event wheel (completions, fills, declares, un-gates — every
          latent state change is scheduled there);
        - the pipe head's ``fetch_cycle + frontend_depth`` deadline (a
          depth-ready but *resource-blocked* head contributes no wake:
          queue slots, ROB room and physical registers are only freed by
          commit/issue/squash, none of which can precede another wake);
        - the earliest ``fetch_ready_cycle`` over the current fetch order
          (threads outside the order — gated or counter-excluded — rejoin
          only when a counter changes, which takes an event or a commit).

        ``fetch_order`` is a pure ranking for every registry policy, so
        computing it here mutates nothing.
        """
        if cycle is None:
            cycle = self.cycle
        if self._next_completes:
            return None
        ready = self.ready
        if ready[0] or ready[1] or ready[2]:
            return None
        events = self.events
        wake = events.next_cycle() if events.pending else None
        if wake is not None and wake <= cycle:
            return None  # an event bucket is due this very cycle
        if wake is None:
            wake = IDLE_FOREVER
        threads = self.threads
        if self._rob_total:
            for tc in threads:
                rob = tc.rob
                if rob and rob[0].completed:
                    return None  # a commit happens this cycle
        pipe = self.pipe
        if pipe:
            head = pipe[0]
            if head.squashed:
                return None  # dispatch drains it this cycle
            depth_ready = head.fetch_cycle + self._frontend_depth
            if depth_ready > cycle:
                if depth_ready < wake:
                    wake = depth_ready
            elif (
                self.q_free[QUEUE_OF[head.op]] > 0
                and len(threads[head.tid].rob) < self._rob_cap
            ):
                d = head.dest
                if d < 0:
                    return None  # dispatchable now
                if d < 32:
                    if self.free_int_regs > 0:
                        return None
                elif self.free_fp_regs > 0:
                    return None
        if self._pipe_cap - len(pipe) > 0:
            if self._order_cacheable and not self.order_dirty:
                order = self._order_cache
            else:
                order = self.policy.fetch_order()
            for tid in order:
                frc = threads[tid].fetch_ready_cycle
                if frc <= cycle:
                    return None  # a fetch attempt happens this cycle
                if frc < wake:
                    wake = frc
        return wake

    def advance_idle(self, n: int) -> None:
        """Jump ``n`` cycles the caller has proven quiescent.

        Equivalent to ``run_cycles(n)`` across a span where
        :meth:`quiescent_wake` returned a wake ``>= self.cycle + n``:
        nothing in the machine can change before the wake, so only the
        cycle counters move.
        """
        if n <= 0:
            return
        self.cycle += n
        self.stats.cycles += n
        self.idle_cycles_skipped += n

    def run_cycles_skip_idle(self, n: int) -> None:
        """Advance exactly ``n`` cycles, jumping over quiescent spans.

        Behavior-identical to :meth:`run_cycles` — the skipped cycles are
        exactly those :meth:`quiescent_wake` proves to be no-ops — but
        idle spans cost one jump instead of per-cycle stepping; busy cycles
        step through the staged :meth:`_step`. Cycles skipped are accounted
        in :attr:`idle_cycles_skipped`.
        """
        end = self.cycle + n
        while self.cycle < end:
            wake = self.quiescent_wake()
            if wake is None:
                self._step()
            else:
                self.advance_idle(min(wake, end) - self.cycle)

    # ------------------------------------------------------------- fast loop

    def _run_fast(self, n: int) -> None:
        """Advance exactly ``n`` cycles, one :meth:`_step` per cycle: the
        staged path, and the template :func:`_fast_loop` splices every stage
        into. On CPython, entering a frame per stage per cycle and re-binding
        its locals costs more than the pipeline work (docs/PERFORMANCE.md).
        """
        for _ in range(n):
            self._step()

    def _begin_window(self) -> None:
        self.stats.snapshot()
        self._hier_snap = self.hierarchy.snapshot()
        self._warm_committed = list(self.stats.committed)

    def result(self) -> SimResult:
        """Windowed statistics as a :class:`SimResult`."""
        w = self.stats.window()
        cycles = w["cycles"] or 1
        hier = self.hierarchy
        if self._hier_snap is not None:
            snap = self._hier_snap
            loads = [hier.loads[t] - snap["loads"][t] for t in range(self.num_threads)]
            l1 = [
                hier.load_l1_misses[t] - snap["load_l1_misses"][t]
                for t in range(self.num_threads)
            ]
            l2 = [
                hier.load_l2_misses[t] - snap["load_l2_misses"][t]
                for t in range(self.num_threads)
            ]
        else:
            loads = list(hier.loads)
            l1 = list(hier.load_l1_misses)
            l2 = list(hier.load_l2_misses)
        return SimResult(
            machine=self.machine.name,
            policy=self.policy.name,
            benchmarks=tuple(tc.trace.profile.name for tc in self.threads),
            seed=self.simcfg.seed,
            cycles=cycles,
            ipc=[c / cycles for c in w["committed"]],
            committed=w["committed"],
            fetched=w["fetched"],
            squashed_mispredict=w["squashed_mispredict"],
            squashed_flush=w["squashed_flush"],
            flush_events=w["flush_events"],
            mispredicts=w["mispredicts"],
            branches_resolved=w["branches_resolved"],
            loads=loads,
            load_l1_misses=l1,
            load_l2_misses=l2,
        )

    # ------------------------------------------------------------- one cycle
    # Each stage opens with the bindings it reads (see repro.core.splice).

    def _step(self) -> None:
        """One cycle: drain events -> commit -> issue -> dispatch -> fetch.

        Quiesced structures are skipped wholesale: no pending events -> no
        drain, empty ROBs -> no commit scan, empty ready queues -> no issue
        scan, empty pipe -> no dispatch scan. The skips are pure fast
        paths — each stage method is still a no-op on empty state, so tests
        that monkeypatch a stage observe the same behaviour.
        """
        events = self.events
        buckets = events.buckets
        nc = self._next_completes
        ready = self.ready
        pipe = self.pipe
        stats = self.stats
        policy = self.policy
        cycle = self.cycle
        # Drain the wheel bucket first, then last cycle's latency-1
        # completions (their position at the bucket's tail, see
        # _complete_after).
        if events.pending:
            bucket = buckets.pop(cycle, None)
            if bucket is not None:
                events.pending -= len(bucket)
                for ev in bucket:
                    kind = ev[0]
                    if kind == EV_COMPLETE:
                        self._complete(ev[1])
                    elif kind == EV_FILL:
                        self._fill(ev[1])
                    elif kind == EV_DECLARE:
                        self._declare(ev[1])
                    elif kind == EV_UNGATE:  # only gating policies schedule it
                        policy._gate_count[ev[1]] -= 1
                        self.order_dirty = True
                    elif kind == EV_HYBRID_GATE:
                        i = ev[1]
                        if not i.squashed and not i.completed:
                            policy.gate_until_fill(i)
                    elif kind == EV_DETECT:
                        self._detect(ev[1])
                    else:  # EV_CALL
                        ev[1]()
        if nc:
            for i in nc:
                self._complete(i)
            nc.clear()
        if self._rob_total:
            self._commit()
        if ready[0] or ready[1] or ready[2]:
            self._issue()
        if pipe:
            self._dispatch()
        self._fetch()
        self.cycle += 1
        stats.cycles += 1

    # ---------------------------------------------------------------- events

    def _schedule(self, at: int, event: tuple) -> None:
        """``events.schedule(at, event)``, written here so the generated
        loop splices it instead of calling into the wheel."""
        events = self.events
        buckets = events.buckets
        b = buckets.get(at)
        if b is None:
            buckets[at] = [event]
        else:
            b.append(event)
        events.pending += 1

    def _complete_after(self, i: DynInstr, lat: int) -> None:
        """Schedule ``i``'s completion ``lat`` cycles from now.

        Latency-1 completions bypass the wheel: they ride
        ``_next_completes`` and drain at the start of the next cycle, after
        that cycle's wheel bucket — the position they held as the bucket's
        newest entries, since everything else landing in it was scheduled
        on an earlier cycle. The one exception, an ``l1_detect_extra == 1``
        EV_DETECT scheduled in the same issue phase, is observable by
        nothing: its handler touches only per-thread miss counters, which
        completions never read in the same cycle.
        """
        nc_append = self._next_completes.append
        if lat <= 1:
            nc_append(i)
        else:
            self._schedule(self.cycle + lat, (EV_COMPLETE, i))

    def _complete(self, i: DynInstr) -> None:
        ready = self.ready
        threads = self.threads
        if i.squashed:
            return
        i.completed = True
        i.complete_cycle = self.cycle
        deps = i.dependents
        if deps:
            for d in deps:
                if not d.squashed and d.num_wait > 0:
                    d.num_wait -= 1
                    if d.num_wait == 0 and not d.issued:
                        heappush(ready[QUEUE_OF[d.op]], (d.gseq, d))
            i.dependents = None
        if i.op == _OP_BRANCH:
            threads[i.tid].brcount -= 1
            self.order_dirty = True
            if not i.wrongpath:
                self._resolve_branch(i)

    def _resolve_branch(self, i: DynInstr) -> None:
        """Train the predictor on a resolved correct-path branch
        (``FrontEndPredictor.train``: the PHT counter the prediction read,
        then the BTB target) and recover if it was mispredicted."""
        branches_resolved = self.stats.branches_resolved
        predictor = self.predictor
        gshare = predictor.gshare
        gs_pht = gshare._pht
        gs_mask = gshare._mask
        btb_update = predictor.btb.update
        branches_resolved[i.tid] += 1
        if i.brkind == _BK_COND:
            gidx = ((i.pc >> 2) ^ i.ghist_snapshot) & gs_mask
            ctr = gs_pht[gidx]
            if i.taken:
                if ctr < 3:
                    gs_pht[gidx] = ctr + 1
            elif ctr > 0:
                gs_pht[gidx] = ctr - 1
        if i.taken:
            btb_update(i.pc, i.target)
        if i.mispredicted:
            self._recover_mispredict(i)

    def _recover_mispredict(self, i: DynInstr) -> None:
        """Mispredict tail of branch resolution: squash younger, redirect
        fetch, restore predictor state. Split from :meth:`_resolve_branch`
        so the correctly-predicted resolve path pays no call."""
        tid = i.tid
        self.stats.mispredicts[tid] += 1
        tc = self.threads[tid]
        self._squash_younger(tc, i.seq, flush=False, restore_predictor=False)
        tc.wrongpath = False
        tc.cursor = i.idx + 1
        penalty = 1 + self._mispredict_redirect_penalty
        redirect = self.cycle + penalty
        if redirect > tc.fetch_ready_cycle:
            tc.fetch_ready_cycle = redirect
        resolved = i.taken if i.brkind == _BK_COND else None
        self.predictor.squash_recover(tid, i.ghist_snapshot, i.ras_snapshot, resolved)
        # Re-apply the resolving branch's own RAS effect (its snapshot was
        # taken before the speculative push/pop).
        if i.brkind == _BK_CALL:
            self.predictor.ras[tid].push(i.pc + 4)
        elif i.brkind == _BK_RET:
            self.predictor.ras[tid].pop()

    def _fill(self, i: DynInstr) -> None:
        fill_arrived = self.hierarchy.fill_arrived
        line_shift = self._line_shift
        threads = self.threads
        on_l1d_fill = self.policy.on_l1d_fill
        fill_arrived(i.addr >> line_shift)
        if i.op == _OP_LOAD:
            if i.dmiss_counted:
                tc = threads[i.tid]
                if tc.dmiss > 0:
                    tc.dmiss -= 1
            self.order_dirty = True
            on_l1d_fill(i)

    def _declare(self, i: DynInstr) -> None:
        on_l2_declared = self.policy.on_l2_declared
        if i.squashed or i.completed:
            return
        i.declared = True
        on_l2_declared(i)

    def _detect(self, i: DynInstr) -> None:
        """Load ``i``'s L1-D miss reaches the front end: its thread counts
        one more in-flight miss (DWarn's Dmiss group, §3) until the fill
        arrives (:meth:`_fill`)."""
        threads = self.threads
        on_l1d_miss = self.policy.on_l1d_miss
        i.dmiss_counted = True
        threads[i.tid].dmiss += 1
        self.order_dirty = True
        on_l1d_miss(i)

    # ---------------------------------------------------------------- commit

    def _commit(self) -> None:
        threads = self.threads
        nthreads = self.num_threads
        stats = self.stats
        committed_stat = stats.committed
        loads_stat = stats.loads_committed
        stores_stat = stats.stores_committed
        budget = self._commit_width
        free_int = self.free_int_regs
        free_fp = self.free_fp_regs
        popped = 0
        start = self.cycle % nthreads
        for k in range(nthreads):
            idx = start + k
            if idx >= nthreads:
                idx -= nthreads
            tc = threads[idx]
            rob = tc.rob
            while budget and rob:
                i = rob[0]
                if not i.completed:
                    break
                rob.popleft()
                popped += 1
                budget -= 1
                tc.committed += 1
                committed_stat[idx] += 1
                op = i.op
                if op == _OP_LOAD:
                    loads_stat[idx] += 1
                elif op == _OP_STORE:
                    stores_stat[idx] += 1
                d = i.dest
                if d >= 0:
                    if d < 32:
                        free_int += 1
                    else:
                        free_fp += 1
                i.prev_writer1 = None  # cut rename-history chains (GC)
            if not budget:
                break
        if popped:
            self._rob_total -= popped
            self.order_dirty = True
            self.free_int_regs = free_int
            self.free_fp_regs = free_fp

    # ----------------------------------------------------------------- issue

    def _issue(self) -> None:
        """Oldest-first select across the three queues, honoring per-class
        functional-unit limits; squashed entries are skipped lazily. The
        queues hold (gseq, instr) tuples: heap ordering resolves on the int
        key at C speed without calling back into Python.

        Stores execute here, through ``MemoryHierarchy.store_access``: the
        store buffer hides their latency, so the access only moves lines
        and counts stats, plus a fill event on a fresh miss.
        """
        ready = self.ready
        r0 = ready[0]
        r1 = ready[1]
        r2 = ready[2]
        units = self._units
        threads = self.threads
        q_free = self.q_free
        latency = self._latency
        store_lat = latency[_OP_STORE]
        stats = self.stats
        store_access = self.hierarchy.store_access
        cycle = self.cycle
        budget = self._issue_width
        c0 = units[0]
        c1 = units[1]
        c2 = units[2]
        issued = 0
        while budget:
            best_gseq = -1
            best_q = -1
            if c0:
                while r0 and r0[0][1].squashed:
                    heappop(r0)
                if r0:
                    best_gseq = r0[0][0]
                    best_q = 0
            if c1:
                while r1 and r1[0][1].squashed:
                    heappop(r1)
                if r1 and (best_q < 0 or r1[0][0] < best_gseq):
                    best_gseq = r1[0][0]
                    best_q = 1
            if c2:
                while r2 and r2[0][1].squashed:
                    heappop(r2)
                if r2 and (best_q < 0 or r2[0][0] < best_gseq):
                    best_gseq = r2[0][0]
                    best_q = 2
            if best_q < 0:
                break
            if best_q == 0:
                i = heappop(r0)[1]
                c0 -= 1
            elif best_q == 1:
                i = heappop(r1)[1]
                c1 -= 1
            else:
                i = heappop(r2)[1]
                c2 -= 1
            budget -= 1
            issued += 1
            i.issued = True
            i.issue_cycle = cycle
            tid = i.tid
            threads[tid].icount -= 1
            q_free[best_q] += 1
            op = i.op
            if op == _OP_LOAD:
                self._execute_load(i, cycle)
            elif op == _OP_STORE:
                lat, fill_cycle, l1m, l2m, tlbm, merged = store_access(
                    tid, i.addr, cycle, not i.wrongpath
                )
                if l1m and not merged:
                    # a fresh store miss: the fill event releases the
                    # outstanding-line entry and policy gates
                    self._schedule(fill_cycle, (EV_FILL, i))
                self._complete_after(i, store_lat)
            else:
                self._complete_after(i, latency[op])
        if issued:
            stats.issued += issued
            self.order_dirty = True

    def _execute_load(self, i: DynInstr, cycle: int) -> None:
        """Execute load ``i`` issued at ``cycle``.

        ``MemoryHierarchy.load_access`` times and classifies the access
        (bank conflict, D-TLB, outstanding-fill merge, L1 and L2 probes and
        refills, with their stats); this stage completes the load, sets its
        miss flags, schedules the miss events and calls the policy hooks.
        """
        load_access = self.hierarchy.load_access
        policy = self.policy
        on_load_executed = policy.on_load_executed
        wants_load_exec = self._wants_load_exec
        l1_detect_extra = self._l1_detect_extra
        l2_declare_cycles = self._l2_declare_cycles
        wrongpath = i.wrongpath
        lat, fill_cycle, l1m, l2m, tlbm, merged = load_access(
            i.tid, i.addr, cycle, not wrongpath
        )
        i.fill_cycle = fill_cycle
        self._complete_after(i, lat)
        if tlbm:
            i.tlb_miss = True
            if not wrongpath:
                policy.on_dtlb_miss(i)
        if l1m:
            i.l1_miss = True
            if l1_detect_extra == 0:
                # Baseline: the fetch stage learns of the miss at probe time.
                self._detect(i)
            elif fill_cycle > cycle + l1_detect_extra:
                # Deeper pipeline (§6): the miss indication takes extra
                # cycles to reach the front end; misses that resolve first
                # are never seen by the counters at all.
                self._schedule(cycle + l1_detect_extra, (EV_DETECT, i))
            self._schedule(fill_cycle, (EV_FILL, i))
            if l2m:
                i.l2_miss = True
                if not wrongpath:
                    policy.on_l2_miss(i)
                    declare_at = cycle + l2_declare_cycles
                    if fill_cycle > declare_at:
                        self._schedule(declare_at, (EV_DECLARE, i))
        if wants_load_exec and not wrongpath:
            on_load_executed(i)

    # -------------------------------------------------------------- dispatch

    def _dispatch(self) -> None:
        """Rename/dispatch from the shared in-order frontend pipe.

        Up to ``fetch_width`` instructions leave the pipe per cycle, in fetch
        order, each needing an issue-queue entry, a ROB slot and (if it has a
        destination) a physical register. A blocked head stalls the whole
        pipe: the front end is a rigid in-order structure.
        """
        threads = self.threads
        q_free = self.q_free
        ready = self.ready
        stats = self.stats
        pipe = self.pipe
        frontend_depth = self._frontend_depth
        rob_cap = self._rob_cap
        cycle = self.cycle
        budget = self._fetch_width  # rename width tracks fetch width
        free_int = self.free_int_regs
        free_fp = self.free_fp_regs
        dispatched = 0
        while budget and pipe:
            i = pipe[0]
            if i.squashed:
                pipe.popleft()
                threads[i.tid].pipe_count -= 1
                # pipe_count feeds ThreadContext.inflight (DC-PRED's order
                # input), so draining squashed instrs can reorder fetch.
                self.order_dirty = True
                continue
            if i.fetch_cycle + frontend_depth > cycle:
                break
            q = QUEUE_OF[i.op]
            if q_free[q] <= 0:
                break
            tc = threads[i.tid]
            rob = tc.rob
            if len(rob) >= rob_cap:
                break
            d = i.dest
            if d >= 0:
                if d < 32:
                    if free_int <= 0:
                        break
                    free_int -= 1
                else:
                    if free_fp <= 0:
                        break
                    free_fp -= 1
            pipe.popleft()
            tc.pipe_count -= 1
            rm = tc.renmap
            nw = 0
            s = i.src1
            if s >= 0:
                p = rm[s]
                if p is not None and not p.completed:
                    nw = 1
                    pd = p.dependents
                    if pd is None:
                        p.dependents = [i]
                    else:
                        pd.append(i)
            s = i.src2
            if s >= 0:
                p = rm[s]
                if p is not None and not p.completed:
                    nw += 1
                    pd = p.dependents
                    if pd is None:
                        p.dependents = [i]
                    else:
                        pd.append(i)
            if d >= 0:
                i.prev_writer1 = rm[d]
                rm[d] = i
            q_free[q] -= 1
            rob.append(i)
            dispatched += 1
            i.dispatched = True
            i.dispatch_cycle = cycle
            budget -= 1
            if nw == 0:
                heappush(ready[q], (i.gseq, i))
            else:
                i.num_wait = nw
        if dispatched:
            stats.dispatched += dispatched
            self._rob_total += dispatched
        self.free_int_regs = free_int
        self.free_fp_regs = free_fp

    # ----------------------------------------------------------------- fetch

    def _fetch(self) -> None:
        """Fetch up to ``fetch_width`` instructions from at most
        ``fetch_threads`` threads in the policy's priority order, one
        I-cache line per thread per cycle, predicting branches as they
        are fetched."""
        threads = self.threads
        policy = self.policy
        fetch_order = policy.fetch_order
        on_load_fetched = policy.on_load_fetched
        pipe = self.pipe
        stats = self.stats
        fetched_stat = stats.fetched
        ifetch_ready = self.hierarchy.ifetch_ready
        predictor = self.predictor
        gshare = predictor.gshare
        gs_pht = gshare._pht
        gs_mask = gshare._mask
        gs_hist = gshare._hist
        gs_hist_mask = gshare._hist_mask
        btb = predictor.btb
        btb_sets = btb._sets
        btb_set_mask = btb._set_mask
        ras_list = predictor.ras
        instr_new = DynInstr.__new__
        line_shift = self._line_shift
        fetch_width = self._fetch_width
        fetch_threads = self._fetch_threads
        pipe_cap = self._pipe_cap
        misfetch_penalty = self._misfetch_penalty
        wants_load_fetch = self._wants_load_fetch
        order_cacheable = self._order_cacheable
        cycle = self.cycle
        # Priority recomputation hides behind the dirty flag: during long
        # memory stalls (nothing fetched/issued/filled/committed) the order
        # provably cannot change for cacheable policies, so the sort is
        # skipped entirely.
        if self.order_dirty or not order_cacheable:
            order = fetch_order()
            self._order_cache = order
            self.order_dirty = False
        else:
            order = self._order_cache
        if not order:
            return
        room = pipe_cap - len(pipe)
        if room <= 0:
            return  # the shared decode/rename pipe is backed up
        budget = fetch_width if fetch_width <= room else room
        slots = fetch_threads
        gseq = self.gseq
        slots_used = 0
        for tid in order:
            if budget <= 0 or slots <= 0:
                break
            tc = threads[tid]
            if tc.fetch_ready_cycle > cycle:
                continue
            trace = tc.trace
            (c_op, c_pc, c_dest, c_src1, c_src2, c_addr, c_brkind, c_taken,
             c_target) = trace.cols
            tlen = trace.length
            if tc.wrongpath:
                pc = tc.wp_pc
            else:
                pc = c_pc[tc.cursor % tlen]
            slots -= 1
            ready_at = ifetch_ready(tid, pc, cycle)
            if ready_at > cycle:
                tc.fetch_ready_cycle = ready_at
                continue
            first_line = pc >> line_shift
            seq = tc.seq_next
            burst = 0
            while budget > 0:
                # DynInstr.__init__ written out: the hottest allocation in
                # the simulator — direct slot stores skip the constructor
                # frame and its nine arguments (see docs/PERFORMANCE.md).
                if tc.wrongpath:
                    pc = tc.wp_pc
                    if pc >> line_shift != first_line:
                        break
                    # wrong-path records are a memoized pure function of pc
                    wp = tc.wp_supplier
                    rec = wp._memo.get(pc)
                    if rec is None:
                        rec = wp.supply(pc)
                    i = instr_new(DynInstr)
                    i.tid = tid
                    i.seq = seq
                    i.idx = -1
                    i.op = op = rec[0]
                    i.pc = pc
                    i.dest = rec[1]
                    i.src1 = rec[2]
                    i.src2 = rec[3]
                    i.addr = rec[4]
                    i.brkind = rec[5]
                    i.taken = rec[6]
                    i.target = rec[7]
                    i.wrongpath = True
                else:
                    cursor = tc.cursor
                    ri = cursor % tlen
                    pc = c_pc[ri]
                    if pc >> line_shift != first_line:
                        break
                    i = instr_new(DynInstr)
                    i.tid = tid
                    i.seq = seq
                    i.idx = cursor
                    i.op = op = c_op[ri]
                    i.pc = pc
                    i.dest = c_dest[ri]
                    i.src1 = c_src1[ri]
                    i.src2 = c_src2[ri]
                    i.addr = c_addr[ri]
                    i.brkind = c_brkind[ri]
                    i.taken = c_taken[ri]
                    i.target = c_target[ri]
                    i.wrongpath = False
                # Branch-only fields (pred_*, mispredicted, *_snapshot) and
                # load-only fields (pmeta, miss flags, fill_cycle) are set in
                # the per-op arms below — every reader is op-guarded, so
                # INT/FP/STORE skip ~13 slot stores each. num_wait is left
                # unset too: it is only read on instructions registered as
                # some producer's dependent, and dispatch writes it for
                # exactly those.
                i.fetch_cycle = cycle
                i.dispatched = False
                i.issued = False
                i.completed = False
                i.squashed = False
                i.gseq = gseq
                i.dependents = None
                seq += 1
                gseq += 1
                pipe.append(i)
                burst += 1
                budget -= 1
                if op == _OP_BRANCH:
                    tc.brcount += 1
                    i.mispredicted = False
                    if i.brkind == _BK_COND:
                        # FrontEndPredictor.predict for the dominant COND
                        # case; RET/CALL/JUMP take _fetch_branch.
                        predictor.lookups += 1
                        hist = gs_hist[tid]
                        gidx = ((pc >> 2) ^ hist) & gs_mask
                        ptaken = gs_pht[gidx] >= 2
                        gs_hist[tid] = ((hist << 1) | ptaken) & gs_hist_mask
                        btbm = False
                        if ptaken:
                            ptarget = None
                            bset = btb_sets[(pc >> 2) & btb_set_mask]
                            bn = len(bset)
                            for bi in range(bn):
                                ent = bset[bi]
                                if ent[0] == pc:
                                    if bi != bn - 1:
                                        bset.append(bset.pop(bi))
                                    btb.hits += 1
                                    ptarget = ent[1]
                                    break
                            if ptarget is None:
                                btb.misses += 1
                                btbm = True
                                ptarget = 0
                        else:
                            ptarget = pc + 4
                        i.pred_taken = ptaken
                        i.pred_target = ptarget
                        i.ghist_snapshot = hist
                        i.ras_snapshot = ras_list[tid]._tos
                        if tc.wrongpath:
                            # already on a wrong path: follow the prediction
                            if btbm:
                                tc.fetch_ready_cycle = cycle + 1 + misfetch_penalty
                                tc.wp_pc = pc + 4
                                break
                            if ptaken:
                                tc.wp_pc = ptarget
                                break
                            tc.wp_pc = pc + 4
                        else:
                            tc.cursor = cursor + 1
                            if btbm:
                                # predicted taken, no target: bubble until
                                # decode computes it; if the branch falls
                                # through, that redirect is the wrong path
                                tc.fetch_ready_cycle = cycle + 1 + misfetch_penalty
                                if not i.taken:
                                    i.mispredicted = True
                                    tc.wrongpath = True
                                    tc.wp_pc = i.target
                                break
                            if ptaken != i.taken:
                                i.mispredicted = True
                                tc.wrongpath = True
                                tc.wp_pc = ptarget if ptaken else pc + 4
                            elif ptaken and ptarget != i.target:
                                i.mispredicted = True
                                tc.wrongpath = True
                                tc.wp_pc = ptarget
                            if ptaken:
                                break
                    elif self._fetch_branch(tc, i):
                        break
                else:
                    if op == _OP_LOAD:
                        i.pmeta = None
                        i.l1_miss = False
                        i.l2_miss = False
                        i.tlb_miss = False
                        i.dmiss_counted = False
                        i.fill_cycle = -1
                        if wants_load_fetch:
                            on_load_fetched(i)
                    if tc.wrongpath:
                        tc.wp_pc = pc + 4
                    else:
                        tc.cursor = cursor + 1
            if burst:
                tc.seq_next = seq
                tc.pipe_count += burst
                tc.icount += burst
                tc.fetched += burst
                fetched_stat[tid] += burst
                slots_used += burst
        if slots_used:
            self.gseq = gseq
            stats.fetch_slots_used += slots_used
            self.order_dirty = True

    def _fetch_branch(self, tc: ThreadContext, i: DynInstr) -> bool:
        """Predict a fetched correct-path RET/CALL/JUMP; returns True if
        fetch must stop for this thread this cycle (taken redirect or
        misfetch bubble).

        Only the correct path reaches here: :meth:`_fetch` predicts COND
        branches itself, and the wrong-path supplier emits only non-branch
        and COND records.
        """
        pc = i.pc
        pred = self.predictor.predict(i.tid, pc, i.brkind, pc + 4)
        i.pred_taken = pred.taken
        i.pred_target = pred.target
        i.ghist_snapshot = pred.hist_snapshot
        i.ras_snapshot = pred.ras_snapshot

        tc.cursor += 1
        if pred.btb_miss:
            # Predicted taken, no target: bubble until decode computes it.
            tc.fetch_ready_cycle = self.cycle + 1 + self._misfetch_penalty
            if not i.taken:
                # Direction was wrong too: decode redirects to the computed
                # taken-target — the wrong path.
                i.mispredicted = True
                tc.wrongpath = True
                tc.wp_pc = i.target
            return True
        # Always taken: only the target can be wrong.
        if pred.target != i.target:
            i.mispredicted = True
            tc.wrongpath = True
            tc.wp_pc = pred.target
        return pred.taken

    # ---------------------------------------------------------------- squash

    def _squash_younger(
        self,
        tc: ThreadContext,
        pivot_seq: int,
        flush: bool,
        restore_predictor: bool,
    ) -> int:
        """Squash every instruction of ``tc`` younger than ``pivot_seq``.

        Walks youngest-to-oldest (frontend first, then ROB tail) so rename-map
        restoration unwinds correctly. When ``restore_predictor`` is set the
        branch history/RAS are rolled back to the snapshot of the *oldest*
        squashed branch (the state right after the youngest surviving branch).
        The per-instruction squash bookkeeping is one inline loop over the
        collected victims: this runs on every mispredict recovery, typically
        a couple dozen instructions a pop, and the freed physical registers
        are batched into one update at the end (no squash hook reads them).
        """
        tid = tc.tid
        # The thread's instructions still in the shared decode/rename pipe
        # are all younger than any dispatched pivot; once marked squashed the
        # pipe drain in _dispatch discards them. The ROB tail follows.
        victims = []
        if tc.pipe_count:
            victims = [
                i for i in reversed(self.pipe)
                if i.tid == tid and not i.squashed and i.seq > pivot_seq
            ]
        in_pipe = len(victims)
        rob = tc.rob
        while rob and rob[-1].seq > pivot_seq:
            victims.append(rob.pop())
        count = len(victims)
        if not count:
            return 0

        best_seq = None
        best_hist = 0
        best_ras = 0
        policy = self.policy
        wants_squash = policy.wants_squash
        on_squash_instr = policy.on_squash_instr
        q_free = self.q_free
        queue_of = QUEUE_OF
        op_branch = _OP_BRANCH
        renmap = tc.renmap
        free_int = 0
        free_fp = 0
        for i in victims:
            i.squashed = True
            if not i.issued:
                tc.icount -= 1
            op = i.op
            if op == op_branch:
                if not i.completed:
                    tc.brcount -= 1
                if best_seq is None or i.seq < best_seq:
                    best_seq = i.seq
                    best_hist = i.ghist_snapshot
                    best_ras = i.ras_snapshot
            if i.dispatched:
                if not i.issued:
                    q_free[queue_of[op]] += 1
                d = i.dest
                if d >= 0:
                    if d < 32:
                        free_int += 1
                    else:
                        free_fp += 1
                    if renmap[d] is i:
                        renmap[d] = i.prev_writer1
            if wants_squash:
                on_squash_instr(i)
        stats = self.stats
        (stats.squashed_flush if flush else stats.squashed_mispredict)[tid] += count
        if free_int:
            self.free_int_regs += free_int
        if free_fp:
            self.free_fp_regs += free_fp
        if count > in_pipe:
            self._rob_total -= count - in_pipe
        self.order_dirty = True

        if restore_predictor and best_seq is not None:
            self.predictor.squash_recover(tid, best_hist, best_ras, None)
        return count

    # ------------------------------------------------------------ FLUSH hook

    def flush_after(self, load: DynInstr) -> int:
        """FLUSH-policy action: squash everything in ``load``'s thread younger
        than the load, rewind the trace cursor, and leave the thread on the
        correct path. Returns the number of squashed instructions.

        The caller (the policy) is responsible for fetch-gating the thread
        until the load's fill (minus the advance signal).
        """
        if load.wrongpath or load.idx < 0:
            raise ValueError("cannot flush after a wrong-path instruction")
        tc = self.threads[load.tid]
        count = self._squash_younger(tc, load.seq, flush=True, restore_predictor=True)
        tc.wrongpath = False
        tc.cursor = load.idx + 1
        self.stats.flush_events[load.tid] += 1
        return count

    # ---------------------------------------------------------- introspection

    def validate_state(self) -> None:
        """Audit the resource-conservation invariants; raises AssertionError
        on any violation. Cheap enough to sprinkle through long experiments
        when debugging; the test suite and the property tests run it after
        every kind of simulation.

        Invariants checked:

        - per-thread ROBs are in program order and hold no squashed instrs;
        - issue-queue free counts + waiting occupants == configured sizes;
        - free register counts + registers held by in-flight destinations ==
          the rename pools;
        - each thread's ICOUNT equals its pre-issue population;
        - per-thread pipe counts match the shared pipe's contents;
        - rename maps never point at squashed producers;
        - in-flight-miss counters are non-negative;
        - the incrementally-maintained occupancy/branch counters
          (``_rob_total``, ``ThreadContext.brcount``) match full recounts.
        """
        used = [0, 0, 0]
        held_int = held_fp = 0
        live_pipe = [0] * self.num_threads
        total_pipe = [0] * self.num_threads
        live_branches = [0] * self.num_threads
        for i in self.pipe:
            total_pipe[i.tid] += 1
            if not i.squashed:
                live_pipe[i.tid] += 1
                if i.op == _OP_BRANCH:
                    live_branches[i.tid] += 1
        rob_total = 0
        for tc in self.threads:
            seqs = [i.seq for i in tc.rob]
            assert seqs == sorted(seqs), f"t{tc.tid}: ROB out of order"
            rob_total += len(tc.rob)
            waiting = 0
            for i in tc.rob:
                assert not i.squashed, f"t{tc.tid}: squashed instr in ROB"
                if not i.issued:
                    used[QUEUE_OF[i.op]] += 1
                    waiting += 1
                if i.dest >= 32:
                    held_fp += 1
                elif i.dest >= 0:
                    held_int += 1
                if i.op == _OP_BRANCH and not i.completed:
                    live_branches[i.tid] += 1
            assert tc.icount == live_pipe[tc.tid] + waiting, (
                f"t{tc.tid}: icount {tc.icount} != pipe {live_pipe[tc.tid]}"
                f" + waiting {waiting}"
            )
            assert tc.pipe_count == total_pipe[tc.tid], f"t{tc.tid}: pipe_count drift"
            assert tc.dmiss >= 0, f"t{tc.tid}: negative dmiss"
            assert tc.brcount == live_branches[tc.tid], (
                f"t{tc.tid}: brcount {tc.brcount} != recount {live_branches[tc.tid]}"
            )
            for prod in tc.renmap:
                assert prod is None or not prod.squashed, (
                    f"t{tc.tid}: rename map points at squashed instr"
                )
        assert self._rob_total == rob_total, (
            f"_rob_total {self._rob_total} != recount {rob_total}"
        )
        proc = self.machine.proc
        n = self.num_threads
        for q in range(3):
            assert self.q_free[q] + used[q] == self._q_size[q], f"queue {q} leak"
        assert self.free_int_regs + held_int == proc.int_regs - 32 * n, "int reg leak"
        assert self.free_fp_regs + held_fp == proc.fp_regs - 32 * n, "fp reg leak"

    def occupancy(self) -> dict:
        """Live resource usage (testing/debugging hook)."""
        return {
            "free_int_regs": self.free_int_regs,
            "free_fp_regs": self.free_fp_regs,
            "q_free": list(self.q_free),
            "rob": [len(tc.rob) for tc in self.threads],
            "pipe": [tc.pipe_count for tc in self.threads],
            "icount": [tc.icount for tc in self.threads],
            "dmiss": [tc.dmiss for tc in self.threads],
        }



@functools.cache
def _fast_loop() -> Callable[[Simulator, int], None]:
    """The production loop: the ``Simulator._run_fast`` template with every
    stage in ``_SPLICED`` spliced in (:func:`repro.core.splice.splice`),
    built on first use, once per process."""
    return splice(Simulator, "_run_fast", _SPLICED)
