"""The SST core: a two-strand checkpoint/replay pipeline.

Execution alternates between two regimes:

* **Normal mode** — plain scoreboarded in-order execution updating
  committed state directly, identical to the in-order baseline, until a
  deferrable event (a triggering load miss, optionally a long integer
  op) occurs and a checkpoint is free.
* **Speculative episode** — a cycle-stepped loop running up to two
  strands that share the pipeline's issue width:

  - the *ahead strand* keeps executing the program; instructions with
    NA operands park in the deferred queue (DQ) with their available
    operands captured, stores buffer speculatively, NA-operand branches
    follow the predictor;
  - the *replay strand* walks the DQ head once deferred data returns.
    With a free checkpoint it first takes a *boundary* checkpoint so
    the ahead strand can keep running — that concurrency is
    Simultaneous Speculative Threading.  With no free checkpoint the
    ahead strand pauses (plain execute-ahead).

  Epochs between checkpoints commit oldest-first once everything below
  the boundary is resolved; a failed validation (deferred branch or
  jump mispredict, memory-order violation) rolls back to the oldest
  checkpoint; resource exhaustion (DQ or store buffer full) degrades
  the episode to **scout** (prefetch-only run-ahead, always rolled
  back, leaving warm caches behind).

The core executes functionally — including down predicted wrong paths
of deferred branches — so rollback/replay correctness is real and is
validated against the golden interpreter by the test suite.
"""

from __future__ import annotations

import dataclasses
import time
from heapq import heappop, heappush
from typing import Dict, List, Optional, Tuple

from repro.analysis.sanitizer import SSTSanitizer, make_sanitizer
from repro.analysis.taint_tracker import make_taint_tracker
from repro.baselines.core_base import (
    Core,
    CoreResult,
    DEFAULT_MAX_INSTRUCTIONS,
)
from repro.branch import BranchUnit
from repro.config import DeferTrigger, SSTConfig
from repro.core.checkpoint import Checkpoint, CheckpointFile
from repro.core.deferred_queue import DeferredQueue, DQEntry
from repro.core.modes import ExecMode, FailCause, ScoutCause
from repro.core.regstate import SpeculativeRegisters
from repro.core.sst_dispatch import compile_spec_loop
from repro.core.store_buffer import StoreBuffer
from repro.core.timing import PerfCounters
from repro.errors import SimulatorInvariantError
from repro.isa import blockcache
from repro.isa.opcodes import OpClass
from repro.isa.program import Program
from repro.isa.registers import REG_COUNT, ZERO_REG
from repro.isa.semantics import MASK64, effective_address
from repro.memory.hierarchy import MemoryHierarchy
from repro.memory.request import AccessResult, AccessType, HitLevel

FORWARD_LATENCY = 1

# Ahead-strand issue attempt outcomes.
_ISSUED = "issued"
_BLOCKED = "blocked"
_RETRY = "retry"  # mode changed (e.g. entered scout); try again

# Sentinel wake for "blocked until a state change, not by time" in the
# replay/commit stall caches (far beyond any simulated cycle).
_NO_WAKE = 1 << 62

# ExecMode -> mode_cycles key, resolved once: Enum ``.value`` is a
# DynamicClassAttribute lookup and _account_mode_cycles is called on
# every clock movement.
_MODE_KEY = {mode: mode.value for mode in ExecMode}


@dataclasses.dataclass
class SSTStats:
    """Everything the paper's evaluation tables need from one run."""

    normal_insts: int = 0
    ahead_insts: int = 0
    replay_insts: int = 0
    committed_spec_insts: int = 0
    discarded_insts: int = 0
    deferred: int = 0
    order_deferred: int = 0
    deferred_branches: int = 0
    deferred_jumps: int = 0
    deferred_loads_missed_again: int = 0
    episodes: int = 0
    full_commits: int = 0
    region_commits: int = 0
    fails: Dict[FailCause, int] = dataclasses.field(
        default_factory=lambda: {cause: 0 for cause in FailCause}
    )
    scout_sessions: Dict[ScoutCause, int] = dataclasses.field(
        default_factory=lambda: {cause: 0 for cause in ScoutCause}
    )
    scout_prefetches: int = 0
    mode_cycles: Dict[str, int] = dataclasses.field(
        default_factory=lambda: {mode.value: 0 for mode in ExecMode}
    )
    peak_outstanding_misses: int = 0

    @property
    def total_fails(self) -> int:
        return sum(self.fails.values())

    @property
    def total_scout_sessions(self) -> int:
        return sum(self.scout_sessions.values())


class SSTCore(Core):
    name = "sst"

    def __init__(self, program: Program, hierarchy: MemoryHierarchy,
                 config: SSTConfig = SSTConfig()):
        super().__init__(program, hierarchy)
        self.config = config
        self.branch_unit = BranchUnit(config.predictor)
        self.stats = SSTStats()
        self.checkpoints = CheckpointFile(max(config.checkpoints, 1))
        self.dq = DeferredQueue(config.dq_size)
        self.sb = StoreBuffer(config.sb_size)

        # ---- normal-mode pipeline state -------------------------------
        self._cycle = 0
        self._slots = 0
        self._reg_ready: List[int] = [0] * REG_COUNT
        self._pc = 0
        self._drain_busy = 0  # store-buffer commit drain / store traffic
        self._executed = 0
        self._halted = False

        # ---- speculation context (live only during an episode) --------
        self.mode = ExecMode.NORMAL
        self.spec: Optional[SpeculativeRegisters] = None
        self._seq = 1  # 0 tags committed-state writers
        self._slice_values: Dict[int, int] = {}
        self._producer_ready: Dict[int, int] = {}
        self._spec_loads: List[Tuple[int, int, int]] = []  # (seq, addr, src)
        self._ahead_pc = 0
        self._ahead_block: Optional[str] = None
        self._ahead_barrier = 0  # redirect penalty barrier
        self._replay_no_boundary = False
        self._scout_stores: Dict[int, int] = {}
        self._scout_end = 0
        self._mode_account_cycle = 0
        # One-shot livelock guard: after a rollback, the trigger at this
        # (pc, seq) executes non-speculatively once.  Without it a scout
        # session whose prefetches evict their own trigger line repeats
        # identically forever (deterministic timing has no jitter to
        # break the cycle the way real hardware does).
        self._suppress_pc = -1
        self._suppress_seq = -1

        # ---- host-side observability + event-driven bookkeeping -------
        self.perf = PerfCounters()
        self._perf_stepped_cycle = -1
        self._wall_accum = 0.0
        # Earliest cycle at which this core can next do work; a
        # multicore scheduler may skip whole quanta up to (not past) it.
        self._next_event = 0
        # Memoized "replay strand has nothing issuable before cycle X"
        # / "no commit possible before cycle X" results (None = unknown,
        # _NO_WAKE = blocked until a state change).  Invalidated by any
        # mutation that can change eligibility; purely a recomputation
        # cache, so timing is bit-identical with or without it.
        self._replay_stall: Optional[int] = None
        self._commit_stall: Optional[int] = None
        # Lazy min-heap over (ready, seq) of pending deferred producers;
        # stale entries (overwritten or completed) are dropped on pop.
        self._pending_heap: List[Tuple[int, int]] = []

        # ---- optional microarchitectural sanitizer ---------------------
        # None unless REPRO_SANITIZE is set; every hook site is guarded,
        # and the sanitizer itself is observational (it never touches
        # timing state), so cycle counts are identical either way.
        self.sanitizer: Optional[SSTSanitizer] = make_sanitizer(
            "sst", self.name, program)  # type: ignore[assignment]
        if self.sanitizer is not None:
            self.sanitizer.attach_memory_guard(self.state)

        # ---- optional dynamic taint tracker ----------------------------
        # None unless REPRO_TAINT is set; observational like the
        # sanitizer (pure accessors only), so cycle counts are identical
        # either way.  See repro.analysis.taint_tracker.
        self.taint = make_taint_tracker(self, program)

        # ---- decode + the speculative loop -----------------------------
        # Flat decoded rows, shared via the fingerprint-keyed block
        # cache; the reference decode (program.instructions) stays the
        # source of truth and the rows are derived from it.
        self._rows = blockcache.rows_for(program)
        # mode_cycles key of the current mode, maintained at every mode
        # transition so accounting skips the per-call dict lookup.
        self._mode_key = _MODE_KEY[self.mode]
        # The speculative cycle loop (repro.core.sst_dispatch), generated
        # per config signature.  With a sanitizer or taint tracker
        # attached the checked variant runs: same loop, plus the hook
        # sites and every deferral through _defer_issue.
        self._spec_loop_fn = compile_spec_loop(
            config, self.branch_unit.mispredict_penalty,
            checked=self.sanitizer is not None or self.taint is not None,
        )

    # ==================================================================
    # Top level.
    # ==================================================================

    def run(self, max_instructions: int = DEFAULT_MAX_INSTRUCTIONS) -> CoreResult:
        self.advance(None, max_instructions)
        return self._finalize()

    def advance(self, until_cycle: Optional[int],
                max_instructions: int = DEFAULT_MAX_INSTRUCTIONS) -> bool:
        """Resumable execution: run until HALT or the local clock
        reaches ``until_cycle`` (None = run to completion).

        Returns True once the program has halted.  This is what lets a
        multicore scheduler interleave several cores over a shared
        memory system in bounded-skew time quanta
        (:mod:`repro.cmp.multicore`): no instruction is issued at or
        beyond ``until_cycle``, so cross-core access ordering skew is
        bounded by the quantum.
        """
        if self._halted:
            return True
        started = time.perf_counter()
        try:
            while until_cycle is None or self._cycle < until_cycle:
                if self.mode is ExecMode.NORMAL:
                    outcome = self._normal_step(max_instructions, until_cycle)
                    if outcome == "halt":
                        self._halted = True
                        return True
                    if outcome == "yield":
                        return False
                    # outcome == "spec": fall through to the episode
                    # loop; a pending HALT/MEMBAR re-executes in normal
                    # mode after the episode resolves.
                self._spec_loop_fn(self, max_instructions, until_cycle)
            return False
        finally:
            self._wall_accum += time.perf_counter() - started

    @property
    def next_event_hint(self) -> int:
        """Earliest cycle at which this core can next issue, commit, or
        otherwise touch shared state.  Calls to :meth:`advance` with
        ``until_cycle`` at or before this hint are pure clock jumps (no
        hierarchy accesses), which is what lets the multicore scheduler
        fast-forward idle quanta without perturbing access order."""
        hint = self._next_event
        return hint if hint > self._cycle else self._cycle

    @property
    def halted(self) -> bool:
        return self._halted

    @property
    def cycle(self) -> int:
        """The core's local clock (multicore scheduling key)."""
        return self._cycle

    def finalize(self) -> CoreResult:
        """The run's result; valid once :meth:`advance` reported halt."""
        if not self._halted:
            raise SimulatorInvariantError("finalize() before HALT")
        return self._finalize()

    def _finalize(self) -> CoreResult:
        final_cycle = max(
            self._cycle, max(self._reg_ready), self._drain_busy, 1
        )
        self._account_mode_cycles(final_cycle)
        if self.sanitizer is not None:
            if self._halted:
                self.sanitizer.on_commit(self._executed, self.state.regs,
                                         self.state.memory, None,
                                         final_cycle)
            self.sanitizer.detach_memory_guard(self.state)
        return CoreResult(
            core_name=self.name,
            program_name=self.program.name,
            cycles=final_cycle,
            instructions=self._executed,
            state=self.state,
            extra={
                "sst": self.stats,
                "branch": self.branch_unit.stats,
                "hierarchy": self.hierarchy.stats,
                "l1d": self.hierarchy.l1d.stats,
                "l2": self.hierarchy.l2.stats,
                "dq": self.dq.stats,
                "dq_occupancy": self.dq.occupancy,
                "sb": self.sb.stats,
                "sb_occupancy": self.sb.occupancy,
                "checkpoints": self.checkpoints.stats,
                "perf": self.perf,
                **({"taint": self.taint.finalize_report()}
                   if self.taint is not None else {}),
            },
            wall_seconds=self._wall_accum,
        )

    # ==================================================================
    # Normal (non-speculative) mode — the in-order substrate.
    # ==================================================================

    def _account_mode_cycles(self, new_cycle: int) -> None:
        delta = new_cycle - self._mode_account_cycle
        if delta > 0:
            self.stats.mode_cycles[self._mode_key] += delta
            self._mode_account_cycle = new_cycle

    def _defer_triggering(self, result: AccessResult) -> bool:
        if result.tlb_miss and self.config.defer_on_tlb_miss:
            return True
        if self.config.defer_trigger is DeferTrigger.L1_MISS:
            return not result.l1_hit
        return result.went_to_dram

    def _episode_allowed(self, pc: int) -> bool:
        """One-shot post-rollback suppression (see ``_suppress_pc``)."""
        if pc == self._suppress_pc and self._seq == self._suppress_seq:
            self._suppress_pc = -1
            self._suppress_seq = -1
            return False
        return True

    def _normal_step(self, budget: int,
                     until: Optional[int] = None) -> Optional[str]:
        """Run normal mode until HALT or a speculative episode starts.

        With ``until`` set, returns "yield" before issuing anything at
        or beyond that cycle (resumable for multicore interleaving).
        """
        state = self.state
        config = self.config
        latencies = config.latencies
        hierarchy = self.hierarchy
        model_ifetch = hierarchy.config.model_ifetch
        reg_ready = self._reg_ready
        can_speculate = config.checkpoints >= 1

        # Hot-loop locals (see inorder.py): direct register-file
        # indexing is safe because every write below guards the zero
        # register, so ``regs[0]`` stays 0.  Decode comes from the
        # block cache's flat rows.
        rows = self._rows
        n_insts = len(rows)
        regs = state.regs
        mem_read = state.memory.read
        mem_write = state.memory.write
        ifetch = hierarchy.ifetch
        data_access = hierarchy.data_access
        lat_alu = latencies.alu
        lat_mul = latencies.mul
        lat_div = latencies.div
        defer_long_ops = config.defer_long_ops
        defer_on_tlb_miss = config.defer_on_tlb_miss
        defer_on_l1_miss = config.defer_trigger is DeferTrigger.L1_MISS
        L1 = HitLevel.L1
        DRAM = HitLevel.DRAM
        MERGE_L2 = HitLevel.MERGE_L2
        ACC_LOAD = AccessType.LOAD
        ACC_STORE = AccessType.STORE
        K_MUL = blockcache.K_MUL
        K_DIV = blockcache.K_DIV
        K_LOAD = blockcache.K_LOAD
        K_STORE = blockcache.K_STORE
        K_PREFETCH = blockcache.K_PREFETCH
        K_BRANCH = blockcache.K_BRANCH
        K_JUMP = blockcache.K_JUMP
        K_JUMP_INDIRECT = blockcache.K_JUMP_INDIRECT
        K_BARRIER = blockcache.K_BARRIER
        K_HALT = blockcache.K_HALT
        # For the inlined issue-slot bookkeeping (slot allocation and
        # its mode-cycle accounting, one call pair per instruction
        # otherwise).
        # ``self._mode_key`` is constant here: _normal_step only runs
        # in normal mode and returns on any transition.
        stats = self.stats
        perf = self.perf
        width = config.width
        mode_cycles = stats.mode_cycles
        mkey = self._mode_key
        branch_unit = self.branch_unit
        resolve_cond = branch_unit.resolve_cond
        resolve_indirect = branch_unit.resolve_indirect
        push_return = branch_unit.push_return
        redirect_lat = latencies.alu + branch_unit.mispredict_penalty
        is_call = self.is_call
        is_return = self.is_return
        do_prefetch = hierarchy.prefetch

        # Core-owned scalars mirrored into locals for the loop; written
        # back at every exit and before any callee that reads them
        # (_begin_episode, _check_budget/_check_pc raises).
        cycle = self._cycle
        slots = self._slots
        executed = self._executed
        mode_account = self._mode_account_cycle
        perf_stepped = self._perf_stepped_cycle
        drain_busy = self._drain_busy
        pc = self._pc

        while True:
            if until is not None and cycle >= until:
                self._next_event = cycle
                self._cycle = cycle
                self._slots = slots
                self._executed = executed
                self._mode_account_cycle = mode_account
                self._perf_stepped_cycle = perf_stepped
                self._drain_busy = drain_busy
                self._pc = pc
                return "yield"
            if executed >= budget:
                self._cycle = cycle
                self._slots = slots
                self._executed = executed
                self._mode_account_cycle = mode_account
                self._perf_stepped_cycle = perf_stepped
                self._drain_busy = drain_busy
                self._pc = pc
                self._check_budget(executed, budget)
            if pc < 0 or pc >= n_insts:
                self._cycle = cycle
                self._slots = slots
                self._executed = executed
                self._mode_account_cycle = mode_account
                self._perf_stepped_cycle = perf_stepped
                self._drain_busy = drain_busy
                self._pc = pc
                self._check_pc(pc)
            (kind, rd, rs1, rs2, imm, target, fn, sources,
             _writes, uses_imm, inst) = rows[pc]

            earliest = cycle
            for src in sources:
                if reg_ready[src] > earliest:
                    earliest = reg_ready[src]
            if until is not None and earliest >= until:
                # The next instruction would issue beyond the quantum;
                # hand control back without touching shared state.  Any
                # re-entry with a quantum at or before ``earliest`` is a
                # pure clock jump (operand readiness cannot regress), so
                # advertise it as the fast-forward hint.
                self._next_event = earliest
                delta = until - mode_account
                if delta > 0:
                    mode_cycles[mkey] += delta
                    mode_account = until
                self._cycle = until
                self._slots = 0
                self._executed = executed
                self._mode_account_cycle = mode_account
                self._perf_stepped_cycle = perf_stepped
                self._drain_busy = drain_busy
                self._pc = pc
                return "yield"
            if model_ifetch:
                fetch_ready = ifetch(pc, cycle).ready_cycle
                if fetch_ready > earliest:
                    earliest = fetch_ready

            if kind == K_HALT:
                executed += 1
                stats.normal_insts += 1
                if earliest > cycle:
                    delta = earliest - mode_account
                    if delta > 0:
                        mode_cycles[mkey] += delta
                        mode_account = earliest
                    cycle = earliest
                self._cycle = cycle
                self._slots = slots
                self._executed = executed
                self._mode_account_cycle = mode_account
                self._perf_stepped_cycle = perf_stepped
                self._drain_busy = drain_busy
                self._pc = pc
                return "halt"

            # Issue at max(cycle, earliest), with its accounting.
            slot = cycle
            if earliest > slot:
                perf.cycles_skipped += earliest - slot
                perf.fast_forwards += 1
                delta = earliest - mode_account
                if delta > 0:
                    mode_cycles[mkey] += delta
                    mode_account = earliest
                cycle = earliest
                slots = 0
                slot = earliest
            if slot != perf_stepped:
                perf_stepped = slot
                perf.cycles_stepped += 1
            slots += 1
            if slots >= width:
                nxt = slot + 1
                delta = nxt - mode_account
                if delta > 0:
                    mode_cycles[mkey] += delta
                    mode_account = nxt
                cycle = nxt
                slots = 0
            executed += 1
            stats.normal_insts += 1
            next_pc = pc + 1

            if kind <= K_DIV:  # ALU / MUL / DIV
                a = regs[rs1]
                value = fn(a, imm) if uses_imm else fn(a, regs[rs2])
                if kind == K_MUL:
                    latency = lat_mul
                elif kind == K_DIV:
                    latency = lat_div
                    if (defer_long_ops and can_speculate
                            and self._episode_allowed(pc)):
                        # The committed write is withheld: the
                        # checkpoint must capture pre-trigger state so a
                        # rollback can re-execute the trigger itself.
                        self._cycle = cycle
                        self._slots = slots
                        self._executed = executed
                        self._mode_account_cycle = mode_account
                        self._perf_stepped_cycle = perf_stepped
                        self._drain_busy = drain_busy
                        self._pc = next_pc
                        self._begin_episode(
                            pc, slot, rd, slot + latency, value
                        )
                        return "spec"
                else:
                    latency = lat_alu
                if rd:
                    regs[rd] = value
                    reg_ready[rd] = slot + latency
            elif kind == K_LOAD:
                addr = (regs[rs1] + imm) & MASK64
                value = mem_read(addr)
                result = data_access(addr, slot, ACC_LOAD, pc=pc)
                if can_speculate:
                    level = result.level
                    if result.tlb_miss and defer_on_tlb_miss:
                        triggering = True
                    elif defer_on_l1_miss:
                        triggering = level is not L1
                    else:
                        triggering = level is DRAM or level is MERGE_L2
                    if triggering and self._episode_allowed(pc):
                        self._cycle = cycle
                        self._slots = slots
                        self._executed = executed
                        self._mode_account_cycle = mode_account
                        self._perf_stepped_cycle = perf_stepped
                        self._drain_busy = drain_busy
                        self._pc = next_pc
                        self._begin_episode(
                            pc, slot, rd, result.ready_cycle, value
                        )
                        return "spec"
                if rd:
                    regs[rd] = value
                    reg_ready[rd] = result.ready_cycle
            elif kind == K_STORE:
                addr = (regs[rs1] + imm) & MASK64
                mem_write(addr, regs[rs2])
                result = data_access(addr, slot, ACC_STORE, pc=pc)
                if result.ready_cycle > drain_busy:
                    drain_busy = result.ready_cycle
            elif kind == K_PREFETCH:
                addr = (regs[rs1] + imm) & MASK64
                do_prefetch(addr, slot)
            elif kind == K_BRANCH:
                taken = fn(regs[rs1], regs[rs2])
                mispredicted = resolve_cond(pc, taken)
                if taken:
                    next_pc = target
                if mispredicted:
                    redirect = slot + redirect_lat
                    if redirect > cycle:
                        delta = redirect - mode_account
                        if delta > 0:
                            mode_cycles[mkey] += delta
                            mode_account = redirect
                        cycle = redirect
                        slots = 0
            elif kind == K_JUMP:
                if rd:
                    regs[rd] = pc + 1
                    reg_ready[rd] = slot + 1
                if is_call(inst):
                    push_return(pc + 1)
                next_pc = target
            elif kind == K_JUMP_INDIRECT:
                target = (regs[rs1] + imm) & MASK64
                if target < 0 or target >= n_insts:
                    self._cycle = cycle
                    self._slots = slots
                    self._executed = executed
                    self._mode_account_cycle = mode_account
                    self._perf_stepped_cycle = perf_stepped
                    self._drain_busy = drain_busy
                    self._pc = pc
                    self._check_pc(target)
                mispredicted = resolve_indirect(
                    pc, target, is_return=is_return(inst)
                )
                if rd:
                    regs[rd] = pc + 1
                    reg_ready[rd] = slot + 1
                if is_call(inst):
                    push_return(pc + 1)
                next_pc = target
                if mispredicted:
                    redirect = slot + redirect_lat
                    if redirect > cycle:
                        delta = redirect - mode_account
                        if delta > 0:
                            mode_cycles[mkey] += delta
                            mode_account = redirect
                        cycle = redirect
                        slots = 0
            elif kind == K_BARRIER:
                drain = max(max(reg_ready), drain_busy)
                if drain > cycle:
                    delta = drain - mode_account
                    if delta > 0:
                        mode_cycles[mkey] += delta
                        mode_account = drain
                    cycle = drain
                    slots = 0
            # NOP: nothing.

            pc = next_pc

    # ==================================================================
    # Episode lifecycle.
    # ==================================================================

    def _begin_episode(self, trigger_pc: int, trigger_slot: int,
                       trigger_rd: int, data_ready: int,
                       value: int) -> None:
        """Checkpoint at the triggering instruction and go speculative.

        The triggering load/long-op has already issued (its value is
        functionally known, its timing pending); its destination becomes
        NA and its result is the episode's first pending producer.
        """
        self.stats.episodes += 1
        # The trigger was provisionally counted by normal mode, but it
        # now belongs to the episode: it holds the epoch's first seq,
        # so it is an ahead-strand issue that commits with the episode
        # (or is re-executed after a rollback).
        self._executed -= 1
        self.stats.normal_insts -= 1
        self.stats.ahead_insts += 1
        spec = SpeculativeRegisters(self.state.regs)
        spec.ready[:] = self._reg_ready
        # The checkpoint snapshot excludes the trigger's own result.
        snapshot = spec.snapshot()
        self.spec = spec
        seq = self._seq
        self._seq += 1
        self.checkpoints.take(Checkpoint(
            start_seq=seq, pc=trigger_pc, regs=snapshot,
            taken_cycle=trigger_slot, cause_seq=seq,
        ))
        if self.sanitizer is not None:
            self.sanitizer.on_episode_begin(trigger_slot)
            self.sanitizer.on_checkpoint(self.checkpoints, trigger_slot)
        if self.taint is not None:
            self.taint.on_episode_begin(trigger_pc, seq)
        self._slice_values = {seq: value}
        self._producer_ready = {seq: data_ready}
        self._pending_heap = [(data_ready, seq)]
        self._replay_stall = None
        self._commit_stall = None
        self._spec_loads = []
        self._scout_stores = {}
        self._ahead_pc = self._pc
        self._ahead_block = None
        self._ahead_barrier = trigger_slot + self.config.checkpoint_latency
        self._replay_no_boundary = False
        if trigger_rd != ZERO_REG:
            spec.write_na(trigger_rd, seq)
        self._account_mode_cycles(self._cycle)
        # Episode work happens every cycle until proven otherwise.
        self._next_event = self._cycle
        if self.config.scout_only:
            self._enter_scout(ScoutCause.SCOUT_ONLY)
        else:
            self.mode = ExecMode.EXECUTE_AHEAD
            self._mode_key = _MODE_KEY[ExecMode.EXECUTE_AHEAD]

    def _min_outstanding(self, cycle: int) -> Optional[int]:
        """Earliest completion among still-pending producers.

        Served from the lazy pending-heap: completed and stale entries
        (the clock is monotonic within an episode, and a producer's
        ready time is only ever re-pushed, never silently changed) are
        popped on sight, so the amortized cost is O(log n) per producer
        instead of a full dict scan per idle cycle."""
        heap = self._pending_heap
        producer_ready = self._producer_ready
        while heap:
            ready, seq = heap[0]
            if ready > cycle and producer_ready.get(seq) == ready:
                return ready
            heappop(heap)
        return None

    def _count_outstanding(self, cycle: int) -> int:
        count = 0
        for ready in self._producer_ready.values():
            if ready > cycle:
                count += 1
        return count

    def _enter_scout(self, cause: ScoutCause) -> None:
        self.stats.scout_sessions[cause] += 1
        self._account_mode_cycles(self._cycle)
        self.mode = ExecMode.SCOUT
        self._mode_key = _MODE_KEY[ExecMode.SCOUT]
        self._replay_stall = None
        self._commit_stall = None
        earliest = self._min_outstanding(self._cycle)
        self._scout_end = earliest if earliest is not None else self._cycle
        if self._ahead_block in ("dq_full", "sb_full"):
            self._ahead_block = None

    def _teardown_episode(self) -> None:
        if self.sanitizer is not None:
            self.sanitizer.on_episode_end(self._cycle)
        if self.taint is not None:
            self.taint.on_episode_end()
        self.spec = None
        self.dq.clear()
        self.sb.clear()
        self.checkpoints.clear()
        self._slice_values = {}
        self._producer_ready = {}
        # Rollback reuses sequence numbers, so stale heap entries could
        # alias future producers — drop them with the episode.
        self._pending_heap = []
        self._replay_stall = None
        self._commit_stall = None
        self._spec_loads = []
        self._scout_stores = {}
        self._ahead_block = None
        self._replay_no_boundary = False
        self._account_mode_cycles(self._cycle)
        self.mode = ExecMode.NORMAL
        self._mode_key = _MODE_KEY[ExecMode.NORMAL]
        # Back in normal mode: any stale speculative wake hint would
        # overstate how long this core can be fast-forwarded.
        self._next_event = self._cycle

    def _rollback(self, cycle: int, cause: Optional[FailCause]) -> None:
        """Restore the oldest checkpoint; cause None = scout ending."""
        if self.taint is not None:
            # Everything younger than the restored checkpoint is being
            # squashed: pending tainted fills are confirmed leaks.
            self.taint.on_rollback()
        target = self.checkpoints.oldest()
        if cause is not None:
            self.stats.fails[cause] += 1
        self.stats.discarded_insts += self._seq - target.start_seq
        self._seq = target.start_seq
        self._pc = target.pc
        self._suppress_pc = target.pc
        self._suppress_seq = target.start_seq
        restart = cycle + self.config.rollback_penalty
        self._cycle = max(self._cycle, cycle)
        self._account_mode_cycles(restart)
        self._cycle = restart
        self._slots = 0
        self._reg_ready = [restart] * REG_COUNT
        self._teardown_episode()

    def _materialize(self, snapshot) -> List[int]:
        values = list(snapshot.values)
        for reg, producer in snapshot.na_producer.items():
            values[reg] = self._slice_values[producer]
        return values

    def _drain_stores(self, entries, cycle: int) -> None:
        """Commit stores to memory and the cache, with drain bandwidth."""
        sanitizer = self.sanitizer
        if sanitizer is not None:
            sanitizer.on_drain_begin(entries, cycle)
        drained_this_cycle = 0
        at = max(cycle, self._drain_busy)
        for entry in entries:
            self.state.memory.write(entry.addr, entry.value)
            self.hierarchy.data_access(entry.addr, at, AccessType.STORE)
            drained_this_cycle += 1
            if drained_this_cycle >= self.config.commit_drain_per_cycle:
                at += 1
                drained_this_cycle = 0
        self._drain_busy = max(self._drain_busy, at)
        if sanitizer is not None:
            sanitizer.on_drain_end()

    def _try_commits(self, cycle: int) -> None:
        """Region commits oldest-first, then a full commit if possible."""
        if self.mode is ExecMode.SCOUT or self.spec is None:
            return
        # Memoized outcome: nothing can commit before ``_commit_stall``
        # (replay progress and teardown invalidate; ahead-strand issue
        # only *adds* blockers, which cannot move a commit earlier).
        stall = self._commit_stall
        if stall is not None and cycle < stall:
            return
        self._commit_stall = None
        did_commit = False
        time_blocked = False  # blocked by a pending producer (not state)

        # Region commits: is the oldest epoch [ckpt0, ckpt1) fully
        # resolved?  (DQ drained below the boundary, all its pending
        # producers back.)
        while len(self.checkpoints) >= 2:
            live = self.checkpoints.live()
            boundary = live[1]
            head = self.dq.head()
            if head is not None and head.seq < boundary.start_seq:
                break
            pending_below = False
            for seq, ready in self._producer_ready.items():
                if ready > cycle and seq < boundary.start_seq:
                    pending_below = True
                    break
            if pending_below:
                time_blocked = True
                break
            self.state.regs = self._materialize(boundary.regs)
            self._drain_stores(self.sb.drain_below(boundary.start_seq), cycle)
            self._spec_loads = [
                record for record in self._spec_loads
                if record[0] >= boundary.start_seq
            ]
            self.checkpoints.release_oldest()
            committed = boundary.start_seq - live[0].start_seq
            self.stats.region_commits += 1
            self.stats.committed_spec_insts += committed
            self._executed += committed
            did_commit = True
            if self.taint is not None:
                self.taint.on_region_commit(self._executed,
                                            boundary.start_seq)
            # A freed checkpoint lets a paused ahead strand resume (the
            # next replay region will re-evaluate its protection).
            if self._replay_no_boundary:
                self._replay_no_boundary = False
                if self._ahead_block == "replay":
                    self._ahead_block = None
        if did_commit:
            # Committing drained state the replay memo may have seen.
            self._replay_stall = None

        # Full commit: everything resolved.
        if self.dq:
            if time_blocked:
                # A region commit is still waiting on producer
                # completions — recheck at the earliest one.
                pending = self._min_outstanding(cycle)
                self._commit_stall = (pending if pending is not None
                                      else _NO_WAKE)
            else:
                # Blocked on unreplayed entries: only replay-strand
                # progress (which invalidates the memo) can change
                # that, never time alone.
                self._commit_stall = _NO_WAKE
            return
        pending = self._min_outstanding(cycle)
        if pending is not None:
            # Recheck no earlier than the first producer completion.
            self._commit_stall = pending
            return
        spec = self.spec
        if spec is None:
            return
        for reg, producer in list(spec.na_producer.items()):
            ready = self._producer_ready.get(producer)
            if ready is None:
                raise SimulatorInvariantError(
                    f"NA register r{reg} with unknown producer {producer}"
                )
            spec.values[reg] = self._slice_values[producer]
            spec.ready[reg] = max(spec.ready[reg], ready)
            del spec.na_producer[reg]
        self.state.regs = list(spec.values)
        self._drain_stores(self.sb.drain_all(), cycle)
        oldest = self.checkpoints.oldest()
        committed = self._seq - oldest.start_seq
        self.stats.committed_spec_insts += committed
        self._executed += committed
        self.stats.full_commits += 1
        self._pc = self._ahead_pc
        if self.sanitizer is not None:
            self.sanitizer.on_commit(self._executed, self.state.regs,
                                     self.state.memory, self._pc, cycle)
        self._reg_ready = list(spec.ready)
        self._cycle = max(self._cycle, cycle)
        self._slots = 0
        self._teardown_episode()

    # ==================================================================
    # Replay strand.
    # ==================================================================

    def _try_replay_issue(self, cycle: int) -> Tuple[str, Optional[int]]:
        """Pick the oldest *ready* DQ entry and replay it.

        ROCK re-defers not-ready entries rather than stalling the
        replay strand behind them, so a dependent miss inside the
        deferred slice does not serialise the replay of unrelated
        entries.  Memory order is preserved by construction: a load is
        only eligible when no older unresolved store could alias it,
        and an entry's producers are always older and therefore
        eligible before it.

        A fruitless scan is memoized (``_replay_stall``): an entry's
        eligibility changes only with time (producer ready times, which
        the scan's wake minimum captures exactly) or with a DQ / slice
        / store-buffer mutation, all of which clear the memo.  The
        repeated full-queue scans this avoids were the single hottest
        path in the simulator.
        """
        dq = self.dq
        if not dq:
            return _BLOCKED, None
        stall = self._replay_stall
        if stall is not None:
            if stall > cycle:
                return _BLOCKED, (stall if stall != _NO_WAKE else None)
            self._replay_stall = None

        slice_values = self._slice_values
        producer_ready = self._producer_ready
        blocks_load = self.sb.unresolved.blocks_load
        selected: Optional[DQEntry] = None
        wake: Optional[int] = None
        for entry in dq:
            # Cycle at which the entry's captured producers are all
            # done (inlined: this loop dominates episode time).
            ready = cycle
            producer = entry.rs1_producer
            if producer is not None:
                if producer not in slice_values:
                    continue  # producer itself still queued
                r = producer_ready[producer]
                if r > ready:
                    ready = r
            producer = entry.rs2_producer
            if producer is not None:
                if producer not in slice_values:
                    continue
                r = producer_ready[producer]
                if r > ready:
                    ready = r
            if ready > cycle:
                if wake is None or ready < wake:
                    wake = ready
                continue
            if entry.inst.is_load:
                base = (entry.rs1_value if entry.rs1_producer is None
                        else slice_values[entry.rs1_producer])
                addr = effective_address(base or 0, entry.inst.imm)
                if blocks_load(addr, entry.seq, conservative=True):
                    continue  # the blocking store replays first
            selected = entry
            break
        if selected is None:
            self._replay_stall = wake if wake is not None else _NO_WAKE
            return _BLOCKED, wake

        # Permission: a boundary checkpoint must protect the ahead
        # strand, or the ahead strand must pause (execute-ahead).
        protected = self.checkpoints.boundary_above(selected.seq) is not None
        if not protected:
            if self.checkpoints.has_free:
                spec = self.spec
                assert spec is not None
                self.checkpoints.take(
                    Checkpoint(start_seq=self._seq, pc=self._ahead_pc,
                               regs=spec.snapshot(), taken_cycle=cycle),
                    boundary=True,
                )
                if self.sanitizer is not None:
                    self.sanitizer.on_checkpoint(self.checkpoints, cycle)
            else:
                self._replay_no_boundary = True
                if self._ahead_block is None:
                    self._ahead_block = "replay"

        if self.sanitizer is not None:
            self.sanitizer.on_replay(selected, self.checkpoints, cycle)
        if self.taint is not None:
            self.taint.on_replay(selected, cycle)
        self.dq.remove(selected)
        self._execute_replay(selected, cycle)
        self.stats.replay_insts += 1
        return _ISSUED, None

    def _replay_operands(self, entry: DQEntry) -> Tuple[int, int]:
        if entry.rs1_producer is not None:
            a = self._slice_values[entry.rs1_producer]
        else:
            a = entry.rs1_value if entry.rs1_value is not None else 0
        if entry.rs2_producer is not None:
            b = self._slice_values[entry.rs2_producer]
        else:
            b = entry.rs2_value if entry.rs2_value is not None else 0
        return a, b

    def _execute_replay(self, entry: DQEntry, cycle: int) -> None:
        spec = self.spec
        assert spec is not None
        inst = entry.inst
        cls = inst.op_class
        a, b = self._replay_operands(entry)
        latencies = self.config.latencies
        # Replay progress changes DQ/slice/SB state: drop the memos.
        self._replay_stall = None
        self._commit_stall = None

        if cls in (OpClass.ALU, OpClass.MUL, OpClass.DIV):
            fn = inst.alu_fn
            value = fn(a, inst.imm) if inst.alu_uses_imm else fn(a, b)
            complete = cycle + self.op_latency(cls, latencies)
            self._slice_values[entry.seq] = value
            self._producer_ready[entry.seq] = complete
            heappush(self._pending_heap, (complete, entry.seq))
            spec.apply_replayed(inst.rd, value, entry.seq, complete)
        elif cls is OpClass.LOAD:
            addr = effective_address(a, inst.imm)
            forwarded = self.sb.forward(addr, entry.seq)
            if forwarded is not None:
                value = forwarded[0]
                complete = cycle + FORWARD_LATENCY
            else:
                value = self.state.memory.read(addr)
                result = self.hierarchy.data_access(
                    addr, cycle, AccessType.LOAD, pc=entry.pc
                )
                complete = result.ready_cycle
                if self._defer_triggering(result):
                    self.stats.deferred_loads_missed_again += 1
            self._slice_values[entry.seq] = value
            self._producer_ready[entry.seq] = complete
            heappush(self._pending_heap, (complete, entry.seq))
            spec.apply_replayed(inst.rd, value, entry.seq, complete)
        elif cls is OpClass.STORE:
            addr = effective_address(a, inst.imm)
            if entry.order_defer:
                # Deferred only for ordering; it already has a resolved
                # SB entry?  No — order-deferred *stores* do not exist;
                # stores always resolve through the SB placeholder.
                raise SimulatorInvariantError("order-deferred store")
            self.sb.resolve(entry.seq, addr, b)
            if self._check_order_violation(entry.seq, addr):
                self._rollback(cycle, FailCause.MEMORY_ORDER_VIOLATION)
                return
        elif cls is OpClass.BRANCH:
            actual = inst.branch_fn(a, b)
            assert entry.predicted_taken is not None
            mispredicted = self.branch_unit.resolve_deferred_cond(
                entry.pc, entry.predicted_taken, actual
            )
            if mispredicted:
                self._rollback(cycle, FailCause.DEFERRED_BRANCH_MISPREDICT)
                return
        elif cls is OpClass.JUMP_INDIRECT:
            target = effective_address(a, inst.imm)
            self._check_pc(target)
            if entry.predicted_target is None:
                # The ahead strand stalled at this jump; resume it.
                self._ahead_pc = target
                if self._ahead_block == "jump_na":
                    self._ahead_block = None
                self._ahead_barrier = max(
                    self._ahead_barrier,
                    cycle + self.branch_unit.mispredict_penalty,
                )
                self.branch_unit.resolve_deferred_indirect(
                    entry.pc, None, target, is_return=self.is_return(inst)
                )
            else:
                mispredicted = self.branch_unit.resolve_deferred_indirect(
                    entry.pc, entry.predicted_target, target,
                    is_return=self.is_return(inst),
                )
                if mispredicted:
                    self._rollback(cycle, FailCause.DEFERRED_JUMP_MISPREDICT)
                    return
        else:  # pragma: no cover - nothing else is deferrable
            raise SimulatorInvariantError(f"undeferred class {cls} in DQ")

    def _check_order_violation(self, store_seq: int, store_addr: int) -> bool:
        """Did a younger speculative load miss this store's data?"""
        for load_seq, load_addr, src_seq in self._spec_loads:
            if (load_seq > store_seq and load_addr == store_addr
                    and src_seq < store_seq):
                return True
        return False

    # ==================================================================
    # Ahead-strand deferral.  The strand itself (issue, execute, scout)
    # is inlined in the generated loop (repro.core.sst_dispatch); these
    # are the out-of-line paths it calls.
    # ==================================================================

    def _consume_slot(self, cycle: int) -> Tuple[str, Optional[int]]:
        self._seq += 1
        self.stats.ahead_insts += 1
        return _ISSUED, None

    def _capture(self, inst, spec) -> Tuple[Optional[int], Optional[int],
                                            Optional[int], Optional[int]]:
        """Capture rs1/rs2 as values or producer seqs for a DQ entry.

        Returns ``(rs1_value, rs1_producer, rs2_value, rs2_producer)``
        directly (no per-defer dict allocation on the hot path).
        """
        rs1_value = rs1_producer = rs2_value = rs2_producer = None
        if inst.reads_rs1:
            rs1_producer = spec.producer_of(inst.rs1)
            if rs1_producer is None:
                rs1_value = spec.read(inst.rs1)
        if inst.reads_rs2:
            rs2_producer = spec.producer_of(inst.rs2)
            if rs2_producer is None:
                rs2_value = spec.read(inst.rs2)
        return rs1_value, rs1_producer, rs2_value, rs2_producer

    def _defer_issue(self, inst, pc: int, cycle: int,
                     order_defer: bool = False) -> Tuple[str, Optional[int]]:
        """Park the instruction in the DQ (NA operand or memory order)."""
        spec = self.spec
        assert spec is not None
        cls = inst.op_class
        seq = self._seq

        if cls is OpClass.PREFETCH:
            # A prefetch with an NA address is useless; drop it.
            self._ahead_pc = pc + 1
            return self._consume_slot(cycle)

        rs1_value, rs1_producer, rs2_value, rs2_producer = \
            self._capture(inst, spec)
        entry = DQEntry(seq=seq, pc=pc, inst=inst,
                        rs1_value=rs1_value, rs1_producer=rs1_producer,
                        rs2_value=rs2_value, rs2_producer=rs2_producer,
                        order_defer=order_defer)
        next_pc = pc + 1

        if cls is OpClass.BRANCH:
            entry.predicted_taken = self.branch_unit.predict_cond(pc)
            next_pc = inst.target if entry.predicted_taken else pc + 1
            self.stats.deferred_branches += 1
        elif cls is OpClass.JUMP_INDIRECT:
            entry.predicted_target = self.branch_unit.predict_indirect(
                pc, is_return=self.is_return(inst)
            )
            if entry.predicted_target is not None and not (
                    0 <= entry.predicted_target < len(self.program)):
                entry.predicted_target = None
            self.stats.deferred_jumps += 1

        if cls is OpClass.STORE:
            spec_addr = None
            if entry.rs1_producer is None and entry.rs1_value is not None:
                spec_addr = effective_address(entry.rs1_value, inst.imm)
            if self.sb.full:
                return self._exhausted("sb_full", ScoutCause.SB_FULL)
            if self.dq.full:
                return self._exhausted("dq_full", ScoutCause.DQ_FULL)
            self.sb.append_unresolved(seq, spec_addr)
            self.dq.append(entry)
        else:
            if not self.dq.append(entry):
                return self._exhausted("dq_full", ScoutCause.DQ_FULL)
        sanitizer = self.sanitizer
        if sanitizer is not None:
            sanitizer.on_defer(entry, self.checkpoints, self.dq, cycle)
            if cls is OpClass.STORE:
                sanitizer.on_spec_store(self.sb, cycle)
        if self.taint is not None:
            # Before write_na below, so captured-operand taints read the
            # pre-issue register state.
            self.taint.on_defer(entry)
        # A new DQ entry (and possibly a new unresolved store) changes
        # what the replay strand can issue.
        self._replay_stall = None

        self.stats.deferred += 1
        if order_defer:
            self.stats.order_deferred += 1
        if inst.writes_reg:
            if cls is OpClass.JUMP_INDIRECT:
                # The link value is known even when the target is not.
                spec.write_available(inst.rd, pc + 1, seq, cycle + 1)
            else:
                spec.write_na(inst.rd, seq)
                # Placeholder: replay fills the real completion time.
                # In-order replay guarantees nothing reads it earlier.
                self._producer_ready[seq] = 0

        if cls is OpClass.JUMP_INDIRECT and entry.predicted_target is None:
            self._ahead_block = "jump_na"
            self._seq += 1
            self.stats.ahead_insts += 1
            return _ISSUED, None

        if cls is OpClass.JUMP_INDIRECT:
            next_pc = entry.predicted_target

        self._ahead_pc = next_pc
        return self._consume_slot(cycle)

    def _exhausted(self, block: str,
                   cause: ScoutCause) -> Tuple[str, Optional[int]]:
        if self.config.scout_enabled:
            self._enter_scout(cause)
            return _RETRY, None
        self._ahead_block = block
        return _BLOCKED, None
