"""Generated-Python specializer for the SST speculative cycle loop.

The speculative cycle loop is the simulator's hottest code: one
iteration per stepped speculative cycle.  Written as ordinary methods
it costs several helper calls per issued instruction (ahead issue, slot
consumption, mode-cycle accounting, mode classification, the commit /
replay memo probes), and at ~8 Python calls per instruction the call
overhead, not the modelling, bounds throughput.

This module emits the loop as Python source and ``exec``-compiles it
once per configuration signature:

* configuration-invariant branches (scout enabled?  long-op deferral?
  store bypass?  defer trigger level?) are pruned at generation time;
* width, latencies and the mispredict penalty are baked in as integer
  literals;
* the ahead-strand paths (ALU, load, store, branch, jumps, and the
  scout equivalents), slot consumption, mode classification and
  mode-cycle accounting are inlined — instruction decode reads the
  block cache's flat rows (:mod:`repro.isa.blockcache`);
* the memo fast-paths of the replay scan and commit check are inlined
  so blocked strands cost two attribute reads per cycle, while the
  *slow* paths stay ordinary method calls on the core — rollback,
  region/full commit, deferral and replay semantics live in exactly
  one place (:mod:`repro.core.sst_core`).

It is the only speculative loop: :class:`~repro.core.sst_core.SSTCore`
always runs it.  The ``checked`` signature bit, set when a sanitizer or
taint tracker is attached to the core, adds the ahead/scout taint hook
sites and routes every deferral through ``SSTCore._defer_issue`` (which
carries the sanitizer and taint defer hooks) instead of the inlined
fast path.  The unchecked loop production runs carries no hook at all.

Mutable scalar state (``_seq``, ``_ahead_pc``, ``_cycle``, the memo
words...) stays on the core object so the inlined fast paths and the
cold methods can never diverge; only objects that are stable for the
lifetime of one loop invocation (stats, the speculative register file
arrays, the episode dicts, bound methods) are hoisted into locals.
An episode's containers are replaced only by ``_begin_episode`` /
``_teardown_episode``, and every teardown path returns from the loop
before the locals could go stale.
"""

from __future__ import annotations

from heapq import heappush
from typing import Callable, Dict, Tuple

from repro.config import DeferTrigger, SSTConfig
from repro.core.modes import ExecMode, ScoutCause
from repro.errors import SimulatorInvariantError
from repro.memory.request import AccessType, HitLevel

_M = "0xFFFFFFFFFFFFFFFF"


def _triggering(flag_tlb: bool, flag_l1: bool, result: str) -> str:
    """The `_defer_triggering` predicate as a pruned expression."""
    if flag_l1:
        level = f"{result}.level is not L1"
    else:
        level = (f"({result}.level is DRAM or "
                 f"{result}.level is MERGE_L2)")
    if flag_tlb:
        return f"({result}.tlb_miss or {level})"
    return f"({level})"


def _write_available(pad: str, value: str, ready: str,
                     reg: str = "rd", seq: str = "seq") -> str:
    """Inlined SpeculativeRegisters.write_available (zero-reg guarded)."""
    return (
        f"{pad}if {reg}:\n"
        f"{pad}    spec_values[{reg}] = {value}\n"
        f"{pad}    na_producer.pop({reg}, None)\n"
        f"{pad}    spec_last_writer[{reg}] = {seq}\n"
        f"{pad}    spec_ready[{reg}] = {ready}\n"
    )


def _write_na(pad: str, reg: str = "rd", seq: str = "seq") -> str:
    """Inlined SpeculativeRegisters.write_na (zero-reg guarded)."""
    return (
        f"{pad}if {reg}:\n"
        f"{pad}    na_producer[{reg}] = {seq}\n"
        f"{pad}    spec_last_writer[{reg}] = {seq}\n"
    )


_CONSUME = """\
{pad}ahead_pc = next_pc
{pad}seq += 1
{pad}stats.ahead_insts += 1
{pad}issued_ahead += 1
{pad}budget_left -= 1
{pad}continue
"""

# Shared handling of a _defer_issue / _exhausted style (status, wake)
# result inside the ahead-issue loop.  The method may have moved the
# ahead point (e.g. a deferred indirect jump parks as "jump_na"), so
# the strand-local mirrors are refreshed from the core first.
_DEFER_STATUS = """\
{pad}ahead_pc = core._ahead_pc
{pad}seq = core._seq
{pad}if status is ISSUED:
{pad}    issued_ahead += 1
{pad}    budget_left -= 1
{pad}    continue
{pad}if status is RETRY:
{pad}    continue
{pad}if wake is not None and wake > cycle and (
{pad}        wake_min is None or wake < wake_min):
{pad}    wake_min = wake
{pad}break
"""


def _fast_defer(pad: str, order: bool) -> str:
    """Inlined _defer_issue for plain ALU/long-op/load defers.

    Exactly the method's path for kinds <= K_LOAD when the DQ has
    room: operand capture, DQ append (with its stats/occupancy),
    replay-memo clear, NA destination, slot consumption.  The caller
    guards on DQ room and kind, and no state is mutated before the
    guard, so the fallback to the method is always clean.
    """
    order_stat = f"{pad}stats.order_deferred += 1\n" if order else ""
    return (
        f"{pad}rs1_value = rs1_producer = rs2_value = rs2_producer = None\n"
        f"{pad}if inst.reads_rs1:\n"
        f"{pad}    rs1_producer = na_producer.get(rs1)\n"
        f"{pad}    if rs1_producer is None:\n"
        f"{pad}        rs1_value = spec_values[rs1]\n"
        f"{pad}if inst.reads_rs2:\n"
        f"{pad}    rs2_producer = na_producer.get(rs2)\n"
        f"{pad}    if rs2_producer is None:\n"
        f"{pad}        rs2_value = spec_values[rs2]\n"
        f"{pad}dq_entries.append(DQEntry(\n"
        f"{pad}    seq=seq, pc=pc, inst=inst,\n"
        f"{pad}    rs1_value=rs1_value, rs1_producer=rs1_producer,\n"
        f"{pad}    rs2_value=rs2_value, rs2_producer=rs2_producer,\n"
        f"{pad}    order_defer={order}))\n"
        f"{pad}dq_stats.deferred += 1\n"
        f"{pad}dq_occ_add(len(dq_entries))\n"
        f"{pad}core._replay_stall = None\n"
        f"{pad}stats.deferred += 1\n"
        f"{order_stat}"
        f"{pad}if writes_reg:\n"
        f"{pad}    if rd:\n"
        f"{pad}        na_producer[rd] = seq\n"
        f"{pad}        spec_last_writer[rd] = seq\n"
        f"{pad}    producer_ready[seq] = 0\n"
        f"{pad}ahead_pc = pc + 1\n"
        f"{pad}seq += 1\n"
        f"{pad}stats.ahead_insts += 1\n"
        f"{pad}issued_ahead += 1\n"
        f"{pad}budget_left -= 1\n"
        f"{pad}continue\n"
    )


def _build_source(width: int, scout_possible: bool, scout_enabled: bool,
                  defer_long_ops: bool, bypass: bool, defer_tlb: bool,
                  defer_l1: bool, lat_alu: int, lat_mul: int, lat_div: int,
                  penalty: int, checked: bool = False) -> str:
    trig = _triggering(defer_tlb, defer_l1, "result")
    conservative = "False" if bypass else "True"
    out = []
    emit = out.append

    emit(f"""\
def _sst_spec_loop(core, budget, until):
    stats = core.stats
    mode_cycles = stats.mode_cycles
    perf = core.perf
    spec = core.spec
    if spec is None:
        return
    spec_values = spec.values
    spec_ready = spec.ready
    spec_last_writer = spec.last_writer
    na_producer = spec.na_producer
    slice_values = core._slice_values
    producer_ready = core._producer_ready
    pending_heap = core._pending_heap
    scout_stores = core._scout_stores
    dq = core.dq
    sb = core.sb
    blocks_load = sb.unresolved.blocks_load
    any_below = sb.unresolved.any_below
    sb_forward = sb.forward
    sb_append_resolved = sb.append_resolved
    mem_read = core.state.memory.read
    data_access = core.hierarchy.data_access
    do_prefetch = core.hierarchy.prefetch
    branch_unit = core.branch_unit
    resolve_cond = branch_unit.resolve_cond
    resolve_indirect = branch_unit.resolve_indirect
    predict_cond = branch_unit.predict_cond
    predict_indirect = branch_unit.predict_indirect
    push_return = branch_unit.push_return
    is_call = core.is_call
    is_return = core.is_return
    try_commits = core._try_commits
    try_replay_issue = core._try_replay_issue
    check_budget = core._check_budget
    min_outstanding = core._min_outstanding
    defer_issue = core._defer_issue
    dq_capacity = dq.capacity
    dq_stats = dq.stats
    dq_occ_add = dq.occupancy.add
    rows = core._rows
    n_insts = len(rows)
    # In-place containers (cleared, never rebound): safe to localize.
    dq_entries = dq._entries
    ckpt_live = core.checkpoints._live
    # normal_insts cannot change while an episode is live, so the
    # ahead-strand budget check reduces to one counter read.
    ahead_limit = budget - stats.normal_insts
""")
    if checked:
        # None when only the sanitizer is attached.
        emit("""\
    taint = core.taint
""")
    emit("""\
    while True:
        mode = core.mode
        if mode is NORMAL:
            return
        if until is not None and core._cycle >= until:
            return
        cycle = core._cycle
        wake_min = None
""")
    if scout_possible:
        emit("""\
        if mode is SCOUT:
            if cycle >= core._scout_end:
                core._rollback(cycle, None)
                return
            wake_min = core._scout_end
""")
    # The commit-guard precheck is exact: with fewer than two live
    # checkpoints and a non-empty DQ, _try_commits provably does
    # nothing but set the memo to _NO_WAKE (no region candidate, full
    # commit blocked on unreplayed entries).
    emit("""\
        stall = core._commit_stall
        if stall is None or cycle >= stall:
            if len(ckpt_live) >= 2 or not dq_entries:
                try_commits(cycle)
                if core.mode is NORMAL:
                    return
            else:
                core._commit_stall = NO_WAKE
""")
    emit(f"""\
        budget_left = {width}
        issued_replay = 0
        issued_ahead = 0
""")
    # ---- replay strand --------------------------------------------------
    guard = "if mode is not SCOUT:" if scout_possible else "if True:"
    emit(f"""\
        {guard}
            while budget_left > 0:
                if not dq_entries:
                    break
                stall = core._replay_stall
                if stall is not None and stall > cycle:
                    if stall != NO_WAKE and (
                            wake_min is None or stall < wake_min):
                        wake_min = stall
                    break
                status, wake = try_replay_issue(cycle)
                if status is ISSUED:
                    issued_replay += 1
                    budget_left -= 1
                    if core.mode is NORMAL:
                        return
                    continue
                if wake is not None and wake > cycle and (
                        wake_min is None or wake < wake_min):
                    wake_min = wake
                break
            stall = core._commit_stall
            if stall is None or cycle >= stall:
                if len(ckpt_live) >= 2 or not dq_entries:
                    try_commits(cycle)
                    if core.mode is NORMAL:
                        return
                else:
                    core._commit_stall = NO_WAKE
""")
    # ---- ahead strand ---------------------------------------------------
    # The strand's cursor state (ahead PC, sequence counter, redirect
    # barrier) lives in locals for the duration of the inner loop: the
    # replay strand and commits above are the only other writers, and
    # the one method call inside (the defer_issue fallback) syncs both
    # ways around the call.  Written back after the loop, before the
    # commit guard, so every out-of-line reader sees fresh state.
    emit("""\
        barrier = core._ahead_barrier
        ahead_pc = core._ahead_pc
        seq = core._seq
        while budget_left > 0:
            if stats.ahead_insts >= ahead_limit:
                core._ahead_pc = ahead_pc
                core._seq = seq
                check_budget(stats.normal_insts + stats.ahead_insts, budget)
            block = core._ahead_block
            if block is not None:
                if block == "dq_full":
                    if not dq.full and not core._replay_no_boundary:
                        core._ahead_block = None
                        continue
                elif block == "sb_full":
                    if not sb.full and not core._replay_no_boundary:
                        core._ahead_block = None
                        continue
                break
            if cycle < barrier:
                if wake_min is None or barrier < wake_min:
                    wake_min = barrier
                break
            pc = ahead_pc
            if pc < 0 or pc >= n_insts:
                core._ahead_block = "fault"
                break
            (kind, rd, rs1, rs2, imm, target, fn, sources,
             writes_reg, uses_imm, inst) = rows[pc]
""")
    if scout_possible:
        emit("""\
            m = core.mode
            if kind == K_HALT:
                core._ahead_block = "fault" if m is SCOUT else "halt"
                break
            if kind == K_BARRIER:
                if m is SCOUT:
                    ahead_pc = pc + 1
                    seq += 1
                    stats.ahead_insts += 1
                    issued_ahead += 1
                    budget_left -= 1
                    continue
                core._ahead_block = "membar"
                break
""")
    else:
        emit("""\
            if kind == K_HALT:
                core._ahead_block = "halt"
                break
            if kind == K_BARRIER:
                core._ahead_block = "membar"
                break
""")
    emit("""\
            na = False
            if na_producer:
                for src in sources:
                    if src in na_producer:
                        na = True
                        break
""")
    # ---- scout issue ----------------------------------------------------
    if scout_possible:
        p = " " * 16
        # Taint hooks run before anything is written (the NA result's
        # taint comes from the available sources only) and, on the
        # available path, before dispatch, mirroring its fault guards.
        scout_na_hook = scout_hook = ""
        if checked:
            scout_na_hook = (f"{p}    if taint is not None:\n"
                             f"{p}        taint.on_scout_na(inst, seq)\n")
            scout_hook = (f"{p}if taint is not None:\n"
                          f"{p}    taint.on_scout(inst, pc, seq, cycle)\n")
        emit(f"""\
            if m is SCOUT:
                next_pc = pc + 1
                if na:
{scout_na_hook}\
                    if kind == K_BRANCH:
                        if predict_cond(pc):
                            next_pc = target
                    elif kind == K_JUMP_INDIRECT:
                        predicted = predict_indirect(
                            pc, is_return=is_return(inst))
                        if predicted is None or not (
                                0 <= predicted < n_insts):
                            core._ahead_block = "fault"
                            break
{_write_available(p + '        ', 'pc + 1', 'cycle + 1')}\
                        next_pc = predicted
                    elif writes_reg:
{_write_na(p + '        ')}\
                        if seq not in producer_ready:
                            producer_ready[seq] = core._scout_end
                            heappush(pending_heap, (core._scout_end, seq))
                        slice_values.setdefault(seq, 0)
{_CONSUME.format(pad=p + '    ')}\
                wake = cycle
                for src in sources:
                    r = spec_ready[src]
                    if r > wake:
                        wake = r
                if wake > cycle:
                    if wake_min is None or wake < wake_min:
                        wake_min = wake
                    break
{scout_hook}\
                if kind <= K_DIV:
                    a = spec_values[rs1]
                    value = fn(a, imm) if uses_imm else fn(a, spec_values[rs2])
                    latency = ({lat_mul} if kind == K_MUL else
                               {lat_div} if kind == K_DIV else {lat_alu})
{_write_available(p + '    ', 'value', 'cycle + latency')}\
                elif kind == K_LOAD:
                    addr = (spec_values[rs1] + imm) & {_M}
                    if addr % 8 != 0:
                        core._ahead_block = "fault"
                        break
                    result = do_prefetch(addr, cycle)
                    stats.scout_prefetches += 1
                    if addr in scout_stores:
                        value = scout_stores[addr]
                    else:
                        forwarded = sb_forward(addr, seq)
                        value = (forwarded[0] if forwarded is not None
                                 else mem_read(addr))
                    if {trig}:
{_write_na(p + '        ')}\
                        if seq not in producer_ready:
                            producer_ready[seq] = result.ready_cycle
                            heappush(pending_heap,
                                     (result.ready_cycle, seq))
                        slice_values.setdefault(seq, value)
                    else:
{_write_available(p + '        ', 'value', 'result.ready_cycle')}\
                elif kind == K_STORE:
                    addr = (spec_values[rs1] + imm) & {_M}
                    if addr % 8 != 0:
                        core._ahead_block = "fault"
                        break
                    do_prefetch(addr, cycle)
                    stats.scout_prefetches += 1
                    scout_stores[addr] = spec_values[rs2]
                elif kind == K_PREFETCH:
                    addr = (spec_values[rs1] + imm) & {_M}
                    if addr % 8 == 0:
                        do_prefetch(addr, cycle)
                elif kind == K_BRANCH:
                    if fn(spec_values[rs1], spec_values[rs2]):
                        resolve_cond(pc, True)
                        next_pc = target
                    else:
                        resolve_cond(pc, False)
                elif kind == K_JUMP:
{_write_available(p + '    ', 'pc + 1', 'cycle + 1')}\
                    if is_call(inst):
                        push_return(pc + 1)
                    next_pc = target
                elif kind == K_JUMP_INDIRECT:
                    tgt = (spec_values[rs1] + imm) & {_M}
                    if tgt >= n_insts:
                        core._ahead_block = "fault"
                        break
                    resolve_indirect(pc, tgt, is_return=is_return(inst))
{_write_available(p + '    ', 'pc + 1', 'cycle + 1')}\
                    if is_call(inst):
                        push_return(pc + 1)
                    next_pc = tgt
{_CONSUME.format(pad=p)}\
""")
    # ---- NA-operand deferral -------------------------------------------
    # Fast path: plain ALU/long-op/load defers with DQ room are by far
    # the common case and carry no branch/jump/store bookkeeping —
    # inline them; everything else falls through to the method.
    # A checked loop always takes the method, which carries the
    # sanitizer and taint defer hooks.
    na_fast = ""
    order_fast = ""
    if not checked:
        na_fast = (
            "                if kind <= K_LOAD and len(dq_entries) < dq_capacity:\n"
            + _fast_defer(" " * 20, False)
        )
        order_fast = (
            "                    if len(dq_entries) < dq_capacity:\n"
            + _fast_defer(" " * 24, True)
        )
    emit(f"""\
            if na:
{na_fast}\
                core._ahead_pc = ahead_pc
                core._seq = seq
                status, wake = defer_issue(inst, pc, cycle)
{_DEFER_STATUS.format(pad=' ' * 16)}\
            wake = cycle
            for src in sources:
                r = spec_ready[src]
                if r > wake:
                    wake = r
            if wake > cycle:
                if wake_min is None or wake < wake_min:
                    wake_min = wake
                break
""")
    # ---- ahead execute --------------------------------------------------
    p = " " * 12
    emit("""\
            next_pc = pc + 1
""")
    if checked:
        # Pre-dispatch (rd may alias a source register); the tracker
        # mirrors every early-return guard below so it only records
        # accesses that really reach the hierarchy.
        emit("""\
            if taint is not None:
                taint.on_ahead(inst, pc, seq, cycle)
""")
    # ALU/MUL/DIV
    if defer_long_ops:
        emit(f"""\
            if kind <= K_DIV:
                a = spec_values[rs1]
                value = fn(a, imm) if uses_imm else fn(a, spec_values[rs2])
                if kind == K_DIV:
{_write_na(p + '        ')}\
                    slice_values[seq] = value
                    producer_ready[seq] = cycle + {lat_div}
                    heappush(pending_heap, (cycle + {lat_div}, seq))
                else:
                    latency = {lat_mul} if kind == K_MUL else {lat_alu}
{_write_available(p + '        ', 'value', 'cycle + latency')}\
""")
    else:
        emit(f"""\
            if kind <= K_DIV:
                a = spec_values[rs1]
                value = fn(a, imm) if uses_imm else fn(a, spec_values[rs2])
                latency = ({lat_mul} if kind == K_MUL else
                           {lat_div} if kind == K_DIV else {lat_alu})
{_write_available(p + '    ', 'value', 'cycle + latency')}\
""")
    # LOAD
    spec_loads = ""
    if bypass:
        spec_loads = (
            "                if any_below(seq):\n"
            "                    core._spec_loads.append(\n"
            "                        (seq, addr,\n"
            "                         forwarded[1] if forwarded is not None"
            " else -1))\n"
        )
    emit(f"""\
            elif kind == K_LOAD:
                addr = (spec_values[rs1] + imm) & {_M}
                if addr % 8 != 0:
                    core._ahead_block = "fault"
                    break
                if blocks_load(addr, seq, {conservative}):
{order_fast}\
                    core._ahead_pc = ahead_pc
                    core._seq = seq
                    status, wake = defer_issue(inst, pc, cycle, True)
{_DEFER_STATUS.format(pad=' ' * 20)}\
                forwarded = sb_forward(addr, seq)
{spec_loads}\
                if forwarded is not None:
{_write_available(p + '        ', 'forwarded[0]', 'cycle + 1')}\
                else:
                    value = mem_read(addr)
                    result = data_access(addr, cycle, ACC_LOAD, pc=pc)
                    if {trig}:
{_write_na(p + '            ')}\
                        slice_values[seq] = value
                        producer_ready[seq] = result.ready_cycle
                        heappush(pending_heap, (result.ready_cycle, seq))
                        outstanding = core._count_outstanding(cycle)
                        if outstanding > stats.peak_outstanding_misses:
                            stats.peak_outstanding_misses = outstanding
                    else:
{_write_available(p + '            ', 'value', 'result.ready_cycle')}\
""")
    # STORE
    if scout_enabled:
        store_full = (
            "                    core._enter_scout(SB_FULL)\n"
            "                    continue\n"
        )
    else:
        store_full = (
            "                    core._ahead_block = \"sb_full\"\n"
            "                    break\n"
        )
    emit(f"""\
            elif kind == K_STORE:
                addr = (spec_values[rs1] + imm) & {_M}
                if addr % 8 != 0:
                    core._ahead_block = "fault"
                    break
                if not sb_append_resolved(seq, addr, spec_values[rs2]):
{store_full}\
            elif kind == K_PREFETCH:
                addr = (spec_values[rs1] + imm) & {_M}
                if addr % 8 == 0:
                    do_prefetch(addr, cycle)
            elif kind == K_BRANCH:
                taken = fn(spec_values[rs1], spec_values[rs2])
                mispredicted = resolve_cond(pc, taken)
                if taken:
                    next_pc = target
                if mispredicted:
                    b = cycle + {lat_alu + penalty}
                    if b > barrier:
                        barrier = b
                        core._ahead_barrier = b
            elif kind == K_JUMP:
{_write_available(p + '    ', 'pc + 1', 'cycle + 1')}\
                if is_call(inst):
                    push_return(pc + 1)
                next_pc = target
            elif kind == K_JUMP_INDIRECT:
                tgt = (spec_values[rs1] + imm) & {_M}
                if tgt >= n_insts:
                    core._ahead_block = "fault"
                    break
                mispredicted = resolve_indirect(
                    pc, tgt, is_return=is_return(inst))
{_write_available(p + '    ', 'pc + 1', 'cycle + 1')}\
                if is_call(inst):
                    push_return(pc + 1)
                next_pc = tgt
                if mispredicted:
                    b = cycle + {lat_alu + penalty}
                    if b > barrier:
                        barrier = b
                        core._ahead_barrier = b
{_CONSUME.format(pad=p)}\
""")
    # ---- post-issue commits, classification, time advance ---------------
    classify_guard = ("if core.mode is not SCOUT:" if scout_possible
                      else "if True:")
    emit(f"""\
        core._ahead_pc = ahead_pc
        core._seq = seq
        stall = core._commit_stall
        if stall is None or cycle >= stall:
            if len(ckpt_live) >= 2 or not dq_entries:
                try_commits(cycle)
                if core.mode is NORMAL:
                    return
            else:
                core._commit_stall = NO_WAKE
        {classify_guard}
            if issued_replay:
                if issued_ahead:
                    new_mode = SST_MODE
                else:
                    new_mode = (REPLAY_ONLY if core._replay_no_boundary
                                else SST_MODE)
            elif core._replay_no_boundary:
                new_mode = REPLAY_ONLY
            else:
                new_mode = EXECUTE_AHEAD
            if new_mode is not core.mode:
                core.mode = new_mode
                core._mode_key = MODE_KEY[new_mode]
        if issued_replay or issued_ahead:
            next_cycle = cycle + 1
        else:
            outstanding = min_outstanding(cycle)
            if outstanding is not None and (
                    wake_min is None or outstanding < wake_min):
                wake_min = outstanding
            if wake_min is None:
                raise SIE(
                    f"speculative deadlock at cycle {{cycle}} "
                    f"(mode={{core.mode}}, block={{core._ahead_block}})"
                )
            next_cycle = wake_min
        core._next_event = next_cycle
        if until is not None and next_cycle > until:
            next_cycle = until
        if cycle != core._perf_stepped_cycle:
            core._perf_stepped_cycle = cycle
            perf.cycles_stepped += 1
        if next_cycle > cycle + 1:
            skipped = next_cycle - cycle - 1
            perf.cycles_skipped += skipped
            perf.fast_forwards += 1
            stalls = perf.stall_cycles
            stalls["spec_wait"] = stalls.get("spec_wait", 0) + skipped
        delta = next_cycle - core._mode_account_cycle
        if delta > 0:
            mode_cycles[core._mode_key] += delta
            core._mode_account_cycle = next_cycle
        core._cycle = next_cycle
""")
    return "".join(out)


def loop_source(config: SSTConfig, mispredict_penalty: int,
                checked: bool = False) -> str:
    """The generated loop source for one configuration signature."""
    latencies = config.latencies
    return _build_source(
        width=config.width,
        scout_possible=config.scout_enabled or config.scout_only,
        scout_enabled=config.scout_enabled,
        defer_long_ops=config.defer_long_ops,
        bypass=config.bypass_unresolved_stores,
        defer_tlb=config.defer_on_tlb_miss,
        defer_l1=config.defer_trigger is DeferTrigger.L1_MISS,
        lat_alu=latencies.alu,
        lat_mul=latencies.mul,
        lat_div=latencies.div,
        penalty=mispredict_penalty,
        checked=checked,
    )


_LOOP_CACHE: Dict[Tuple, Callable] = {}


def compile_spec_loop(config: SSTConfig, mispredict_penalty: int,
                      checked: bool = False) -> Callable:
    """The specialized loop for one configuration signature (cached).

    ``checked`` selects the variant with the sanitizer/taint hook
    sites; the core sets it when either checker is attached.
    """
    latencies = config.latencies
    key = (config.width, config.scout_enabled, config.scout_only,
           config.defer_long_ops, config.bypass_unresolved_stores,
           config.defer_on_tlb_miss, config.defer_trigger,
           latencies.alu, latencies.mul, latencies.div,
           mispredict_penalty, checked)
    loop = _LOOP_CACHE.get(key)
    if loop is not None:
        return loop

    # Imported here: sst_core imports this module, so a module-level
    # import would be a cycle; by the time we run, sst_core is loaded.
    from repro.core import sst_core
    from repro.isa import blockcache

    source = loop_source(config, mispredict_penalty, checked)
    namespace = {
        "NORMAL": ExecMode.NORMAL,
        "SCOUT": ExecMode.SCOUT,
        "SST_MODE": ExecMode.SST,
        "REPLAY_ONLY": ExecMode.REPLAY_ONLY,
        "EXECUTE_AHEAD": ExecMode.EXECUTE_AHEAD,
        "MODE_KEY": sst_core._MODE_KEY,
        "ISSUED": sst_core._ISSUED,
        "RETRY": sst_core._RETRY,
        "NO_WAKE": sst_core._NO_WAKE,
        "SB_FULL": ScoutCause.SB_FULL,
        "ACC_LOAD": AccessType.LOAD,
        "L1": HitLevel.L1,
        "DRAM": HitLevel.DRAM,
        "MERGE_L2": HitLevel.MERGE_L2,
        "SIE": SimulatorInvariantError,
        "DQEntry": sst_core.DQEntry,
        "heappush": heappush,
        "K_MUL": blockcache.K_MUL,
        "K_DIV": blockcache.K_DIV,
        "K_LOAD": blockcache.K_LOAD,
        "K_STORE": blockcache.K_STORE,
        "K_PREFETCH": blockcache.K_PREFETCH,
        "K_BRANCH": blockcache.K_BRANCH,
        "K_JUMP": blockcache.K_JUMP,
        "K_JUMP_INDIRECT": blockcache.K_JUMP_INDIRECT,
        "K_BARRIER": blockcache.K_BARRIER,
        "K_HALT": blockcache.K_HALT,
    }
    code = compile(source, "<sst_dispatch>", "exec")
    exec(code, namespace)  # noqa: S102 - trusted, generated above
    loop = namespace["_sst_spec_loop"]
    _LOOP_CACHE[key] = loop
    return loop
