"""Microarchitectural sanitizer: per-event invariant checking.

The cores enforce a handful of invariants with scattered ad-hoc raises;
this module makes the full set explicit, checks them *continuously* at
the events where they can break, and attributes any violation to a
cycle and strand.  It is strictly observational: with the sanitizer on,
every cycle count is bit-identical to a run with it off (the golden
cycle tests assert exactly that), so it can ride along under any
experiment without invalidating its numbers.

Enabled per-process by the ``REPRO_SANITIZE`` environment flag (off by
default) or per-core by passing a sanitizer instance to the core
constructor.  Violations raise :class:`~repro.errors.SanitizerError`
(a :class:`~repro.errors.SimulatorInvariantError`).

Checked invariants (see DESIGN.md for the paper mapping):

* **dq-live-checkpoint** — every deferred-queue entry belongs to an
  epoch covered by a live checkpoint (its seq is at or above the oldest
  checkpoint's start seq).
* **sb-fifo-drain** — store-buffer commits drain resolved entries in
  strictly ascending seq (FIFO) order.
* **spec-store-containment** — no architectural memory write happens
  during a speculative episode except through a commit drain.
* **occupancy** — DQ/SB/checkpoint (SST) and ROB/IQ/LSQ (OoO)
  occupancies never exceed their configured capacities.
* **replay-reconvergence** — at every full commit (and at HALT) the
  committed architectural state equals the golden interpreter's state
  after the same number of retired instructions.
* **zero-register** — ``r0`` still reads 0 at every commit boundary.
"""

from __future__ import annotations

import os
from typing import List, Optional

from repro.errors import SanitizerError
from repro.isa.interpreter import Interpreter
from repro.isa.program import Program
from repro.isa.registers import ZERO_REG

_TRUTHY = ("1", "on", "true", "yes")


def sanitize_enabled() -> bool:
    """The ``REPRO_SANITIZE`` process-wide gate (off by default)."""
    return os.environ.get("REPRO_SANITIZE", "").lower() in _TRUTHY


class Sanitizer:
    """Base checker: event sink + shared reconvergence machinery.

    A core holds at most one sanitizer; every hook site is guarded by
    ``if self.sanitizer is not None`` so the disabled path costs one
    attribute test and the enabled path never feeds back into timing.
    The SST core's speculative loop is generated
    (:mod:`repro.core.sst_dispatch`): with a sanitizer attached it runs
    the loop's *checked* variant, which routes every deferral through
    the hooked ``SSTCore._defer_issue``; the variant production runs
    has no hook sites at all.
    """

    def __init__(self, core_name: str, program: Program):
        self.core_name = core_name
        self.program = program
        self.violations = 0  # incremented before each raise
        self._shadow: Optional[Interpreter] = None

    # ------------------------------------------------------------------
    # Violation plumbing.
    # ------------------------------------------------------------------

    def _fail(self, invariant: str, detail: str, *,
              cycle: Optional[int] = None, strand: str = "") -> None:
        self.violations += 1
        raise SanitizerError(invariant, detail, core=self.core_name,
                             cycle=cycle, strand=strand)

    # ------------------------------------------------------------------
    # Golden-stream reconvergence (shared by every core).
    # ------------------------------------------------------------------

    def _shadow_interpreter(self) -> Interpreter:
        if self._shadow is None:
            self._shadow = Interpreter(self.program)
        return self._shadow

    def check_reconvergence(self, executed: int, regs: List[int],
                            memory, *, cycle: Optional[int] = None,
                            pc: Optional[int] = None) -> None:
        """Committed state must match the interpreter after ``executed``
        retired instructions (the architectural stream is unique)."""
        shadow = self._shadow_interpreter()
        while shadow.stats.instructions < executed and not shadow.halted:
            shadow.step()
        if shadow.stats.instructions != executed:
            self._fail(
                "replay-reconvergence",
                f"core retired {executed} instructions but the golden "
                f"stream halts after {shadow.stats.instructions}",
                cycle=cycle, strand="commit",
            )
        state = shadow.state
        if regs != state.regs:
            diffs = [
                f"r{i}: core={core_value:#x} golden={golden_value:#x}"
                for i, (core_value, golden_value)
                in enumerate(zip(regs, state.regs))
                if core_value != golden_value
            ]
            self._fail(
                "replay-reconvergence",
                f"register state diverged after {executed} retired "
                f"instructions: " + "; ".join(diffs[:4]),
                cycle=cycle, strand="commit",
            )
        if memory is not None and memory != state.memory:
            self._fail(
                "replay-reconvergence",
                f"memory state diverged after {executed} retired "
                f"instructions", cycle=cycle, strand="commit",
            )
        if pc is not None and not shadow.halted and pc != state.pc:
            self._fail(
                "replay-reconvergence",
                f"PC diverged after {executed} retired instructions: "
                f"core={pc} golden={state.pc}", cycle=cycle,
                strand="commit",
            )

    def check_zero_register(self, regs: List[int], *,
                            cycle: Optional[int] = None) -> None:
        if regs[ZERO_REG] != 0:
            self._fail(
                "zero-register",
                f"r0 reads {regs[ZERO_REG]:#x}, not 0", cycle=cycle,
            )


class SSTSanitizer(Sanitizer):
    """Event checks for :class:`~repro.core.sst_core.SSTCore`."""

    def __init__(self, core_name: str, program: Program):
        super().__init__(core_name, program)
        self._in_episode = False
        self._in_drain = False

    # ---- speculative-store containment -------------------------------

    def attach_memory_guard(self, state) -> None:
        """Wrap the architectural memory's write entry point so any
        speculative write outside a commit drain is caught at the exact
        instruction that issued it (not at the next commit)."""
        real_write = state.memory.write

        def guarded_write(addr: int, value: int) -> None:
            if self._in_episode and not self._in_drain:
                self._fail(
                    "spec-store-containment",
                    f"architectural memory write to {addr:#x} during a "
                    f"speculative episode outside a commit drain",
                    strand="ahead",
                )
            real_write(addr, value)

        state.memory.write = guarded_write

    @staticmethod
    def detach_memory_guard(state) -> None:
        """Remove the wrapper (restoring the bound method) once the run
        is over — the guard is a closure, and leaving it attached would
        make the final state unpicklable for the parallel runner."""
        state.memory.__dict__.pop("write", None)

    def on_episode_begin(self, cycle: int) -> None:
        self._in_episode = True

    def on_episode_end(self, cycle: int) -> None:
        self._in_episode = False

    # ---- deferred queue ----------------------------------------------

    def on_defer(self, entry, checkpoints, dq, cycle: int) -> None:
        if not checkpoints:
            self._fail(
                "dq-live-checkpoint",
                f"deferred seq {entry.seq} (pc {entry.pc}) with no live "
                f"checkpoint", cycle=cycle, strand="ahead",
            )
        oldest = checkpoints.oldest()
        if entry.seq < oldest.start_seq:
            self._fail(
                "dq-live-checkpoint",
                f"deferred seq {entry.seq} predates the oldest live "
                f"checkpoint (start_seq {oldest.start_seq})",
                cycle=cycle, strand="ahead",
            )
        if len(dq) > dq.capacity:
            self._fail(
                "occupancy",
                f"DQ holds {len(dq)} entries, capacity {dq.capacity}",
                cycle=cycle, strand="ahead",
            )

    def on_replay(self, entry, checkpoints, cycle: int) -> None:
        if not checkpoints or entry.seq < checkpoints.oldest().start_seq:
            self._fail(
                "dq-live-checkpoint",
                f"replaying seq {entry.seq} outside every live "
                f"checkpoint's epoch", cycle=cycle, strand="replay",
            )

    # ---- store buffer ------------------------------------------------

    def on_spec_store(self, sb, cycle: int) -> None:
        if len(sb) > sb.capacity:
            self._fail(
                "occupancy",
                f"SB holds {len(sb)} entries, capacity {sb.capacity}",
                cycle=cycle, strand="ahead",
            )

    def on_drain_begin(self, entries, cycle: int) -> None:
        """Validate a commit drain *before* any entry reaches memory, so
        a corrupt buffer cannot pollute architectural state first."""
        self._check_drain(entries, cycle)
        self._in_drain = True

    def on_drain_end(self) -> None:
        self._in_drain = False

    def _check_drain(self, entries, cycle: int) -> None:
        previous = None
        for entry in entries:
            if not entry.resolved:
                self._fail(
                    "sb-fifo-drain",
                    f"drained store seq {entry.seq} is unresolved",
                    cycle=cycle, strand="commit",
                )
            if entry.addr is None or entry.value is None:
                self._fail(
                    "sb-fifo-drain",
                    f"drained store seq {entry.seq} has no "
                    f"address/data", cycle=cycle, strand="commit",
                )
            if previous is not None and entry.seq <= previous:
                self._fail(
                    "sb-fifo-drain",
                    f"drain order inverted: seq {entry.seq} after "
                    f"{previous}", cycle=cycle, strand="commit",
                )
            previous = entry.seq

    # ---- checkpoints / commit ----------------------------------------

    def on_checkpoint(self, checkpoints, cycle: int) -> None:
        if len(checkpoints) > checkpoints.capacity:
            self._fail(
                "occupancy",
                f"{len(checkpoints)} live checkpoints, capacity "
                f"{checkpoints.capacity}", cycle=cycle,
            )

    def on_commit(self, executed: int, regs: List[int], memory,
                  pc: Optional[int], cycle: int) -> None:
        """Full commit (or HALT): the committed stream reconverges."""
        self.check_zero_register(regs, cycle=cycle)
        self.check_reconvergence(executed, regs, memory,
                                 cycle=cycle, pc=pc)


class OoOSanitizer(Sanitizer):
    """Event checks for the out-of-order comparator core."""

    def on_dispatch(self, rob_len: int, iq_len: int, lsq_len: int,
                    config, cycle: int) -> None:
        if rob_len > config.rob_size:
            self._fail("occupancy",
                       f"ROB holds {rob_len}, capacity {config.rob_size}",
                       cycle=cycle)
        if iq_len > config.iq_size:
            self._fail("occupancy",
                       f"IQ holds {iq_len}, capacity {config.iq_size}",
                       cycle=cycle)
        if lsq_len > config.lsq_size:
            self._fail("occupancy",
                       f"LSQ holds {lsq_len}, capacity {config.lsq_size}",
                       cycle=cycle)

    def on_commit(self, commit_time: int, last_commit: int,
                  cycle: int) -> None:
        if commit_time < last_commit:
            self._fail(
                "commit-order",
                f"commit at cycle {commit_time} precedes older commit "
                f"at {last_commit}", cycle=cycle,
            )

    def on_halt(self, executed: int, regs: List[int], memory,
                cycle: int) -> None:
        self.check_zero_register(regs, cycle=cycle)
        self.check_reconvergence(executed, regs, memory, cycle=cycle)


class InOrderSanitizer(Sanitizer):
    """Event checks for the in-order baseline core."""

    def __init__(self, core_name: str, program: Program):
        super().__init__(core_name, program)
        self._last_slot = 0

    def on_issue(self, slot: int, cycle: int) -> None:
        if slot < self._last_slot:
            self._fail(
                "issue-order",
                f"issue slot {slot} precedes older issue at "
                f"{self._last_slot}", cycle=cycle,
            )
        self._last_slot = slot

    def on_halt(self, executed: int, regs: List[int], memory,
                cycle: int) -> None:
        self.check_zero_register(regs, cycle=cycle)
        self.check_reconvergence(executed, regs, memory, cycle=cycle)


def make_sanitizer(kind: str, core_name: str,
                   program: Program) -> Optional[Sanitizer]:
    """The per-core factory the cores call at construction.

    Returns None unless ``REPRO_SANITIZE`` is set, so the default path
    stays hook-free.  ``kind`` is ``"sst"`` / ``"ooo"`` / ``"inorder"``.
    """
    if not sanitize_enabled():
        return None
    factory = {
        "sst": SSTSanitizer,
        "ooo": OoOSanitizer,
        "inorder": InOrderSanitizer,
    }[kind]
    return factory(core_name, program)


__all__ = [
    "InOrderSanitizer",
    "OoOSanitizer",
    "Sanitizer",
    "SSTSanitizer",
    "make_sanitizer",
    "sanitize_enabled",
]
