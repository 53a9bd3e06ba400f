"""Functional golden-model interpreter.

Executes a :class:`~repro.isa.program.Program` with no timing at all.
Every timing core in the library must end with exactly the same
architectural state (registers + memory) as this interpreter — that
equivalence is the library's core correctness property and is enforced
by the integration and hypothesis test suites.
"""

from __future__ import annotations

import dataclasses
from typing import List, Optional

from repro.errors import ExecutionError
from repro.isa import blockcache
from repro.isa.opcodes import OpClass
from repro.isa.program import Program
from repro.isa.registers import REG_COUNT, ZERO_REG
from repro.isa.semantics import effective_address
from repro.memory.sparse_memory import SparseMemory

DEFAULT_MAX_STEPS = 50_000_000


@dataclasses.dataclass
class ArchState:
    """Architectural registers + memory, independent of any core."""

    regs: List[int]
    memory: SparseMemory
    pc: int = 0

    @classmethod
    def fresh(cls, program: Optional[Program] = None) -> "ArchState":
        memory = SparseMemory()
        if program is not None:
            memory.load_image(program.data)
        return cls(regs=[0] * REG_COUNT, memory=memory, pc=0)

    def read_reg(self, index: int) -> int:
        return 0 if index == ZERO_REG else self.regs[index]

    def write_reg(self, index: int, value: int) -> None:
        if index != ZERO_REG:
            self.regs[index] = value

    def same_architectural_state(self, other: "ArchState") -> bool:
        """Registers and memory equal (PC excluded; HALT position may
        legitimately differ between models only if programs differ,
        so callers normally run the same program)."""
        return self.regs == other.regs and self.memory == other.memory


@dataclasses.dataclass
class InterpreterStats:
    """Dynamic instruction mix of one functional run."""

    instructions: int = 0
    loads: int = 0
    stores: int = 0
    branches: int = 0
    branches_taken: int = 0
    jumps: int = 0


class Interpreter:
    """Step-at-a-time functional executor."""

    def __init__(self, program: Program, max_steps: int = DEFAULT_MAX_STEPS):
        program.validate()
        self.program = program
        self.state = ArchState.fresh(program)
        self.stats = InterpreterStats()
        self.max_steps = max_steps
        self.halted = False
        self._block_fns = blockcache.get_block_program(program).block_fns

    def run(self) -> ArchState:
        """Run to HALT; raises :class:`ExecutionError` on runaway."""
        # Block dispatch: whole basic blocks execute as one generated
        # function call.  step() remains the per-instruction reference
        # and the fallback for mid-block entry PCs (JALR return into a
        # block body) and for blocks that would overrun max_steps.
        state = self.state
        regs = state.regs
        mem_read = state.memory.read
        mem_write = state.memory.write
        stats = self.stats
        max_steps = self.max_steps
        get_block = self._block_fns.get
        while not self.halted:
            entry = get_block(state.pc)
            if entry is None:
                self.step()
                continue
            fn, length = entry
            if stats.instructions + length > max_steps:
                self.step()
                continue
            next_pc = fn(state, regs, mem_read, mem_write, stats)
            if next_pc is None:
                self.halted = True
                break
            state.pc = next_pc
        return self.state

    def step(self) -> None:
        """Execute one instruction (no-op once halted)."""
        if self.halted:
            return
        if self.stats.instructions >= self.max_steps:
            raise ExecutionError(
                f"exceeded {self.max_steps} steps without HALT "
                f"(program {self.program.name!r})"
            )
        state = self.state
        if not 0 <= state.pc < len(self.program):
            raise ExecutionError(f"PC {state.pc} outside program")
        inst = self.program[state.pc]
        self.stats.instructions += 1
        op = inst.op
        cls = inst.op_class
        next_pc = state.pc + 1

        if cls is OpClass.ALU or cls is OpClass.MUL or cls is OpClass.DIV:
            fn = inst.alu_fn
            if inst.alu_uses_imm:
                # MOVI ignores its first operand, so the uniform rs1
                # read is safe for every immediate form.
                result = fn(state.read_reg(inst.rs1), inst.imm)
            else:
                result = fn(
                    state.read_reg(inst.rs1), state.read_reg(inst.rs2)
                )
            state.write_reg(inst.rd, result)
        elif cls is OpClass.LOAD:
            addr = effective_address(state.read_reg(inst.rs1), inst.imm)
            state.write_reg(inst.rd, state.memory.read(addr))
            self.stats.loads += 1
        elif cls is OpClass.STORE:
            addr = effective_address(state.read_reg(inst.rs1), inst.imm)
            state.memory.write(addr, state.read_reg(inst.rs2))
            self.stats.stores += 1
        elif cls is OpClass.BRANCH:
            self.stats.branches += 1
            if inst.branch_fn(
                state.read_reg(inst.rs1), state.read_reg(inst.rs2)
            ):
                self.stats.branches_taken += 1
                next_pc = inst.target
        elif cls is OpClass.JUMP:
            self.stats.jumps += 1
            state.write_reg(inst.rd, state.pc + 1)
            next_pc = inst.target
        elif cls is OpClass.JUMP_INDIRECT:
            self.stats.jumps += 1
            dest = effective_address(state.read_reg(inst.rs1), inst.imm)
            state.write_reg(inst.rd, state.pc + 1)
            if not 0 <= dest < len(self.program):
                raise ExecutionError(
                    f"indirect jump to {dest} outside program at PC {state.pc}"
                )
            next_pc = dest
        elif cls is OpClass.HALT:
            self.halted = True
            return
        elif cls in (OpClass.BARRIER, OpClass.PREFETCH, OpClass.NOP):
            pass
        else:  # pragma: no cover - exhaustiveness guard
            raise ExecutionError(f"unhandled opcode {op}")
        state.pc = next_pc


def run_program(program: Program, max_steps: int = DEFAULT_MAX_STEPS) -> ArchState:
    """Convenience wrapper: functional final state of ``program``."""
    return Interpreter(program, max_steps=max_steps).run()
