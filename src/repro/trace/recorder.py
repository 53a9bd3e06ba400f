"""Trace capture from the functional interpreter.

A :class:`Trace` carries the dynamic memory-reference and branch
streams plus summary counts.  The text format is one event per line::

    # trace <program> insts=<n>
    L <pc> <addr>        load
    S <pc> <addr>        store
    B <pc> <0|1>         conditional branch, not-taken/taken

PCs are instruction indices (this ISA has no encoding); addresses are
hex.  Only the streams analyses need are recorded — a full
architectural replay is the interpreter's job, not the trace's.
"""

from __future__ import annotations

import dataclasses
import io
from typing import Iterable, List, Union

from repro.errors import ReproError
from repro.isa.interpreter import ArchState, DEFAULT_MAX_STEPS, Interpreter
from repro.isa.opcodes import OpClass
from repro.isa.program import Program
from repro.isa.semantics import branch_taken, effective_address


@dataclasses.dataclass(frozen=True)
class MemEvent:
    pc: int
    addr: int
    is_store: bool


@dataclasses.dataclass(frozen=True)
class BranchEvent:
    pc: int
    taken: bool


Event = Union[MemEvent, BranchEvent]


@dataclasses.dataclass
class Trace:
    """One program's dynamic event streams."""

    program_name: str
    instructions: int
    events: List[Event]

    @property
    def mem_events(self) -> List[MemEvent]:
        return [e for e in self.events if isinstance(e, MemEvent)]

    @property
    def branch_events(self) -> List[BranchEvent]:
        return [e for e in self.events if isinstance(e, BranchEvent)]

    # ------------------------------------------------------------------
    # Serialisation.
    # ------------------------------------------------------------------

    def dump(self, stream: io.TextIOBase) -> None:
        stream.write(
            f"# trace {self.program_name} insts={self.instructions}\n"
        )
        for event in self.events:
            if isinstance(event, MemEvent):
                kind = "S" if event.is_store else "L"
                stream.write(f"{kind} {event.pc} {event.addr:#x}\n")
            else:
                stream.write(f"B {event.pc} {int(event.taken)}\n")

    def dumps(self) -> str:
        buffer = io.StringIO()
        self.dump(buffer)
        return buffer.getvalue()

    @classmethod
    def load(cls, stream: Iterable[str]) -> "Trace":
        name = "trace"
        instructions = 0
        events: List[Event] = []
        for line_number, raw in enumerate(stream, start=1):
            line = raw.strip()
            if not line:
                continue
            if line.startswith("#"):
                parts = line.split()
                if len(parts) >= 3 and parts[1] == "trace":
                    name = parts[2]
                    for part in parts[3:]:
                        if part.startswith("insts="):
                            instructions = int(part[len("insts="):])
                continue
            parts = line.split()
            if len(parts) != 3 or parts[0] not in ("L", "S", "B"):
                raise ReproError(
                    f"trace line {line_number}: malformed event {line!r}"
                )
            if parts[0] == "B":
                events.append(BranchEvent(int(parts[1]),
                                          bool(int(parts[2]))))
            else:
                events.append(MemEvent(int(parts[1]), int(parts[2], 16),
                                       parts[0] == "S"))
        return cls(program_name=name, instructions=instructions,
                   events=events)

    @classmethod
    def loads(cls, text: str) -> "Trace":
        return cls.load(io.StringIO(text))


class _TracingInterpreter(Interpreter):
    """Interpreter that snoops memory and branch events as it runs."""

    def __init__(self, program: Program, max_steps: int):
        super().__init__(program, max_steps=max_steps)
        self.events: List[Event] = []

    def run(self) -> ArchState:
        # Tracing observes every dynamic instruction through step(),
        # so block execution must not route around the snoop.
        while not self.halted:
            self.step()
        return self.state

    def step(self) -> None:
        if self.halted:
            return
        state = self.state
        if 0 <= state.pc < len(self.program):
            inst = self.program[state.pc]
            cls = inst.op_class
            if cls is OpClass.LOAD or cls is OpClass.STORE:
                addr = effective_address(
                    state.read_reg(inst.rs1), inst.imm
                )
                self.events.append(
                    MemEvent(state.pc, addr, cls is OpClass.STORE)
                )
            elif cls is OpClass.BRANCH:
                taken = branch_taken(
                    inst.op,
                    state.read_reg(inst.rs1),
                    state.read_reg(inst.rs2),
                )
                self.events.append(BranchEvent(state.pc, taken))
        super().step()


def record_trace(program: Program,
                 max_steps: int = DEFAULT_MAX_STEPS) -> Trace:
    """Functionally execute ``program`` and capture its trace."""
    interpreter = _TracingInterpreter(program, max_steps=max_steps)
    interpreter.run()
    return Trace(
        program_name=program.name,
        instructions=interpreter.stats.instructions,
        events=interpreter.events,
    )
