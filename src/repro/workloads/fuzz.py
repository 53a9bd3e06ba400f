"""Differential program fuzzer: random programs vs. the golden model.

The library's strongest correctness property is that *every* timing
core ends a program in the same architectural state as the functional
interpreter.  This module turns the property-test generator into a
reusable discovery engine:

* :func:`program_shapes` — a hypothesis strategy over program *shapes*
  (register/heap init, a counted loop, a body of safe atoms: masked
  aligned memory ops, data-dependent forward branches, leaf calls,
  long-latency ops, barriers),
* :func:`build_program` — deterministic shape → :class:`Program`
  (proglint-clean by construction),
* :func:`differential_check` — one program through every core factory
  (in-order, two OoO variants, four SST variants, scout-only), checked
  against the golden interpreter, and through the lane-batched in-order
  timing ensemble, checked against the scalar in-order core; any
  divergence comes back as a string verdict,
* :func:`fuzz` — drives hypothesis' ``find`` so a failing shape is
  *shrunk* to a minimal reproducer before being reported.

hypothesis is an optional dependency: the module imports without it,
and :func:`fuzz` raises :class:`~repro.errors.ReproError` if it is
missing.  Runs are derandomized (no database, fixed seed derivation)
so CI failures reproduce locally.
"""

from __future__ import annotations

import dataclasses
from typing import Callable, List, Optional, Tuple

try:  # optional dependency — everything but fuzz() works without it
    from hypothesis import HealthCheck, find, settings
    from hypothesis import strategies as st
    from hypothesis.errors import NoSuchExample

    HAVE_HYPOTHESIS = True
except ImportError:  # pragma: no cover - exercised only without hypothesis
    HAVE_HYPOTHESIS = False

from repro.baselines.inorder import InOrderCore
from repro.baselines.ooo import OoOCore
from repro.config import (
    CacheConfig,
    DRAMConfig,
    HierarchyConfig,
    InOrderConfig,
    OoOConfig,
    SSTConfig,
    inorder_machine,
)
from repro.core import SSTCore
from repro.errors import ReproError
from repro.isa.builder import ProgramBuilder
from repro.isa.opcodes import Op
from repro.isa.program import Program
from repro.isa.registers import RA_REG
from repro.memory.cache import load_numpy
from repro.memory.hierarchy import MemoryHierarchy
from repro.sim.machine import Machine
from repro.sim.runner import verify_against_golden
from repro.sim.timing_ensemble import (
    run_timing_ensemble,
    timing_ensemble_eligible,
)

HEAP = 0x100000
HEAP_WORDS = 64
POOL = list(range(1, 9))  # general registers used by generated code
ALU_REG_OPS = [Op.ADD, Op.SUB, Op.MUL, Op.AND, Op.OR, Op.XOR, Op.SLT,
               Op.SLTU, Op.DIV, Op.REM]
ALU_IMM_OPS = [Op.ADDI, Op.ANDI, Op.ORI, Op.XORI, Op.SLTI]
SHIFT_OPS = [Op.SLLI, Op.SRLI, Op.SRAI]
BRANCH_OPS = [Op.BEQ, Op.BNE, Op.BLT, Op.BGE, Op.BLTU, Op.BGEU]

MAX_INSTRUCTIONS = 2_000_000


def small_hierarchy(latency: int = 60) -> HierarchyConfig:
    """Caches small enough that tiny fuzzed programs actually miss."""
    return HierarchyConfig(
        l1d=CacheConfig(size_bytes=4 * 1024, assoc=2, hit_latency=2,
                        mshr_entries=16),
        l1i=CacheConfig(size_bytes=4 * 1024, assoc=2, hit_latency=1,
                        mshr_entries=4),
        l2=CacheConfig(size_bytes=32 * 1024, assoc=4, hit_latency=12,
                       mshr_entries=16),
        dram=DRAMConfig(latency=latency, min_interval=2),
    )


# Every machine variant worth differential coverage: any bug in
# deferral, replay ordering, store forwarding, last-writer merge,
# rollback, or scout re-execution diverges one of these from golden.
CORE_FACTORIES: List[Tuple[str, Callable]] = [
    ("inorder", lambda p, h: InOrderCore(p, h, InOrderConfig())),
    ("ooo", lambda p, h: OoOCore(p, h, OoOConfig(
        rob_size=32, iq_size=16, lsq_size=16))),
    ("ooo-oracle", lambda p, h: OoOCore(p, h, OoOConfig(
        rob_size=64, iq_size=21, lsq_size=21,
        perfect_disambiguation=True))),
    ("sst", lambda p, h: SSTCore(p, h, SSTConfig())),
    ("ea-conservative", lambda p, h: SSTCore(p, h, SSTConfig(
        checkpoints=1, bypass_unresolved_stores=False))),
    ("sst-stressed", lambda p, h: SSTCore(p, h, SSTConfig(
        checkpoints=3, dq_size=3, sb_size=2))),
    ("sst-stall", lambda p, h: SSTCore(p, h, SSTConfig(
        dq_size=4, sb_size=4, scout_enabled=False))),
    ("scout-only", lambda p, h: SSTCore(p, h, SSTConfig(
        checkpoints=1, scout_only=True))),
]


def program_shapes():
    """The hypothesis strategy over program shapes."""
    if not HAVE_HYPOTHESIS:
        raise ReproError(
            "the fuzzer needs hypothesis, which is not installed"
        )
    reg = st.sampled_from(POOL)
    reg_or_zero = st.sampled_from([0] + POOL)
    atom = st.one_of(
        st.tuples(st.just("alu"), st.sampled_from(ALU_REG_OPS), reg,
                  reg_or_zero, reg_or_zero),
        st.tuples(st.just("alui"), st.sampled_from(ALU_IMM_OPS), reg, reg,
                  st.integers(-128, 127)),
        st.tuples(st.just("shift"), st.sampled_from(SHIFT_OPS), reg, reg,
                  st.integers(0, 63)),
        st.tuples(st.just("movi"), reg, st.integers(-(2**40), 2**40)),
        st.tuples(st.just("load"), reg, reg),
        st.tuples(st.just("store"), reg, reg),
        st.tuples(st.just("branch"), st.sampled_from(BRANCH_OPS), reg,
                  reg_or_zero, st.integers(1, 3)),
        st.tuples(st.just("call"),),
        st.tuples(st.just("membar"),),
        st.tuples(st.just("prefetch"), reg),
        st.tuples(st.just("nop"),),
    )
    return st.tuples(
        st.lists(st.integers(0, 2**32), min_size=8, max_size=8),
        st.lists(st.integers(0, 2**20), min_size=HEAP_WORDS,
                 max_size=HEAP_WORDS),
        st.integers(1, 5),
        st.lists(atom, min_size=4, max_size=28),
    )


def build_program(shape, name: str = "fuzzed") -> Program:
    """Deterministic shape → Program.  Memory atoms mask and align
    their addresses into a small shared heap, so every generated
    program is proglint-clean and halts."""
    reg_init, heap_init, loop_count, body = shape
    builder = ProgramBuilder(name)
    builder.data_words(HEAP, heap_init)
    for index, value in enumerate(reg_init):
        builder.movi(POOL[index], value)
    builder.movi(10, HEAP)
    builder.movi(11, loop_count)
    builder.label("top")
    label_id = [0]

    def emit(item):
        kind = item[0]
        if kind == "alu":
            _, op, rd, rs1, rs2 = item
            builder.alu(op, rd, rs1, rs2)
        elif kind == "alui":
            _, op, rd, rs1, imm = item
            builder.alui(op, rd, rs1, imm)
        elif kind == "shift":
            _, op, rd, rs1, amount = item
            builder.alui(op, rd, rs1, amount)
        elif kind == "movi":
            _, rd, value = item
            builder.movi(rd, value)
        elif kind == "load":
            _, rd, base = item
            builder.andi(12, base, 8 * (HEAP_WORDS - 1))
            builder.add(12, 12, 10)
            builder.ld(rd, 12, 0)
        elif kind == "store":
            _, src, base = item
            builder.andi(12, base, 8 * (HEAP_WORDS - 1))
            builder.add(12, 12, 10)
            builder.st(src, 12, 0)
        elif kind == "prefetch":
            (_, base) = item
            builder.andi(12, base, 8 * (HEAP_WORDS - 1))
            builder.add(12, 12, 10)
            builder.prefetch(12, 0)
        elif kind == "membar":
            builder.membar()
        elif kind == "nop":
            builder.nop()
        elif kind == "call":
            builder.jal(RA_REG, "leaf")
        else:  # pragma: no cover
            raise AssertionError(kind)

    index = 0
    while index < len(body):
        item = body[index]
        if item[0] == "branch":
            _, op, rs1, rs2, skip = item
            label = f"skip{label_id[0]}"
            label_id[0] += 1
            builder.branch(op, rs1, rs2, label)
            for skipped in body[index + 1:index + 1 + skip]:
                if skipped[0] != "branch":  # keep nesting simple
                    emit(skipped)
            builder.label(label)
            index += 1 + skip
        else:
            emit(item)
            index += 1

    builder.addi(11, 11, -1)
    builder.bne(11, 0, "top")
    builder.halt()
    builder.label("leaf")
    builder.xor(1, 1, 2)
    builder.addi(2, 2, 3)
    builder.jalr(0, RA_REG, 0)
    return builder.build()


def differential_check(program: Program) -> Optional[str]:
    """Run ``program`` through every machine variant; return a verdict
    string on the first divergence, ``None`` if every core agrees with
    the golden interpreter and the batched in-order lane with the
    scalar in-order core."""
    for name, factory in CORE_FACTORIES:
        hierarchy = MemoryHierarchy(small_hierarchy())
        core = factory(program, hierarchy)
        try:
            result = core.run(max_instructions=MAX_INSTRUCTIONS)
            result.core_name = name
            verify_against_golden(result, program)
        except ReproError as error:
            return f"{name}: {error}"

    # Lane-batched timing engine vs. the scalar in-order core: the
    # whole CoreResult (cycles, state, stats) must be identical.  Skipped
    # when numpy is absent or does not import.
    config = inorder_machine(small_hierarchy())
    if timing_ensemble_eligible(config) and load_numpy() is not None:
        try:
            [lane] = run_timing_ensemble(config, [program],
                                         MAX_INSTRUCTIONS)
            scalar = Machine(config).run(program,
                                         max_instructions=MAX_INSTRUCTIONS)
        except ReproError as error:
            return f"timing-ensemble: {error}"
        if not lane.ok:
            return f"timing-ensemble: {lane.error}"
        if lane.result != scalar:
            return "timing-ensemble: CoreResult diverged from scalar core"
    return None


@dataclasses.dataclass
class FuzzFailure:
    """A shrunk counterexample: the minimal shape hypothesis found,
    the program it builds, and the first core's verdict."""

    shape: tuple
    program: Program
    detail: str

    def summary(self) -> dict:
        return {
            "detail": self.detail,
            "instructions": len(self.program.instructions),
            "loop_count": self.shape[2],
            "body_atoms": len(self.shape[3]),
            "listing": [str(inst) for inst in self.program.instructions],
        }


def corrupt(program: Program) -> Program:
    """Flip the program's first SUB to ADD — a seeded wrong-core stand-
    in the tests use to demonstrate end-to-end shrinking."""
    instructions = list(program.instructions)
    for index, inst in enumerate(instructions):
        if inst.op is Op.SUB:
            instructions[index] = dataclasses.replace(inst, op=Op.ADD)
            break
    else:
        return program
    return Program(instructions, data=program.data,
                   name=program.name + "-corrupt",
                   secret_ranges=program.secret_ranges)


def fuzz(max_examples: int = 50,
         check: Callable[[Program], Optional[str]] = differential_check,
         ) -> Optional[FuzzFailure]:
    """Search ``max_examples`` random shapes for one whose program
    fails ``check``; shrink it and return a :class:`FuzzFailure`, or
    ``None`` when no counterexample is found.

    Derandomized: the same ``max_examples`` explores the same shapes on
    every run, so a CI failure reproduces locally with no seed to copy.
    """
    if not HAVE_HYPOTHESIS:
        raise ReproError(
            "the fuzzer needs hypothesis, which is not installed"
        )

    def is_failing(shape) -> bool:
        return check(build_program(shape)) is not None

    try:
        shape = find(
            program_shapes(), is_failing,
            settings=settings(
                max_examples=max_examples, deadline=None,
                database=None, derandomize=True,
                suppress_health_check=list(HealthCheck),
            ),
        )
    except NoSuchExample:
        return None
    program = build_program(shape)
    detail = check(program)
    return FuzzFailure(shape=shape, program=program,
                       detail=detail or "unreproducible after shrink")


__all__ = [
    "CORE_FACTORIES",
    "FuzzFailure",
    "HAVE_HYPOTHESIS",
    "build_program",
    "corrupt",
    "differential_check",
    "fuzz",
    "program_shapes",
    "small_hierarchy",
]
