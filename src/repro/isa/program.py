"""Program container: instructions, labels, and an initial data image.

A :class:`Program` is what workload generators produce and what every
core consumes.  The data image is a list of :class:`DataWord` records so
that generators can lay out heaps, linked lists and tables without
touching a memory model directly.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, Iterable, Iterator, List, Optional, Tuple

from repro.errors import ReproError
from repro.isa.instruction import Instruction
from repro.regress.semid import line_digest

WORD_SIZE = 8  # bytes per architectural word


@dataclasses.dataclass(frozen=True)
class DataWord:
    """One initialised 64-bit word of the data image."""

    addr: int
    value: int

    def __post_init__(self) -> None:
        if self.addr % WORD_SIZE != 0:
            raise ReproError(f"data word at misaligned address {self.addr:#x}")


class Program:
    """An assembled program: instruction list + labels + data image.

    Instances are conceptually immutable once built; workload generators
    construct them through :class:`ProgramBuilder` or the assembler.
    """

    def __init__(
        self,
        instructions: List[Instruction],
        labels: Optional[Dict[str, int]] = None,
        data: Optional[Iterable[DataWord]] = None,
        name: str = "program",
        secret_ranges: Optional[Iterable[Tuple[int, int]]] = None,
    ):
        self.instructions: List[Instruction] = list(instructions)
        self.labels: Dict[str, int] = dict(labels or {})
        self.data: List[DataWord] = list(data or [])
        self.name = name
        # Half-open [start, end) byte ranges of the data image that hold
        # secret values, for the speculative-leak taint analysis
        # (repro.analysis.taint).  Empty for ordinary programs.
        self.secret_ranges: Tuple[Tuple[int, int], ...] = tuple(
            sorted((int(start), int(end)) for start, end in (secret_ranges or ()))
        )
        for start, end in self.secret_ranges:
            if start % WORD_SIZE or end % WORD_SIZE or end <= start:
                raise ReproError(
                    f"bad secret range [{start:#x}, {end:#x}): ranges must "
                    f"be non-empty and word-aligned"
                )
        self._fingerprint: Optional[str] = None
        self._shape_fingerprint: Optional[str] = None

    @property
    def has_secrets(self) -> bool:
        return bool(self.secret_ranges)

    def is_secret_addr(self, addr: int) -> bool:
        """Does the word at ``addr`` overlap a declared secret range?"""
        for start, end in self.secret_ranges:
            if start < addr + WORD_SIZE and addr < end:
                return True
        return False

    def __len__(self) -> int:
        return len(self.instructions)

    def __iter__(self) -> Iterator[Instruction]:
        return iter(self.instructions)

    def __getitem__(self, index: int) -> Instruction:
        return self.instructions[index]

    def fingerprint(self) -> str:
        """Content identity: a SHA-256 over the instruction stream, the
        initial data image, and the program name.

        Two programs with the same fingerprint produce identical runs on
        identical machines, which is what makes the fingerprint usable
        as part of a content-addressed result-cache key (labels are
        excluded — they are disassembly cosmetics with no architectural
        effect).  The digest is memoized; programs are immutable once
        built.  Hashing routes through the shared semantic-ID scheme
        (:func:`repro.regress.semid.line_digest`), bit-compatible with
        every fingerprint minted before the unification.
        """
        if self._fingerprint is None:
            self._fingerprint = line_digest(self._fingerprint_lines())
        return self._fingerprint

    def _fingerprint_lines(self) -> Iterator[str]:
        yield f"program:{self.name}"
        for inst in self.instructions:
            yield (
                f"i:{inst.op.value}:{inst.rd}:{inst.rs1}:{inst.rs2}:"
                f"{inst.imm}:{inst.target}"
            )
        for word in self.data:
            yield f"d:{word.addr}:{word.value}"
        # Secret annotations change what the taint analysis reports,
        # so they are part of content identity — but only when
        # present, so every pre-existing fingerprint is unchanged.
        for start, end in self.secret_ranges:
            yield f"s:{start}:{end}"

    def shape_fingerprint(self) -> str:
        """Code-*shape* identity: a SHA-256 over the instruction stream
        with immediates, data image and name excluded.

        Two programs share a shape fingerprint exactly when they have
        the same opcodes, register operands and branch targets at every
        PC — i.e. the same control-flow graph and the same dataflow
        wiring — and differ only in immediate values and initial data.
        That is the lane-compatibility contract of the lane-batched
        timing engine (:mod:`repro.sim.timing_ensemble`):
        parameter-varied instances of one workload generator share a
        shape, so one decoded instruction stream drives all of them in
        lockstep.
        Memoized like :meth:`fingerprint`.
        """
        if self._shape_fingerprint is None:
            self._shape_fingerprint = line_digest(
                f"s:{inst.op.value}:{inst.rd}:{inst.rs1}:{inst.rs2}:"
                f"{inst.target}"
                for inst in self.instructions
            )
        return self._shape_fingerprint

    def label_of(self, index: int) -> Optional[str]:
        """Reverse label lookup (first match), for disassembly."""
        for name, at in self.labels.items():
            if at == index:
                return name
        return None

    def disassemble(self) -> str:
        """A printable listing with labels, for debugging and examples."""
        lines = []
        for index, inst in enumerate(self.instructions):
            label = self.label_of(index)
            if label is not None:
                lines.append(f"{label}:")
            lines.append(f"  {index:5d}  {inst}")
        return "\n".join(lines)

    def validate(self) -> None:
        """Check structural sanity: targets in range, ends in HALT.

        Raises :class:`ReproError` on the first problem found.
        """
        from repro.isa.opcodes import Op, OpClass

        if not self.instructions:
            raise ReproError("empty program")
        for index, inst in enumerate(self.instructions):
            if inst.op_class in (OpClass.BRANCH, OpClass.JUMP):
                if not 0 <= inst.target < len(self.instructions):
                    raise ReproError(
                        f"instruction {index} targets {inst.target}, "
                        f"outside program of length {len(self.instructions)}"
                    )
        if not any(inst.op is Op.HALT for inst in self.instructions):
            raise ReproError("program has no HALT instruction")
