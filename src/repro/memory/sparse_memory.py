"""Sparse 64-bit word-addressable backing store.

The architectural memory image of a simulated machine.  Addresses are
byte addresses but accesses are aligned 64-bit words (the ISA's only
access size); unwritten words read as zero.  Copy-on-demand snapshots
support speculative cores that need cheap rollback of *committed* state
(in practice the SST core never mutates committed memory speculatively,
but tests use snapshots for differential checks).
"""

from __future__ import annotations

from typing import Dict, Iterator, Tuple

from repro.errors import ExecutionError

WORD_BYTES = 8
_MASK64 = 2**64 - 1


class SparseMemory:
    """Dictionary-backed word store with alignment checking."""

    def __init__(self) -> None:
        self._words: Dict[int, int] = {}

    @staticmethod
    def _check(addr: int) -> int:
        if addr % WORD_BYTES != 0:
            raise ExecutionError(f"misaligned 8-byte access at {addr:#x}")
        if not 0 <= addr <= _MASK64:
            raise ExecutionError(f"address out of range: {addr:#x}")
        return addr

    def read(self, addr: int) -> int:
        """Read the 64-bit word at ``addr`` (zero if never written)."""
        return self._words.get(self._check(addr), 0)

    def write(self, addr: int, value: int) -> None:
        """Write the 64-bit word at ``addr``."""
        self._words[self._check(addr)] = value & _MASK64

    def load_image(self, data) -> None:
        """Initialise from an iterable of :class:`repro.isa.program.DataWord`.

        Equivalent to :meth:`write` per word, with the alignment and
        range checks inlined: images run to tens of thousands of words
        and every fresh architectural state loads one.
        """
        words = self._words
        for word in data:
            value = word.value & _MASK64
            addr = word.addr
            if addr % WORD_BYTES != 0:
                raise ExecutionError(f"misaligned 8-byte access at {addr:#x}")
            if not 0 <= addr <= _MASK64:
                raise ExecutionError(f"address out of range: {addr:#x}")
            words[addr] = value

    def snapshot(self) -> Dict[int, int]:
        """A copy of all non-zero words, for differential comparison."""
        return dict(self._words)

    def items(self) -> Iterator[Tuple[int, int]]:
        return iter(self._words.items())

    def __len__(self) -> int:
        return len(self._words)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SparseMemory):
            return NotImplemented
        # Zero-valued entries are equivalent to absent entries.
        mine = {a: v for a, v in self._words.items() if v != 0}
        theirs = {a: v for a, v in other._words.items() if v != 0}
        return mine == theirs

    def __hash__(self) -> None:  # type: ignore[override]
        raise TypeError("SparseMemory is mutable and unhashable")
