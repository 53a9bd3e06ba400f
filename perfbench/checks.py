"""Output checks of the simulation workloads, run outside the timed
phase: architectural state against the golden interpreter, cycles and
instructions against the committed reference, and a cycle digest that
lets two commits compare exactly on any seed."""

from __future__ import annotations

import hashlib
import json
import pathlib
from typing import Any, Dict, List, Optional, Sequence, Tuple

# The seed whose cycle counts ``reference.json`` pins.
DEFAULT_SEED = 0
REFERENCE = pathlib.Path(__file__).with_name("reference.json")

Point = Tuple[str, Any]  # (label "machine/program", CoreResult or None)


def golden_failures(points: Sequence[Point],
                    programs: Sequence[Any]) -> List[str]:
    """Labels whose final registers or memory differ from the golden
    interpreter's (each program is interpreted once)."""
    from repro.isa.interpreter import run_program

    by_program: Dict[str, List[Point]] = {}
    for label, result in points:
        if result is not None:  # an error is already counted
            by_program.setdefault(label.split("/", 1)[1], []).append(
                (label, result))
    failures = []
    for program in programs:
        golden = run_program(program)
        for label, result in by_program.get(program.name, ()):
            if (result.state.regs != golden.regs
                    or result.state.memory != golden.memory):
                failures.append(f"{label}: state differs from golden")
    return failures


def fingerprint(points: Sequence[Point]) -> List[Tuple[Any, ...]]:
    """A compact stand-in for every point's cycles, instructions and
    final state, to compare passes without keeping their results."""
    return [
        (label,) if result is None else (
            label, result.cycles, result.instructions,
            hash(tuple(result.state.regs)),
            # Zero words equal absent ones, as in SparseMemory.__eq__.
            hash(frozenset((addr, value) for addr, value
                           in result.state.memory.items() if value)),
        )
        for label, result in points
    ]


def cycle_table(points: Sequence[Point]) -> Dict[str, List[int]]:
    """label -> [cycles, instructions] of every successful point."""
    return {label: [result.cycles, result.instructions]
            for label, result in points if result is not None}


def reference_failures(table: Dict[str, List[int]],
                       reference: Dict[str, List[int]]) -> List[str]:
    """Labels whose cycles or instructions differ from ``reference``,
    or which one side lacks."""
    failures = []
    for label in sorted(set(table) | set(reference)):
        if table.get(label) != reference.get(label):
            failures.append(f"{label}: observed {table.get(label)} "
                            f"reference {reference.get(label)}")
    return failures


def load_reference(path: pathlib.Path,
                   workload: str) -> Optional[Dict[str, List[int]]]:
    return json.loads(path.read_text())["workloads"].get(workload)


def cycle_digest(table: Dict[str, List[int]]) -> str:
    """SHA-256 over every point's label, cycles and instructions."""
    material = json.dumps(sorted(table.items()), separators=(",", ":"))
    return hashlib.sha256(material.encode()).hexdigest()
