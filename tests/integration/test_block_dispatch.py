"""The checkers must be invisible: every machine produces bit-identical
results (cycles, instructions, architectural state) with the sanitizer
and taint tracker attached (``REPRO_SANITIZE=1`` + ``REPRO_TAINT=1``)
and without, on every workload generator.

On SST-family machines both runs go through the generated speculative
loop (:mod:`repro.core.sst_dispatch`): the plain run through the
unchecked variant production uses, the checked run through the variant
carrying the hook sites.  So this is the differential pin that lets the
checkers vouch for the loop production actually runs; it also compares
the mode breakdown and the episode count.  The interpreter half pins
block execution to per-instruction :meth:`Interpreter.step`."""

import pytest

from repro.config import CoreKind
from repro.core import sst_dispatch
from repro.isa.interpreter import Interpreter
from repro.sim.machine import build_core, build_hierarchy
from repro.sim.runner import verify_against_golden
from repro.workloads import full_suite
from tests.integration.test_golden_equivalence import machines

MAX_INSTRUCTIONS = 5_000_000
CHECKERS = ("REPRO_SANITIZE", "REPRO_TAINT")


def _run(machine, program, monkeypatch, checked):
    for name in CHECKERS:
        if checked:
            monkeypatch.setenv(name, "1")
        else:
            monkeypatch.delenv(name, raising=False)
    core = build_core(machine, program, build_hierarchy(machine.hierarchy))
    result = core.run(max_instructions=MAX_INSTRUCTIONS)
    verify_against_golden(result, program)
    return core, result


def _loop_variant(core):
    """The ``checked`` bit of the generated loop ``core`` runs."""
    [key] = [key for key, loop in sst_dispatch._LOOP_CACHE.items()
             if loop is core._spec_loop_fn]
    return key[-1]


@pytest.mark.parametrize("program", full_suite("tiny"),
                         ids=lambda program: program.name)
@pytest.mark.parametrize("machine", machines(),
                         ids=lambda machine: machine.name)
def test_block_dispatch_bit_identical(machine, program, monkeypatch):
    plain_core, plain = _run(machine, program, monkeypatch, False)
    checked_core, checked = _run(machine, program, monkeypatch, True)
    assert plain.cycles == checked.cycles
    assert plain.instructions == checked.instructions
    assert plain.state.regs == checked.state.regs
    assert plain.state.memory == checked.state.memory
    if machine.core_kind is CoreKind.SST:
        assert _loop_variant(plain_core) is False
        assert _loop_variant(checked_core) is True
        assert checked_core.sanitizer is not None
        assert checked_core.taint is not None
        plain_sst = plain.extra["sst"]
        checked_sst = checked.extra["sst"]
        assert plain_sst.mode_cycles == checked_sst.mode_cycles
        assert plain_sst.episodes == checked_sst.episodes


def _stepped(program):
    interp = Interpreter(program)
    while not interp.halted:
        interp.step()
    return interp


@pytest.mark.parametrize("program", full_suite("tiny"),
                         ids=lambda program: program.name)
def test_interpreter_block_dispatch_bit_identical(program):
    blocked = Interpreter(program)
    blocked.run()
    stepped = _stepped(program)
    assert blocked.state.regs == stepped.state.regs
    assert blocked.state.memory == stepped.state.memory
    assert blocked.stats == stepped.stats
