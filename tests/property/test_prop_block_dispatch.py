"""Property pins for the generated execution engines, on fuzzer-random,
linted programs: block execution is indistinguishable from
per-instruction stepping (interpreter state + stats), and the SST
speculative loop is indistinguishable with the sanitizer and taint
tracker attached (cycles, architectural state, mode breakdown,
episodes) on every SST-family machine.

Reuses the random-program strategy from
:mod:`tests.property.test_prop_random_programs`."""

import os

from hypothesis import given, settings

from repro.analysis.proglint import lint_program
from repro.core import SSTCore, sst_dispatch
from repro.isa.interpreter import Interpreter
from repro.memory.hierarchy import MemoryHierarchy
from repro.workloads.fuzz import CORE_FACTORIES
from tests.conftest import small_hierarchy_config
from tests.property.test_prop_random_programs import (
    build_program,
    program_shape,
)

CHECKERS = ("REPRO_SANITIZE", "REPRO_TAINT")


class _checkers:
    """Attach (or detach) both checkers for one with-block (hypothesis
    runs the test body many times per pytest call, so monkeypatch
    can't scope this)."""

    def __init__(self, on):
        self.on = on

    def __enter__(self):
        self.saved = {name: os.environ.get(name) for name in CHECKERS}
        for name in CHECKERS:
            if self.on:
                os.environ[name] = "1"
            else:
                os.environ.pop(name, None)

    def __exit__(self, *exc):
        for name, value in self.saved.items():
            if value is None:
                os.environ.pop(name, None)
            else:
                os.environ[name] = value


def _stepped(program):
    interp = Interpreter(program)
    while not interp.halted:
        interp.step()
    return interp


@settings(max_examples=40, deadline=None)
@given(program_shape)
def test_block_interpreter_matches_stepping(shape):
    program = build_program(shape)
    # Lint first (the fuzzer only emits structurally valid code; the
    # diagnostics themselves are advisory) and pin the fingerprint
    # cache: a second lint of an equal program must agree.
    diagnostics = lint_program(program)
    assert lint_program(build_program(shape)) == diagnostics
    blocked = Interpreter(program)
    blocked.run()
    stepped = _stepped(program)
    assert blocked.state.regs == stepped.state.regs
    assert blocked.state.memory == stepped.state.memory
    assert blocked.state.pc == stepped.state.pc
    assert blocked.stats == stepped.stats


def _sst_run(factory, program, checked):
    with _checkers(checked):
        hierarchy = MemoryHierarchy(small_hierarchy_config(latency=60))
        core = factory(program, hierarchy)
        if not isinstance(core, SSTCore):
            return None
        assert (core.sanitizer is not None) is checked
        assert core._spec_loop_fn in sst_dispatch._LOOP_CACHE.values()
        return core.run(max_instructions=2_000_000)


@settings(max_examples=15, deadline=None)
@given(program_shape)
def test_sst_identical_with_checkers_on(shape):
    program = build_program(shape)
    for _name, factory in CORE_FACTORIES:
        plain = _sst_run(factory, program, False)
        if plain is None:
            continue
        checked = _sst_run(factory, program, True)
        assert plain.cycles == checked.cycles
        assert plain.instructions == checked.instructions
        assert plain.state.regs == checked.state.regs
        assert plain.state.memory == checked.state.memory
        assert plain.extra["sst"].mode_cycles == \
            checked.extra["sst"].mode_cycles
        assert plain.extra["sst"].episodes == checked.extra["sst"].episodes
