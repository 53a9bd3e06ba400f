"""Unit tests for the basic-block dispatch engine (repro.isa.blockcache):
row decode fidelity, CFG block partitioning and fingerprint-keyed
process caching."""

import pytest

from repro.isa import blockcache
from repro.isa.blockcache import (
    K_ALU,
    K_BRANCH,
    K_HALT,
    K_LOAD,
    K_STORE,
    KIND_OF_CLASS,
    R_FN,
    R_IMM,
    R_INST,
    R_KIND,
    R_RD,
    R_RS1,
    R_RS2,
    R_SOURCES,
    R_TARGET,
    R_USES_IMM,
    R_WRITES,
)
from repro.isa.builder import ProgramBuilder
from repro.isa.opcodes import OpClass
from repro.workloads import full_suite


@pytest.fixture(autouse=True)
def _fresh_cache():
    blockcache.clear_cache()
    yield
    blockcache.clear_cache()


def sample_program(name="blockcache-sample"):
    builder = ProgramBuilder(name)
    builder.data_words(0x1000, [7, 11, 13])
    builder.movi(1, 0x1000)
    builder.movi(2, 3)
    builder.label("top")
    builder.ld(3, 1, 0)
    builder.add(4, 4, 3)
    builder.st(4, 1, 8)
    builder.addi(1, 1, 8)
    builder.addi(2, 2, -1)
    builder.bne(2, 0, "top")
    builder.halt()
    return builder.build()


def test_rows_mirror_instruction_metadata():
    for program in [sample_program()] + full_suite("tiny"):
        rows = blockcache.decode_rows(program)
        assert len(rows) == len(program.instructions)
        for row, inst in zip(rows, program.instructions):
            assert row[R_KIND] == KIND_OF_CLASS[inst.op_class]
            assert row[R_RD] == inst.rd
            assert row[R_RS1] == inst.rs1
            assert row[R_RS2] == inst.rs2
            assert row[R_IMM] == inst.imm
            assert row[R_TARGET] == inst.target
            assert row[R_SOURCES] == inst.sources
            assert row[R_WRITES] == inst.writes_reg
            assert row[R_USES_IMM] == inst.alu_uses_imm
            assert row[R_INST] is inst
            if row[R_KIND] <= blockcache.K_DIV:
                assert row[R_FN] is inst.alu_fn
            elif row[R_KIND] == K_BRANCH:
                assert row[R_FN] is inst.branch_fn
            else:
                assert row[R_FN] is None


def test_kind_codes_cover_every_op_class():
    assert set(KIND_OF_CLASS) == set(OpClass)
    assert sorted(KIND_OF_CLASS.values()) == list(range(K_HALT + 1))
    # The fast-path predicates the cores rely on.
    assert K_ALU < K_LOAD < K_STORE


def test_blocks_partition_the_program():
    program = sample_program()
    block_program = blockcache.get_block_program(program)
    blocks = sorted(block_program.blocks)
    assert blocks[0][0] == 0
    assert blocks[-1][1] == len(program.instructions)
    for (_, end), (next_start, _) in zip(blocks, blocks[1:]):
        assert end == next_start
    # The loop back-edge target must start a block.
    targets = {inst.target for inst in program.instructions
               if inst.op_class is OpClass.BRANCH}
    assert targets <= {start for start, _ in blocks}


def test_cache_shares_decode_across_equal_programs():
    first = blockcache.get_block_program(sample_program())
    second = blockcache.get_block_program(sample_program())
    assert first is second
    # rows_for serves the cached decode, equal to a fresh one.
    rows = blockcache.rows_for(sample_program())
    assert rows is first.rows
    assert rows == blockcache.decode_rows(sample_program())
    # A different program (name participates in the fingerprint) must
    # not collide.
    other = blockcache.get_block_program(sample_program(name="other"))
    assert other is not first


def test_block_fns_compiled_lazily_and_once():
    block_program = blockcache.get_block_program(sample_program())
    assert block_program._block_fns is None
    fns = block_program.block_fns
    assert fns is block_program.block_fns
    assert set(fns) == {start for start, _ in block_program.blocks}
    for start, (fn, length) in fns.items():
        assert callable(fn)
        assert length == dict(block_program.blocks)[start] - start
