"""Workload generators: determinism, validity, and the miss/branch
characteristics each one is supposed to create."""

import pytest

from repro.isa.interpreter import Interpreter
from repro.workloads import (
    array_stream,
    branchy_reduce,
    btree_lookup,
    hash_join,
    matrix_multiply,
    pointer_chase,
    store_stream,
)
from repro.workloads.base import RESULT_ADDR

GENERATORS = [
    lambda: pointer_chase(chains=2, nodes_per_chain=16, hops=24),
    lambda: hash_join(table_words=256, probes=32),
    lambda: hash_join(table_words=256, probes=32, chased_fraction=4),
    lambda: btree_lookup(array_words=128, lookups=8),
    lambda: array_stream(words=64),
    lambda: array_stream(words=64, write_back=True),
    lambda: branchy_reduce(iterations=48, data_words=128),
    lambda: branchy_reduce(iterations=48, data_words=128, biased=True),
    lambda: store_stream(records=16, payload_words=4, table_words=128),
    lambda: matrix_multiply(n=4),
]


@pytest.mark.parametrize("factory", GENERATORS)
def test_programs_validate_and_terminate(factory):
    program = factory()
    program.validate()
    interp = Interpreter(program, max_steps=500_000)
    state = interp.run()
    # Every workload writes its result/cursor to the result slot.
    assert state.memory.read(RESULT_ADDR) != 0


@pytest.mark.parametrize("factory", GENERATORS)
def test_determinism(factory):
    first = Interpreter(factory(), max_steps=500_000)
    second = Interpreter(factory(), max_steps=500_000)
    assert first.run().same_architectural_state(second.run())


def test_seed_changes_data():
    a = pointer_chase(chains=1, nodes_per_chain=32, hops=8, seed=1)
    b = pointer_chase(chains=1, nodes_per_chain=32, hops=8, seed=2)
    assert [w.value for w in a.data] != [w.value for w in b.data]


def test_pointer_chase_chain_structure():
    program = pointer_chase(chains=1, nodes_per_chain=8, hops=4)
    # Follow next pointers: the chain must be a single cycle of 8 nodes.
    nexts = {w.addr: w.value for w in program.data if w.addr % 16 == 0}
    start = next(iter(nexts))
    seen = set()
    node = start
    while node not in seen:
        seen.add(node)
        node = nexts[node]
    assert len(seen) == 8


def test_pointer_chase_validates_params():
    with pytest.raises(ValueError):
        pointer_chase(chains=0)
    with pytest.raises(ValueError):
        pointer_chase(chains=9)
    with pytest.raises(ValueError):
        pointer_chase(nodes_per_chain=1)


def test_hash_join_validates_params():
    with pytest.raises(ValueError):
        hash_join(table_words=1000)  # not a power of two
    with pytest.raises(ValueError):
        hash_join(chased_fraction=9)


def test_branch_bias_changes_predictability():
    from repro.workloads.base import HEAP_BASE

    biased = branchy_reduce(iterations=8, data_words=256, biased=True)
    unbiased = branchy_reduce(iterations=8, data_words=256, biased=False)
    def odd_fraction(program):
        values = [w.value for w in program.data
                  if w.addr >= HEAP_BASE]
        return sum(v & 1 for v in values) / len(values)
    assert odd_fraction(biased) < 0.15
    assert 0.35 < odd_fraction(unbiased) < 0.65


def test_matrix_multiply_is_correct():
    n = 4
    program = matrix_multiply(n=n, seed=11)
    words = {w.addr: w.value for w in program.data}
    from repro.workloads.base import HEAP_BASE

    a = [[words[HEAP_BASE + 8 * (i * n + j)] for j in range(n)]
         for i in range(n)]
    b_base = HEAP_BASE + 8 * n * n
    b = [[words[b_base + 8 * (i * n + j)] for j in range(n)]
         for i in range(n)]
    # Sum of every entry of the product a @ b, in exact Python ints.
    expected = sum(a[i][k] * b[k][j]
                   for i in range(n) for j in range(n) for k in range(n))
    state = Interpreter(program, max_steps=500_000).run()
    assert state.memory.read(RESULT_ADDR) == expected
