"""The canonical semantic-ID scheme: stability, ordering, and
bit-compatibility with the historical key formats.

Every identity-bearing digest in the repo routes through
:mod:`repro.regress.semid`; these tests pin the scheme itself (a
change here silently re-keys the result cache and every committed
baseline, so drift must be loud).
"""

from __future__ import annotations

import dataclasses
import enum
import hashlib
import json

import pytest
from hypothesis import given, settings, strategies as st

from repro.config import inorder_machine, sst_machine
from repro.regress.semid import (
    SemanticIdError,
    canonical_json,
    canonicalize,
    deterministic_fraction,
    digest_material,
    dump_stable,
    line_digest,
    semantic_id,
    short_id,
    state_id,
)
from repro.sim.cache import SIM_SCHEMA_VERSION, result_key
from repro.workloads import full_suite


# -- canonicalization rules -------------------------------------------------


def test_primitives_are_type_prefixed():
    assert canonicalize(None) == "none"
    assert canonicalize(True) == "bool:True"
    assert canonicalize(4) == "int:4"
    assert canonicalize(4.0) == "float:4.0"
    assert canonicalize("4") == "str:4"


def test_cross_type_collisions_impossible():
    values = [4, 4.0, "4", True, None]
    rendered = {canonical_json(value) for value in values}
    assert len(rendered) == len(values)


def test_bool_not_swallowed_by_int():
    # bool subclasses int; 1 and True must not share an id.
    assert semantic_id(1) != semantic_id(True)


def test_dict_key_order_never_perturbs_digest():
    assert semantic_id({"a": 1, "b": 2}) == semantic_id({"b": 2, "a": 1})


def test_nested_ordering_stability():
    left = {"outer": {"x": [1, {"p": 1, "q": 2}], "y": 3}}
    right = {"outer": {"y": 3, "x": [1, {"q": 2, "p": 1}]}}
    assert semantic_id(left) == semantic_id(right)


def test_list_order_is_significant():
    assert semantic_id([1, 2]) != semantic_id([2, 1])


def test_enum_carries_class_and_value():
    class Color(enum.Enum):
        RED = "red"

    class Paint(enum.Enum):
        RED = "red"

    assert canonicalize(Color.RED) == "enum:Color:red"
    assert semantic_id(Color.RED) != semantic_id(Paint.RED)


def test_dataclass_canonicalizes_init_fields_with_type_tag():
    @dataclasses.dataclass
    class Point:
        x: int
        y: int
        derived: int = dataclasses.field(default=0, init=False)

    rendered = canonicalize(Point(1, 2))
    assert rendered["__type__"] == "Point"
    assert "derived" not in rendered  # init=False fields are derived
    assert semantic_id(Point(1, 2)) == semantic_id(Point(1, 2))
    assert semantic_id(Point(1, 2)) != semantic_id(Point(2, 1))


def test_machine_configs_have_distinct_stable_ids():
    assert semantic_id(sst_machine()) == semantic_id(sst_machine())
    assert semantic_id(sst_machine()) != semantic_id(inorder_machine())


def test_uncanonicalizable_raises():
    with pytest.raises(SemanticIdError):
        canonicalize(object())
    with pytest.raises(SemanticIdError):
        semantic_id({"ok": object()})


# -- bit-compatibility with the historical formats --------------------------


def test_digest_material_matches_raw_sha256():
    material = {"schema": 2, "config": {"a": "str:x"}, "n": 5}
    expected = hashlib.sha256(
        json.dumps(material, sort_keys=True).encode()
    ).hexdigest()
    assert digest_material(material) == expected


def test_result_key_is_bit_identical_to_legacy_format():
    """The unified scheme changed zero cache keys: result_key still
    hashes the exact legacy material byte-for-byte."""
    program = full_suite("tiny")[0]
    config = sst_machine()
    legacy = hashlib.sha256(json.dumps({
        "schema": SIM_SCHEMA_VERSION,
        "config": canonicalize(config),
        "program": program.fingerprint(),
        "max_instructions": 1000,
    }, sort_keys=True).encode()).hexdigest()
    assert result_key(config, program, 1000) == legacy


def test_program_fingerprint_is_bit_identical_to_legacy_format():
    program = full_suite("tiny")[0]
    hasher = hashlib.sha256()
    hasher.update(f"program:{program.name}\n".encode())
    for inst in program.instructions:
        hasher.update(
            f"i:{inst.op.value}:{inst.rd}:{inst.rs1}:{inst.rs2}:"
            f"{inst.imm}:{inst.target}\n".encode()
        )
    for word in program.data:
        hasher.update(f"d:{word.addr}:{word.value}\n".encode())
    for start, end in program.secret_ranges:
        hasher.update(f"s:{start}:{end}\n".encode())
    assert program.fingerprint() == hasher.hexdigest()


def test_line_digest_terminates_each_record():
    # ["ab"] and ["a", "b"] must not collide.
    assert line_digest(["ab"]) != line_digest(["a", "b"])
    assert line_digest([]) == hashlib.sha256(b"").hexdigest()


def test_deterministic_fraction_range_and_stability():
    values = [deterministic_fraction(f"crash:task-{index}")
              for index in range(50)]
    assert all(0.0 <= value < 1.0 for value in values)
    assert values == [deterministic_fraction(f"crash:task-{index}")
                      for index in range(50)]
    assert len(set(values)) > 40  # well-spread, not degenerate


# -- helpers ----------------------------------------------------------------


def test_short_id_is_a_prefix():
    full = semantic_id("x")
    assert full.startswith(short_id(full))
    assert len(short_id(full)) == 12


def test_dump_stable_sorts_keys_and_ends_with_newline():
    text = dump_stable({"b": 1, "a": 2})
    assert text.endswith("\n")
    assert text.index('"a"') < text.index('"b"')
    assert dump_stable({"a": 2, "b": 1}) == text


# -- direct state render (rule 4) -------------------------------------------


def generic_state_id(regs, words):
    """The definition :func:`state_id` must reproduce bit for bit."""
    return semantic_id({"regs": list(regs), "memory": sorted(words)})


def test_state_id_pinned_digest():
    # Format drift must be loud: this digest is what every committed
    # baseline's ``state_hash`` was minted with.
    regs = [0, 5, 2**64 - 1]
    words = {0x108: 8, 0x100: 7}
    text = ('{"\\"str:memory\\"": [["int:256", "int:7"], '
            '["int:264", "int:8"]], "\\"str:regs\\"": '
            '["int:0", "int:5", "int:18446744073709551615"]}')
    digest = "f27f7acacf463d75c86e2d5406cecd270c99e8df9f8b75768b08b48de8488988"
    assert canonical_json({"regs": regs,
                           "memory": sorted(words.items())}) == text
    assert hashlib.sha256(text.encode()).hexdigest() == digest
    assert state_id(regs, words.items()) == digest


def test_state_id_empty_state():
    assert state_id([], []) == generic_state_id([], [])
    assert state_id([0] * 4, {}.items()) == generic_state_id([0] * 4, [])


WORD_INTS = st.one_of(
    st.sampled_from([0, 1, 2**64 - 1, 2**64, -1, -(2**63)]),
    st.integers(min_value=-(2**70), max_value=2**70),
)


@settings(max_examples=200)
@given(regs=st.lists(WORD_INTS, max_size=40),
       memory=st.dictionaries(WORD_INTS, WORD_INTS, max_size=40))
def test_state_id_matches_generic_form(regs, memory):
    assert (state_id(regs, memory.items())
            == generic_state_id(regs, memory.items()))


@pytest.mark.parametrize("regs, words", [
    ([0, True, 2], [(8, 1)]),          # bool register: "bool:True"
    ([0, 1], [(8, False)]),            # bool value
    ([0, 1.0], [(8, 1)]),              # float register: "float:1.0"
    ([0, 1], [(8.0, 1)]),              # float address
    ([0, 1], [[8, 1], [0, 2]]),        # list pairs canonicalize alike
    ([0, 1], [(8, 1, 2)]),             # not a pair
])
def test_state_id_falls_back_to_generic_form(regs, words):
    assert state_id(regs, words) == generic_state_id(regs, words)
    assert state_id(regs, words) != state_id([0, 1], [(8, 1)])


def test_state_id_fallback_raises_like_generic_form():
    for regs, words in (([0, object()], [(8, 1)]),
                        ([0, 1], [(8, object())])):
        with pytest.raises(SemanticIdError) as generic:
            generic_state_id(regs, words)
        with pytest.raises(SemanticIdError) as direct:
            state_id(regs, words)
        assert str(direct.value) == str(generic.value)


def test_state_id_numpy_scalars_take_generic_path():
    np = pytest.importorskip("numpy")
    regs = [0, np.int64(5)]
    words = [(np.int64(8), 1), (16, np.uint64(2))]
    with pytest.raises(SemanticIdError) as generic:
        generic_state_id(regs, words)
    with pytest.raises(SemanticIdError) as direct:
        state_id(regs, words)
    assert str(direct.value) == str(generic.value)
