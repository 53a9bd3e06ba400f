from types import SimpleNamespace

import pytest

from repro.errors import ExecutionError
from repro.isa.program import DataWord
from repro.memory.sparse_memory import SparseMemory


def test_unwritten_reads_zero():
    assert SparseMemory().read(0x1000) == 0


def test_write_read_roundtrip():
    memory = SparseMemory()
    memory.write(0x10, 42)
    assert memory.read(0x10) == 42


def test_values_masked_to_64_bits():
    memory = SparseMemory()
    memory.write(0, -1)
    assert memory.read(0) == 2**64 - 1
    memory.write(8, 1 << 64)
    assert memory.read(8) == 0


def test_misaligned_access_raises():
    memory = SparseMemory()
    with pytest.raises(ExecutionError, match="misaligned"):
        memory.read(3)
    with pytest.raises(ExecutionError, match="misaligned"):
        memory.write(12, 1)


def test_out_of_range_address_raises():
    with pytest.raises(ExecutionError, match="out of range"):
        SparseMemory().read(1 << 64)


def test_load_image():
    memory = SparseMemory()
    memory.load_image([DataWord(0x100, 7), DataWord(0x108, 8)])
    assert memory.read(0x100) == 7
    assert memory.read(0x108) == 8


def test_load_image_masks_values_like_write():
    memory = SparseMemory()
    memory.load_image([DataWord(0, -1), DataWord(8, 1 << 64)])
    assert memory.snapshot() == {0: 2**64 - 1, 8: 0}


@pytest.mark.parametrize("addr, message", [
    (0x104, "misaligned 8-byte access at 0x104"),
    (-8, "address out of range: -0x8"),
    (1 << 64, "address out of range: 0x10000000000000000"),
])
def test_load_image_rejects_bad_addresses_like_write(addr, message):
    # DataWord refuses misaligned addresses itself, so feed load_image
    # plain records carrying the same two attributes.
    bad = SimpleNamespace(addr=addr, value=1)
    with pytest.raises(ExecutionError) as via_write:
        SparseMemory().write(addr, 1)
    with pytest.raises(ExecutionError) as via_image:
        SparseMemory().load_image([DataWord(0x100, 7), bad])
    assert str(via_image.value) == str(via_write.value) == message


def test_equality_ignores_explicit_zeros():
    a, b = SparseMemory(), SparseMemory()
    a.write(0x20, 0)
    assert a == b
    a.write(0x20, 5)
    assert a != b


def test_snapshot_is_a_copy():
    memory = SparseMemory()
    memory.write(0, 1)
    snap = memory.snapshot()
    memory.write(0, 2)
    assert snap[0] == 1


def test_unhashable():
    with pytest.raises(TypeError):
        hash(SparseMemory())
