"""Functional backing store."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.resilience.serialize import SerializationContext
from repro.soc.mem.physmem import FRAME_SIZE, PhysicalMemory


class TestBasics:
    def test_reads_are_zero_filled(self):
        mem = PhysicalMemory()
        assert mem.read(0x1234, 16) == b"\0" * 16

    def test_write_read_roundtrip(self):
        mem = PhysicalMemory()
        mem.write(0x1000, b"hello world")
        assert mem.read(0x1000, 11) == b"hello world"

    def test_cross_frame_access(self):
        mem = PhysicalMemory()
        addr = FRAME_SIZE - 4
        mem.write(addr, b"ABCDEFGH")
        assert mem.read(addr, 8) == b"ABCDEFGH"
        assert mem.read(FRAME_SIZE, 4) == b"EFGH"

    def test_word_helpers(self):
        mem = PhysicalMemory()
        mem.write_word(0x100, 0xDEADBEEF, size=4)
        assert mem.read_word(0x100, size=4) == 0xDEADBEEF

    def test_word_truncates_to_size(self):
        mem = PhysicalMemory()
        mem.write_word(0x0, 0x1_0000_0001, size=4)
        assert mem.read_word(0x0, size=4) == 1

    def test_out_of_range_rejected(self):
        mem = PhysicalMemory(size=4096)
        with pytest.raises(ValueError):
            mem.read(4090, 10)
        with pytest.raises(ValueError):
            mem.write(4096, b"x")

    def test_negative_addr_rejected(self):
        mem = PhysicalMemory()
        with pytest.raises(ValueError):
            mem.read(-1, 1)

    def test_zero_size_memory_rejected(self):
        with pytest.raises(ValueError):
            PhysicalMemory(size=0)

    def test_footprint_is_sparse(self):
        """Only written frames are backed, and only they are saved."""
        mem = PhysicalMemory()
        mem.write(10 * FRAME_SIZE, b"x")
        mem.write(99 * FRAME_SIZE, b"y")
        state = mem.serialize(SerializationContext())
        assert sorted(state["frames"]) == ["10", "99"]

    def test_overwrite(self):
        mem = PhysicalMemory()
        mem.write(0, b"aaaa")
        mem.write(1, b"bb")
        assert mem.read(0, 4) == b"abba"


@settings(max_examples=50, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=3 * FRAME_SIZE),
            st.binary(min_size=1, max_size=200),
        ),
        max_size=20,
    )
)
def test_property_matches_reference_bytearray(writes):
    """PhysicalMemory behaves exactly like one big zero-filled bytearray."""
    mem = PhysicalMemory()
    ref = bytearray(4 * FRAME_SIZE)
    for addr, data in writes:
        mem.write(addr, data)
        ref[addr : addr + len(data)] = data
    assert mem.read(0, len(ref)) == bytes(ref)
