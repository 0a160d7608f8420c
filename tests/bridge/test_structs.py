"""Struct exchange: layout, packing, masking, arrays."""

import struct

import pytest
from hypothesis import given, strategies as st

from repro.bridge.structs import Field, StructSpec


class TestField:
    def test_bad_width_rejected(self):
        with pytest.raises(ValueError):
            Field("f", 0)
        with pytest.raises(ValueError):
            Field("f", 65)

    def test_nbytes(self):
        assert Field("f", 1).nbytes == 1
        assert Field("f", 12).nbytes == 2
        assert Field("f", 32).nbytes == 4
        assert Field("f", 8, count=3).nbytes == 3

    def test_bad_count_rejected(self):
        with pytest.raises(ValueError):
            Field("f", 8, count=0)

    @pytest.mark.parametrize("name", ["in", "class", "a-b", "_f", "", "1x"])
    def test_names_that_cannot_be_parameters_rejected(self, name):
        """Field names are parameters of the generated ``pack``."""
        with pytest.raises(ValueError, match=repr(name)):
            Field(name, 8)

    def test_names_the_codec_might_use_itself_round_trip(self):
        """Generated locals are ``_``-prefixed, so no field name clashes."""
        spec = StructSpec("s", [
            Field("data", 8), Field("values", 16, count=2), Field("flat", 4),
            Field("pack", 8), Field("len", 8), Field("int", 8),
            Field("TypeError", 8),
        ])
        fields = {"data": 1, "values": [2, 3], "flat": 4,
                  "pack": 5, "len": 6, "int": 7, "TypeError": 8}
        assert spec.unpack(spec.pack(**fields)) == fields
        fields["int"] = 7.5       # the coercing path, builtins shadowed
        assert spec.unpack(spec.pack(**fields))["int"] == 7
        with pytest.raises(ValueError, match="'values' expects 2 elements"):
            spec.pack(values=[1])


class TestStructSpec:
    def test_size_is_sum_of_fields(self):
        spec = StructSpec("s", [Field("a", 1), Field("b", 32), Field("c", 12)])
        assert spec.size == 1 + 4 + 2

    def test_duplicate_field_rejected(self):
        with pytest.raises(ValueError):
            StructSpec("s", [Field("a", 1), Field("a", 2)])

    def test_pack_unpack_roundtrip(self):
        spec = StructSpec("s", [Field("a", 4), Field("b", 16)])
        data = spec.pack(a=0x9, b=0xBEEF)
        assert spec.unpack(data) == {"a": 9, "b": 0xBEEF}

    def test_unspecified_fields_zero(self):
        spec = StructSpec("s", [Field("a", 8), Field("b", 8)])
        assert spec.unpack(spec.pack(b=7)) == {"a": 0, "b": 7}

    def test_values_masked_to_width(self):
        spec = StructSpec("s", [Field("a", 4)])
        assert spec.unpack(spec.pack(a=0xFF))["a"] == 0xF

    def test_unknown_field_rejected(self):
        spec = StructSpec("s", [Field("a", 8)])
        with pytest.raises(KeyError):
            spec.pack(nope=1)

    def test_array_fields(self):
        spec = StructSpec("s", [Field("v", 16, count=3)])
        data = spec.pack(v=[1, 2, 70000])
        assert spec.unpack(data)["v"] == [1, 2, 70000 & 0xFFFF]

    def test_array_length_checked(self):
        spec = StructSpec("s", [Field("v", 8, count=2)])
        with pytest.raises(ValueError):
            spec.pack(v=[1, 2, 3])

    def test_unpack_length_checked(self):
        spec = StructSpec("s", [Field("a", 8)])
        with pytest.raises(ValueError):
            spec.unpack(b"\0\0")

    def test_positional_in_field_order(self):
        spec = StructSpec("s", [Field("a", 8), Field("v", 8, count=2)])
        assert spec.pack(1, [2, 3]) == spec.pack(a=1, v=[2, 3])

    def test_values_int_accepts_are_coerced(self):
        spec = StructSpec("s", [Field("a", 8), Field("v", 8, count=2)])
        assert spec.pack(a=3.9, v=[True, "7"]) == spec.pack(a=3, v=[1, 7])

    def test_empty_struct(self):
        spec = StructSpec("s", [])
        assert spec.pack() == b"" and spec.unpack(b"") == {} and spec.size == 0

    def test_error_messages_name_the_culprit(self):
        spec = StructSpec('odd "name" %d', [Field("a", 8), Field("v", 8, count=2)])
        with pytest.raises(KeyError) as err:
            spec.pack(nope=1, zzz=2, a=3)
        assert err.value.args[0] == (
            "struct 'odd \"name\" %d' has no fields ['nope', 'zzz']")
        with pytest.raises(ValueError) as err:
            spec.pack(v=[1, 2, 3])
        assert str(err.value) == "field 'v' expects 2 elements, got 3"
        with pytest.raises(ValueError) as err:
            spec.unpack(b"\0" * 5)
        assert str(err.value) == (
            "struct 'odd \"name\" %d' expects 3 bytes, got 5")

    def test_zeros(self):
        spec = StructSpec("s", [Field("a", 8), Field("b", 32)])
        assert spec.unpack(spec.zeros()) == {"a": 0, "b": 0}

    def test_contains_and_iter(self):
        spec = StructSpec("s", [Field("a", 8)])
        assert "a" in spec and "b" not in spec
        assert [f.name for f in spec] == ["a"]

    def test_byte_layout_is_little_endian_per_field(self):
        spec = StructSpec("s", [Field("a", 16), Field("b", 8)])
        assert spec.pack(a=0x1234, b=0x56) == b"\x34\x12\x56"


@given(
    a=st.integers(min_value=0, max_value=(1 << 12) - 1),
    b=st.integers(min_value=0, max_value=(1 << 48) - 1),
    v=st.lists(st.integers(min_value=0, max_value=255), min_size=4, max_size=4),
)
def test_property_roundtrip(a, b, v):
    spec = StructSpec(
        "s", [Field("a", 12), Field("b", 48), Field("v", 8, count=4)]
    )
    out = spec.unpack(spec.pack(a=a, b=b, v=v))
    assert out == {"a": a, "b": b, "v": v}


# -- the generated codec against a reference built in the test ---------------

_CODES = {1: "B", 2: "H", 4: "I", 8: "Q"}


def _reference_pack(fields: list[Field], values: dict) -> bytes:
    """``struct.pack`` + masks, one field at a time."""
    out = b""
    for f in fields:
        code = "<" + _CODES[f.nbytes // f.count]
        value = values.get(f.name, [0] * f.count if f.count > 1 else 0)
        for elem in value if f.count > 1 else [value]:
            out += struct.pack(code, elem & f.mask)
    return out


def _masked(fields: list[Field], values: dict) -> dict:
    return {
        f.name: (
            [x & f.mask for x in values[f.name]] if f.count > 1
            else values[f.name] & f.mask
        ) if f.name in values else ([0] * f.count if f.count > 1 else 0)
        for f in fields
    }


#: values incl. negatives and ints wider than any slot
_ints = st.integers(min_value=-(1 << 70), max_value=1 << 70)


@st.composite
def _layouts(draw):
    shapes = draw(st.lists(
        st.tuples(st.integers(1, 64), st.integers(1, 8)),
        min_size=1, max_size=12,
    ))
    fields = [Field(f"f{i}", w, count=c) for i, (w, c) in enumerate(shapes)]
    values = {}
    for f in fields:
        if draw(st.booleans()):     # the rest stay unspecified
            values[f.name] = (
                draw(st.lists(_ints, min_size=f.count, max_size=f.count))
                if f.count > 1 else draw(_ints)
            )
    return fields, values


@given(_layouts())
def test_property_generated_codec_matches_reference(layout):
    fields, values = layout
    spec = StructSpec("s", fields)
    data = spec.pack(**values)
    assert data == _reference_pack(fields, values)
    assert len(data) == spec.size == sum(f.nbytes for f in fields)
    assert spec.unpack(data) == _masked(fields, values)
    # the four error cases keep their type and message on every layout
    with pytest.raises(KeyError) as err:
        spec.pack(nope=0, **values)
    assert err.value.args[0] == "struct 's' has no fields ['nope']"
    with pytest.raises(ValueError) as err:
        spec.unpack(data + b"\0")
    assert str(err.value) == (
        f"struct 's' expects {spec.size} bytes, got {spec.size + 1}")
    with pytest.raises(ValueError):
        spec.unpack(data[:-1])
    arrays = [f for f in fields if f.count > 1]
    if arrays:
        f = arrays[0]
        with pytest.raises(ValueError) as err:
            spec.pack(**{f.name: [0] * (f.count + 1)})
        assert str(err.value) == (
            f"field {f.name!r} expects {f.count} elements, got {f.count + 1}")
