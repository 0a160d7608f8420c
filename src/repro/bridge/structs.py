"""Input/output struct exchange between gem5 and the shared library.

The paper's wrapper contract passes "a void pointer to a predefined data
structure" into ``tick`` and returns results "on another data structure".
We reproduce that contract faithfully: both sides agree on a
:class:`StructSpec` (an ordered set of fixed-width fields), and the data
crosses the boundary as *packed bytes* (a behavioural model, with no pins
to fill, takes the spec's ``values`` tuple) — the gem5 side never
reaches into the model's state, and vice versa.

Like a C struct, every field occupies a power-of-two slot (1/2/4/8
bytes per element) so the layout is one :class:`struct.Struct` format.
This layer runs once per simulated RTL clock cycle, so the codec is
*generated* once per layout, the way :mod:`repro.rtl.codegen`
specialises a netlist: ``pack``/``unpack`` are straight-line functions
with the field names as parameters and the masks, slot positions and
array slices as constants around a single ``struct.Struct`` call.

Example::

    PMU_IN = StructSpec("pmu_in", [
        Field("events", 20),              # event_enable[0-19] bits
        Field("aw_valid", 1), Field("aw_addr", 32),
        Field("w_valid", 1),  Field("w_data", 32),
        Field("ar_valid", 1), Field("ar_addr", 32),
    ])
    buf = PMU_IN.pack(events=0b101, ar_valid=1, ar_addr=0x100)
    fields = PMU_IN.unpack(buf)
"""

from __future__ import annotations

import keyword
import struct
from dataclasses import dataclass
from typing import Callable, Iterator


def _slot_for(width: int) -> tuple[int, str]:
    """(bytes, struct code) of the smallest power-of-two slot."""
    if width <= 8:
        return 1, "B"
    if width <= 16:
        return 2, "H"
    if width <= 32:
        return 4, "I"
    return 8, "Q"


@dataclass(frozen=True)
class Field:
    """One fixed-width unsigned field; ``count > 1`` makes it an array.

    The name becomes a parameter of the generated ``pack``, so it must
    be a plain identifier that is not a Python keyword; a leading
    underscore is reserved for the generated code's own locals.
    """

    name: str
    width: int          # bits
    count: int = 1

    def __post_init__(self) -> None:
        if (
            not self.name.isidentifier()
            or keyword.iskeyword(self.name)
            or self.name.startswith("_")
        ):
            raise ValueError(
                f"field {self.name!r}: name must be an identifier that is "
                "not a Python keyword and does not start with '_'"
            )
        if self.width <= 0 or self.width > 64:
            raise ValueError(f"field {self.name!r}: width must be in 1..64")
        if self.count <= 0:
            raise ValueError(f"field {self.name!r}: count must be positive")

    @property
    def nbytes(self) -> int:
        return _slot_for(self.width)[0] * self.count

    @property
    def mask(self) -> int:
        return (1 << self.width) - 1


class StructSpec:
    """An ordered, fixed-layout struct definition shared by both sides.

    ``pack(**values) -> bytes`` takes ints (lists for array fields) by
    keyword, or positionally in field order.  Unspecified fields default
    to zero and values are masked to their declared width, matching
    hardware truncation; an unknown field raises :class:`KeyError`, a
    wrong array length :class:`ValueError`.

    ``unpack(data) -> {field: int | list[int]}`` decodes exactly
    :attr:`size` bytes and raises :class:`ValueError` otherwise;
    ``values(data)`` is the same decode without the dict, a tuple in
    field order (array fields as tuples): what positional ``pack`` takes.

    All three are generated for this layout at construction
    (:attr:`codec_source` keeps the text for inspection).
    """

    pack: Callable[..., bytes]
    unpack: Callable[[bytes], dict]
    values: Callable[[bytes], tuple]

    def __init__(self, name: str, fields: list[Field]) -> None:
        self.name = name
        self.fields = list(fields)
        seen: set[str] = set()
        fmt = "<"
        for f in self.fields:
            if f.name in seen:
                raise ValueError(f"duplicate field {f.name!r} in struct {name!r}")
            seen.add(f.name)
            fmt += _slot_for(f.width)[1] * f.count
        self._names = seen
        #: the flat little-endian layout: one slot per field element
        self.struct = struct.Struct(fmt)
        self.size = self.struct.size
        self._zeros = b"\0" * self.size
        self.codec_source = self._codec_source()
        namespace = {
            "_name": name,
            "_pack": self.struct.pack,
            "_unpack": self.struct.unpack,
            "_size_error": self.size_error,
            # pack's parameters are the field names and may shadow these
            "_len": len, "_int": int, "_sorted": sorted,
            "_KeyError": KeyError, "_TypeError": TypeError,
            "_ValueError": ValueError,
        }
        exec(  # noqa: S102 - executing our own generated code
            compile(self.codec_source, f"<struct:{name}>", "exec"), namespace
        )
        self.pack = namespace["pack"]
        self.unpack = namespace["unpack"]
        self.values = namespace["values"]

    def _codec_source(self) -> str:
        """Source of ``pack``/``unpack``/``values`` for this layout."""
        params: list[str] = []    # pack's signature
        checks: list[str] = []    # array length checks, field order
        encode: list[tuple[str, int]] = []   # (value, mask) per slot
        slots: list[str] = []     # unpack's slot locals
        decode: list[str] = []    # one dict item per field
        flat: list[str] = []      # values' tuple items
        for f in self.fields:
            first = len(slots)
            names = [f"_{first + i}" for i in range(f.count)]
            slots += names
            # a full-width slot is its own mask on the way out
            full = f.width == 8 * _slot_for(f.width)[0]
            masked = names if full else [f"{n} & {f.mask}" for n in names]
            if f.count == 1:
                params.append(f"{f.name}=0")
                encode.append((f.name, f.mask))
                decode.append(f"{f.name!r}: {masked[0]}")
                flat.append(masked[0])
                continue
            params.append(f"{f.name}={(0,) * f.count!r}")
            checks += [
                f"    if _len({f.name}) != {f.count}:",
                f"        raise _ValueError(f\"field {f.name!r} expects {f.count} "
                f"elements, got {{_len({f.name})}}\")",
                f"    [{', '.join(names)}] = {f.name}",
            ]
            encode += [(n, f.mask) for n in names]
            decode.append(f"{f.name!r}: [{', '.join(masked)}]")
            flat.append(f"({', '.join(masked)},)")
        slots_of_data = [   # the top of both decoders
            f"    if _len(data) != {self.size}:",
            "        raise _size_error(_len(data))",
            f"    [{', '.join(slots)}] = _unpack(data)",
        ]
        return "\n".join([
            f"def pack({', '.join(params + ['**_unknown'])}):",
            "    if _unknown:",
            "        raise _KeyError("
            "f\"struct {_name!r} has no fields {_sorted(_unknown)}\")",
            *checks,
            # ints and bools mask directly; anything else
            # int() accepts (a float, a numeric string) is coerced first
            "    try:",
            f"        return _pack({', '.join(f'{v} & {m}' for v, m in encode)})",
            "    except _TypeError:",
            "        return _pack("
            f"{', '.join(f'_int({v}) & {m}' for v, m in encode)})",
            "",
            "def unpack(data):",
            *slots_of_data,
            f"    return {{{', '.join(decode)}}}",
            "",
            "def values(data):",
            *slots_of_data,
            f"    return ({''.join(item + ', ' for item in flat)})",
            "",
        ])

    def size_error(self, nbytes: int) -> ValueError:
        """What decoding *nbytes* bytes (not :attr:`size`) raises."""
        return ValueError(
            f"struct {self.name!r} expects {self.size} bytes, got {nbytes}"
        )

    def __contains__(self, name: str) -> bool:
        return name in self._names

    def __iter__(self) -> Iterator[Field]:
        return iter(self.fields)

    def zeros(self) -> bytes:
        return self._zeros

    def __repr__(self) -> str:  # pragma: no cover
        return f"<StructSpec {self.name} {self.size}B, {len(self.fields)} fields>"
