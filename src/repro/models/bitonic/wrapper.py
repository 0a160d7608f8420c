"""Shared-library wrapper for the VHDL bitonic sorter (GHDL flow).

The paper used a bitonic sorting accelerator written in VHDL to bring
up GHDL support; this wrapper does the same for our VHDL frontend.  The
pipeline accepts one 8-element vector per cycle and produces it sorted
six cycles later.
"""

from __future__ import annotations

import importlib.resources
from typing import Optional, TextIO

from ...bridge.shared_library import RTLSharedLibrary
from ...bridge.structs import Field, StructSpec

LANES = 8
PIPELINE_DEPTH = 6

BITONIC_INPUT = StructSpec(
    "bitonic_in",
    [
        Field("valid_in", 1),
        Field("data", 32, count=LANES),
    ],
)

BITONIC_OUTPUT = StructSpec(
    "bitonic_out",
    [
        Field("valid_out", 1),
        Field("data", 32, count=LANES),
    ],
)


def load_bitonic_source() -> str:
    return (
        importlib.resources.files("repro.models.bitonic")
        .joinpath("bitonic.vhdl")
        .read_text(encoding="utf-8")
    )


class BitonicSharedLibrary(RTLSharedLibrary):
    """tick/reset wrapper around the compiled bitonic8 design."""

    input_spec = BITONIC_INPUT
    output_spec = BITONIC_OUTPUT
    # both structs call their lanes ``data``: qualify by struct name
    pins = {
        "bitonic_in.data": tuple(f"d{i}" for i in range(LANES)),
        "bitonic_out.data": tuple(f"q{i}" for i in range(LANES)),
    }

    def __init__(
        self,
        width: int = 32,
        trace_stream: Optional[TextIO] = None,
        trace_enabled: bool = False,
        backend: str = "codegen",
    ) -> None:
        from ...hdl.vhdl import compile_vhdl

        if width > 32:
            raise ValueError("struct lanes are 32 bits wide")
        rtl = compile_vhdl(
            load_bitonic_source(), top="bitonic8", params={"W": width}
        )
        super().__init__(rtl, trace_stream=trace_stream,
                         trace_enabled=trace_enabled, backend=backend)
        self.width = width

    # -- convenience -------------------------------------------------------

    def sort8(self, values: list[int]) -> list[int]:
        """Push one vector through the pipeline and return it sorted."""
        if len(values) != LANES:
            raise ValueError(f"need exactly {LANES} values")
        out = self.tick(self.input_spec.pack(valid_in=1, data=values))
        for _ in range(PIPELINE_DEPTH * 2):
            fields = self.output_spec.unpack(out)
            if fields["valid_out"]:
                return fields["data"]
            out = self.tick(self.input_spec.zeros())
        raise RuntimeError("pipeline did not produce a result")
