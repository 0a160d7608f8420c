"""HDL frontends: Verilog (Verilator-equivalent) and VHDL (GHDL-equivalent).

Both compile into :class:`repro.rtl.RTLModule` via the shared elaborator.
"""

from .common import (
    CoverageOptions,
    ElabError,
    HDLError,
    HDLSyntaxError,
    LexError,
    ParseError,
)

__all__ = [
    "CoverageOptions",
    "ElabError",
    "HDLError",
    "HDLSyntaxError",
    "LexError",
    "ParseError",
]
