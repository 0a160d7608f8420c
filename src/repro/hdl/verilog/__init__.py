"""Verilog frontend (the Verilator-equivalent toolflow).

    from repro.hdl.verilog import compile_verilog
    rtl = compile_verilog(source_text, top="pmu")
    sim = RTLSimulator(rtl)
"""

from __future__ import annotations

from typing import Optional

from ...rtl.kernel import RTLModule
from ..common import CoverageOptions, ElabError
from ..elaborator import ELAB_CACHE, elaborate
from .parser import parse

__all__ = ["compile_verilog"]


def compile_verilog(
    source: str,
    top: Optional[str] = None,
    params: Optional[dict[str, int]] = None,
    filename: str = "<verilog>",
    instrument: Optional[CoverageOptions] = None,
) -> RTLModule:
    """Parse + elaborate Verilog *source* into an executable RTLModule.

    ``top`` defaults to the sole module in the source (error if ambiguous),
    matching how Verilator requires the top module to be named only when
    several candidates exist.  ``instrument`` compiles coverage
    instrumentation into the design (see :mod:`repro.verify`).  The
    design is the HDL as written: no netlist optimisation runs.

    Identical (source, top, params, instrument) compilations share one
    cached design; an elaborated RTLModule is immutable during
    simulation, so sharing is safe.
    """

    def build() -> RTLModule:
        modules = parse(source, filename)
        resolved = top
        if resolved is None:
            if len(modules) != 1:
                raise ElabError(
                    f"multiple modules {sorted(modules)}; specify top explicitly"
                )
            resolved = next(iter(modules))
        return elaborate(modules, resolved, params, instrument)

    return ELAB_CACHE.get_or_build(
        ELAB_CACHE.key("verilog", source, top, params, instrument), build
    )
