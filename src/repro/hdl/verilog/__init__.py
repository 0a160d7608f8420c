"""Verilog frontend (the Verilator-equivalent toolflow).

    from repro.hdl.verilog import compile_verilog
    rtl = compile_verilog(source_text, top="pmu")
    sim = RTLSimulator(rtl)
"""

from __future__ import annotations

from typing import Optional

from ...rtl.kernel import RTLModule
from ...rtl.opt import optimize
from ..common import CoverageOptions, ElabOptions
from ..elaborator import ELAB_CACHE, elaborate
from .lexer import tokenize
from .parser import parse

__all__ = ["compile_verilog", "parse", "tokenize"]


def compile_verilog(
    source: str,
    top: Optional[str] = None,
    params: Optional[dict[str, int]] = None,
    filename: str = "<verilog>",
    instrument: Optional[CoverageOptions] = None,
    options: Optional[ElabOptions] = None,
) -> RTLModule:
    """Parse + elaborate Verilog *source* into an executable RTLModule.

    ``top`` defaults to the sole module in the source (error if ambiguous),
    matching how Verilator requires the top module to be named only when
    several candidates exist.  ``instrument`` compiles coverage
    instrumentation into the design (see :mod:`repro.verify`).
    ``options`` selects the netlist-optimisation level
    (:mod:`repro.rtl.opt`); when omitted it defaults from the
    ``REPRO_OPT_LEVEL`` environment variable (``-O0`` otherwise).

    Identical (source, top, params, instrument, options) compilations
    share one cached design (disable with ``REPRO_ELAB_CACHE=0``); an
    elaborated RTLModule is immutable during simulation, so sharing is
    safe.
    """
    options = ElabOptions.resolve(options)

    def build() -> RTLModule:
        modules = parse(source, filename)
        resolved = top
        if resolved is None:
            if len(modules) != 1:
                raise ValueError(
                    f"multiple modules {sorted(modules)}; specify top explicitly"
                )
            resolved = next(iter(modules))
        rtl = elaborate(modules, resolved, params, instrument)
        return optimize(rtl, options) if options.passes() else rtl

    return ELAB_CACHE.get_or_build(
        ELAB_CACHE.key("verilog", source, top, params, instrument, options),
        build,
    )
