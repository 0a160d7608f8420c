"""VHDL frontend (the GHDL-equivalent toolflow).

    from repro.hdl.vhdl import compile_vhdl
    rtl = compile_vhdl(source_text, top="bitonic8")
"""

from __future__ import annotations

from typing import Optional

from ...rtl.kernel import RTLModule
from ..common import CoverageOptions, ElabError
from ..elaborator import ELAB_CACHE, elaborate
from .parser import parse

__all__ = ["compile_vhdl"]


def compile_vhdl(
    source: str,
    top: Optional[str] = None,
    params: Optional[dict[str, int]] = None,
    filename: str = "<vhdl>",
    instrument: Optional[CoverageOptions] = None,
) -> RTLModule:
    """Parse + elaborate VHDL *source* into an executable RTLModule.

    ``top`` defaults to the sole entity with an architecture in the source.
    ``params`` overrides generics (GHDL's ``-gNAME=VALUE``).
    ``instrument`` compiles coverage instrumentation into the design
    (see :mod:`repro.verify`).  The design is the HDL as written: no
    netlist optimisation runs.

    Identical (source, top, params, instrument) compilations share one
    cached design.
    """
    # VHDL is case-insensitive; the parser normalises to lower case.
    top = top.lower() if top is not None else None
    params = {k.lower(): v for k, v in params.items()} if params else None

    def build() -> RTLModule:
        modules = parse(source, filename)
        resolved = top
        if resolved is None:
            if len(modules) != 1:
                raise ElabError(
                    f"multiple entities {sorted(modules)}; specify top explicitly"
                )
            resolved = next(iter(modules))
        return elaborate(modules, resolved, params, instrument)

    return ELAB_CACHE.get_or_build(
        ELAB_CACHE.key("vhdl", source, top, params, instrument), build
    )
