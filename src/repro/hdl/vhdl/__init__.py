"""VHDL frontend (the GHDL-equivalent toolflow).

    from repro.hdl.vhdl import compile_vhdl
    rtl = compile_vhdl(source_text, top="bitonic8")
"""

from __future__ import annotations

from typing import Optional

from ...rtl.kernel import RTLModule
from ...rtl.opt import optimize
from ..common import CoverageOptions, ElabOptions
from ..elaborator import ELAB_CACHE, elaborate
from .lexer import tokenize
from .parser import parse

__all__ = ["compile_vhdl", "parse", "tokenize"]


def compile_vhdl(
    source: str,
    top: Optional[str] = None,
    params: Optional[dict[str, int]] = None,
    filename: str = "<vhdl>",
    instrument: Optional[CoverageOptions] = None,
    options: Optional[ElabOptions] = None,
) -> RTLModule:
    """Parse + elaborate VHDL *source* into an executable RTLModule.

    ``top`` defaults to the sole entity with an architecture in the source.
    ``params`` overrides generics (GHDL's ``-gNAME=VALUE``).
    ``instrument`` compiles coverage instrumentation into the design
    (see :mod:`repro.verify`).  ``options`` selects the
    netlist-optimisation level (:mod:`repro.rtl.opt`); when omitted it
    defaults from the ``REPRO_OPT_LEVEL`` environment variable.

    Identical (source, top, params, instrument, options) compilations
    share one cached design (disable with ``REPRO_ELAB_CACHE=0``).
    """
    # VHDL is case-insensitive; the parser normalises to lower case.
    top = top.lower() if top is not None else None
    params = {k.lower(): v for k, v in params.items()} if params else None
    options = ElabOptions.resolve(options)

    def build() -> RTLModule:
        modules = parse(source, filename)
        resolved = top
        if resolved is None:
            if len(modules) != 1:
                raise ValueError(
                    f"multiple entities {sorted(modules)}; specify top explicitly"
                )
            resolved = next(iter(modules))
        rtl = elaborate(modules, resolved, params, instrument)
        return optimize(rtl, options) if options.passes() else rtl

    return ELAB_CACHE.get_or_build(
        ELAB_CACHE.key("vhdl", source, top, params, instrument, options),
        build,
    )
