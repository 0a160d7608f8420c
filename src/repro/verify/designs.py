"""Registry of bundled RTL designs the verify CLI operates on.

``repro verify {lint,cover,fuzz,equiv}`` needs concrete designs; the
repo bundles a set that between them cover both frontends and every
interesting structural shape:

============= ======== =============================================
name          frontend shape
============= ======== =============================================
pmu           verilog  memories, address-mapped regs, single always
bitonic       vhdl     deep comb instance tree + registered stages
rtlcache      verilog  wide datapaths, miss FSM-ish busy flag
rtlcache_ecc  verilog  rtlcache, ECC=1: per-word parity, refetch path
rtlcache_coh  verilog  rtlcache, SNOOP=1: coherence probe (snoop) port
============= ======== =============================================

The ``rtlcache`` rows are one file, ``rtl_cache.v``, under the
``ECC``/``SNOOP`` pair of the library class that drives each.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

from ..hdl.common import CoverageOptions
from ..models.bitonic.wrapper import load_bitonic_source
from ..models.pmu.wrapper import load_pmu_source
from ..models.rtlcache.coherent import RTLCacheCohSharedLibrary
from ..models.rtlcache.wrapper import (
    RTLCacheECCSharedLibrary,
    RTLCacheSharedLibrary,
    load_rtl_cache_source,
)
from ..rtl.simulator import RTLSimulator


@dataclass(frozen=True)
class Design:
    """One bundled design: how to load, lint and compile it."""

    name: str
    frontend: str                      # "verilog" | "vhdl"
    top: str
    loader: Callable[[], str]
    filename: str                      # display name for findings
    params: Optional[dict] = field(default=None)

    def source(self) -> str:
        return self.loader()

    def compile(self, instrument: Optional[CoverageOptions] = None):
        """The elaborated design, with *instrument*'s coverage counters
        compiled in."""
        if self.frontend == "vhdl":
            from ..hdl.vhdl import compile_vhdl
            return compile_vhdl(
                self.source(), top=self.top, params=self.params,
                filename=self.filename, instrument=instrument,
            )
        from ..hdl.verilog import compile_verilog
        return compile_verilog(
            self.source(), top=self.top, params=self.params,
            filename=self.filename, instrument=instrument,
        )

    def make_sim(
        self,
        backend: str = "codegen",
        instrument: Optional[CoverageOptions] = None,
    ):
        """A fresh simulator for this design."""
        return RTLSimulator(self.compile(instrument), backend=backend)


DESIGNS: dict[str, Design] = {
    d.name: d
    for d in (
        Design("pmu", "verilog", "pmu", load_pmu_source,
               "src/repro/models/pmu/pmu.v"),
        Design("bitonic", "vhdl", "bitonic8", load_bitonic_source,
               "src/repro/models/bitonic/bitonic.vhdl", params={"W": 16}),
    ) + tuple(
        Design(name, "verilog", "rtl_cache", load_rtl_cache_source,
               "src/repro/models/rtlcache/rtl_cache.v",
               params={"IDXW": 4, **library.params})
        for name, library in (
            ("rtlcache", RTLCacheSharedLibrary),
            ("rtlcache_ecc", RTLCacheECCSharedLibrary),
            ("rtlcache_coh", RTLCacheCohSharedLibrary),
        )
    )
}


def design_names() -> list[str]:
    return sorted(DESIGNS)


def get_design(name: str) -> Design:
    try:
        return DESIGNS[name]
    except KeyError:
        raise ValueError(
            f"unknown design {name!r}; bundled designs: "
            f"{', '.join(design_names())}"
        ) from None
