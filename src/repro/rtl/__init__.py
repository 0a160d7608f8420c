"""RTL simulation kernel: the execution target of the HDL frontends.

Public surface::

    from repro.rtl import RTLModule, RTLSimulator, VCDWriter
"""

from .codegen import CodegenProgram, build_program
from .kernel import (
    COVERAGE_PREFIX,
    CombLoopError,
    CombProcess,
    CoveragePoint,
    Edge,
    FSMInfo,
    Memory,
    RTLModule,
    Signal,
    SyncProcess,
    mask_for,
)
from .simulator import BACKENDS, RTLCheckpoint, RTLSimulator
from .synth import AreaReport, estimate_area, estimate_verilog
from .vcd import VCDWriter

__all__ = [
    "AreaReport",
    "BACKENDS",
    "COVERAGE_PREFIX",
    "CodegenProgram",
    "CombLoopError",
    "CombProcess",
    "CoveragePoint",
    "Edge",
    "FSMInfo",
    "Memory",
    "RTLModule",
    "RTLCheckpoint",
    "RTLSimulator",
    "Signal",
    "SyncProcess",
    "VCDWriter",
    "build_program",
    "estimate_area",
    "estimate_verilog",
    "mask_for",
]
