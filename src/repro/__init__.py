"""repro — gem5+rtl reproduced in Python.

A full-system SoC simulator (the gem5 substrate), two HDL frontends
(Verilog ≈ Verilator, VHDL ≈ GHDL) compiling into a cycle-accurate RTL
kernel, and the gem5+rtl bridge (RTLObject + shared-library wrappers)
connecting them — plus the paper's three use cases: a PMU in Verilog,
an NVDLA-class accelerator, and a bitonic sorter in VHDL.

Quick start::

    from repro.hdl.verilog import compile_verilog
    from repro.rtl.simulator import RTLSimulator

    rtl = compile_verilog(open("design.v").read())
    sim = RTLSimulator(rtl)
    sim.reset(); sim.poke("en", 1); sim.settle(); sim.tick(10)

Full-system integration::

    from repro.soc.system import SoC, SoCConfig
    from repro.models.pmu.rtl_object import PMURTLObject
    from repro.models.pmu.wrapper import PMUSharedLibrary

Packages re-export nothing: a name is imported from the module that
defines it, so a process loads only what it runs (DESIGN.md, "A
process imports what it runs").  See examples/ and DESIGN.md.
"""

__version__ = "1.0.0"
