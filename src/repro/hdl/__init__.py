"""HDL frontends: Verilog (Verilator-equivalent) and VHDL (GHDL-equivalent).

Both compile into :class:`repro.rtl.kernel.RTLModule` via the shared
elaborator.
"""
