"""Bitonic sorter use case: the VHDL/GHDL-flow demonstration."""
