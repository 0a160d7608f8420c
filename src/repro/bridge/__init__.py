"""The gem5+rtl bridge — the paper's primary contribution.

Three pieces, mirroring Figure 1:

1. RTL models — compiled by :mod:`repro.hdl` (Verilog/VHDL frontends);
2. the shared library — :class:`.shared_library.SharedLibrary`
   wrappers exposing ``tick``/``reset`` and exchanging packed structs;
3. the gem5 side — :class:`.rtl_object.RTLObject` with timing ports, TLB
   hookup and a frequency-ratio tick event.
"""
