"""RTL simulation kernel: the execution target of the HDL frontends.

Public surface::

    from repro.rtl.kernel import RTLModule
    from repro.rtl.simulator import RTLSimulator
    from repro.rtl.vcd import VCDWriter
"""
