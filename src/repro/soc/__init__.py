"""The gem5-substrate: a discrete-event full-SoC simulator.

Subpackages: cpu (OoO cores), cache, interconnect, mem (DRAM/ideal),
plus the event queue, SimObject model, ports/packets and statistics.
"""
