"""The gem5-substrate: a discrete-event full-SoC simulator.

Subpackages: cpu (OoO cores), cache, interconnect, mem (DRAM/ideal),
plus the event queue, SimObject model, ports/packets and statistics.
"""

from .event import ClockDomain, Event, EventPriority, EventQueue
from .packet import MemCmd, Packet
from .ports import RequestPort, ResponsePort
from .simobject import SimObject, Simulation
from .power import PowerCoefficients, PowerReport, estimate_power
from .stats import StatGroup
from .tlb import TLB, PageTable

__all__ = [
    "ClockDomain", "Event", "EventPriority", "EventQueue", "MemCmd",
    "Packet", "PageTable", "PowerCoefficients", "PowerReport",
    "RequestPort", "ResponsePort", "SimObject", "Simulation", "StatGroup",
    "TLB", "estimate_power",
]
