"""MESI cache coherence (multi-core sharing with a snooping directory).

The protocol engine (:mod:`.protocol`) is an explicit state table;
:mod:`.l1` holds the per-core private caches (the MESI policy over
:class:`repro.soc.cache.CacheCore`), :mod:`.directory` the
shared-L2 snooping directory that serializes every transaction, and
:mod:`.check` the protocol-invariant harness behind
``repro verify coherence``.  The RTL write-through cache joins the same
protocol through :class:`repro.models.rtlcache.RTLCoherentCacheObject`.
"""

from .check import (
    SharingDriver,
    build_sharing_system,
    check_coherence_invariants,
    golden_regions,
    run_sharing_stress,
)
from .directory import (
    DIR_STATE_DEPTH,
    DIR_STATE_WIDTH,
    DirectoryController,
    DirEntry,
)
from .l1 import CacheLine, CoherentL1Cache
from .protocol import EVENTS, TRANSITIONS, ProtocolError, State, next_state

__all__ = [
    "CacheLine",
    "CoherentL1Cache",
    "DIR_STATE_DEPTH",
    "DIR_STATE_WIDTH",
    "DirEntry",
    "DirectoryController",
    "EVENTS",
    "ProtocolError",
    "SharingDriver",
    "State",
    "TRANSITIONS",
    "build_sharing_system",
    "check_coherence_invariants",
    "golden_regions",
    "next_state",
    "run_sharing_stress",
]
