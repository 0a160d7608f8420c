"""Cache hierarchy: the MSHR-based cache core, the classic tag-only policy
over it (the MESI one is :mod:`repro.coherence.l1`), and prefetchers."""

from .cache import BasePrefetcher, Cache, StridePrefetcher
from .core import MSHR, CacheCore
from .sets import BLOCK, SparseSets

__all__ = [
    "BLOCK", "BasePrefetcher", "Cache", "CacheCore", "MSHR", "SparseSets",
    "StridePrefetcher",
]
