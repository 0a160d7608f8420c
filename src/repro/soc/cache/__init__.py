"""Cache hierarchy: classic MSHR-based caches and prefetchers."""

from .cache import BLOCK, BasePrefetcher, Cache, MSHR, StridePrefetcher
from .sets import SparseSets

__all__ = [
    "BLOCK", "BasePrefetcher", "Cache", "MSHR", "SparseSets",
    "StridePrefetcher",
]
