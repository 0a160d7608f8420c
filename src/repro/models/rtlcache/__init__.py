"""RTL cache use case: the paper's Fig. 2(a) connectivity scenario."""

from .coherent import (
    RTLCACHE_COH_INPUT,
    RTLCACHE_COH_OUTPUT,
    RTLCacheCohSharedLibrary,
    RTLCoherentCacheObject,
)
from .wrapper import (
    FILL_LANES,
    LINE_BYTES,
    RTLCACHE_ECC_OUTPUT,
    RTLCACHE_INPUT,
    RTLCACHE_OUTPUT,
    RTLCacheECCSharedLibrary,
    RTLCacheObject,
    RTLCacheSharedLibrary,
    load_rtl_cache_source,
)

__all__ = [
    "FILL_LANES",
    "LINE_BYTES",
    "RTLCACHE_COH_INPUT",
    "RTLCACHE_COH_OUTPUT",
    "RTLCACHE_ECC_OUTPUT",
    "RTLCACHE_INPUT",
    "RTLCACHE_OUTPUT",
    "RTLCacheCohSharedLibrary",
    "RTLCacheECCSharedLibrary",
    "RTLCacheObject",
    "RTLCacheSharedLibrary",
    "RTLCoherentCacheObject",
    "load_rtl_cache_source",
]
