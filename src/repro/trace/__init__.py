"""repro.trace — unified tracing & debug-flag layer.

The shared observability substrate (gem5's ``--debug-flags`` /
``DPRINTF`` / trace framework, paper §4 + Table 2):

* :mod:`repro.trace.flags` — hierarchical debug-flag registry with
  dotted-name inheritance and near-zero disabled cost, plus the
  ``tracepoint`` call threaded through every major SoC component;
* :mod:`repro.trace.chrome` — Chrome trace-event JSON exporter
  (``--trace-out=trace.json``, loadable in Perfetto) rendering both
  simulated-time spans and host-time event-callback self-profiling;
* :mod:`repro.trace.packets` — packet-lifetime tracking (birth tick,
  per-hop timestamps, per-hop latency ``Distribution`` histograms);
* :mod:`repro.trace.control` — runtime on/off trace windows
  (``--trace-start``/``--trace-end``) that flip debug flags, the Chrome
  tracer and every registered ``VCDWriter`` from one switch.
"""

# bench/ imports this one name from here; every component loads flags
from .flags import set_default_profiler

__all__ = ["set_default_profiler"]
