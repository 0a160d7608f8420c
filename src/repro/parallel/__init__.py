"""Parallel sweep engine: fan independent simulation points over
process workers with a deterministic merge and an on-disk result cache.

The experiment layer's unit of work is an *independent full-system
simulation* (one DSE point, one Table 2/3 row, one Fig. 5 series);
none of them share state, so they parallelise embarrassingly.  This
package provides the three pieces that :func:`repro.experiment.run` and
the serve scheduler build on:

* :func:`run_points` — a process-pool runner whose merged result list
  is ordered by submission index, never by completion order, so a
  ``jobs=N`` run is bit-identical to ``jobs=1``.  Worker crashes
  (segfault-style hard exits) and in-worker exceptions are both retried
  with bounded attempts.
* :class:`ResultCache` — content-addressed JSON store under
  ``benchmarks/out/cache/`` keyed by the point's parameters *and* a
  hash of the simulator's own source, so re-running a figure after a
  code change only re-simulates, and re-running unchanged code only
  reads; :func:`~repro.parallel.cache.cached_run` is the loop
  :func:`repro.experiment.run` resolves every point through.
* :class:`~repro.parallel.progress.ProgressReporter` — wall-clock
  progress/ETA line for long sweeps.
"""

# the one re-export pair: bench/ imports it from here, and every user of
# this package loads both modules anyway (cache imports runner)
from .cache import ResultCache
from .runner import run_points

__all__ = ["ResultCache", "run_points"]
