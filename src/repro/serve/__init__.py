"""Simulation-as-a-service: an async job layer over the experiment records.

``repro.serve`` composes the library's pieces — the parallel sweep
runner with crash retry and per-point timeouts, the content-addressed
:class:`~repro.parallel.cache.ResultCache`, the checkpoint/restore
contract and the progress/hang-report plumbing — into a multi-tenant
HTTP service:

* :class:`~repro.serve.scheduler.Scheduler` — priority queues,
  per-tenant quotas, job dedup keyed by (kind, params, source hash),
  sharded execution over a bounded worker fleet, shard-boundary
  preemption, per-job event streams.
* :class:`~repro.serve.server.ServeServer` — stdlib asyncio HTTP+JSON
  front end (``repro serve``).
* :class:`~repro.serve.client.ServeClient` — stdlib blocking client
  (``repro submit``).

A job's ``kind`` names an :class:`~repro.experiment.Experiment` in
:mod:`repro.experiment`'s registry: the six experiments the CLI runs
too (``GET /kinds`` lists them), plus any a test registers.

Everything is stdlib-only: ``asyncio`` + hand-rolled HTTP/1.1, no new
dependencies.
"""

# bench/ imports the client from here; a client process loads nothing else
from .client import ServeClient

__all__ = ["ServeClient"]
