"""Resilience layer: checkpoint/restore, hang watchdog, fault injection.

Three cooperating pieces for long-running simulation fleets:

* :mod:`repro.resilience.serialize` — gem5-style full-system
  checkpointing (``Simulation.save_checkpoint`` / ``Simulation.restore``)
  with a versioned on-disk format; a restored run continues to
  bit-identical statistics.
* :mod:`repro.resilience.watchdog` — a low-overhead progress monitor
  that turns a silent livelock/deadlock into a structured
  :class:`HangReport` carried by a :class:`SimulationHang` exception.
* :mod:`repro.resilience.faults` — seeded, deterministic fault
  injection (:class:`FaultPlan`) used both as a chaos harness for the
  watchdog/runner and via the ``--inject`` CLI flag.
* :mod:`repro.resilience.campaign` — soft-error fault-injection
  campaigns: golden run + checkpoints, named-signal flip sampling,
  parallel experiments, outcome triage, per-signal vulnerability
  reports (``repro campaign`` CLI).
"""
