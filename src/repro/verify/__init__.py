"""repro.verify — coverage-guided RTL verification & lint.

The quality gate in front of the gem5+rtl flow: the paper's premise is
that RTL dropped into a full-system simulation must *already be
trustworthy*, and this package is how the repo earns that trust for its
bundled designs (and any user design):

* :mod:`repro.verify.lint` — static lint passes over the shared HDL
  AST (multiply-driven nets, inferred latches, width mismatches,
  incomplete cases, unused/undriven signals, async-reset hygiene),
  every diagnostic a machine-readable, waivable
  :class:`~repro.verify.findings.Finding`;
* :mod:`repro.verify.coverage` — statement / toggle / FSM coverage,
  **bit-identical across the interpreter and codegen backends** by
  construction (the counters live in the shared generated source);
* :mod:`repro.verify.stimulus` — seeded constrained-random stimulus
  strategies and a deterministic coverage-guided fuzz loop with corpus
  minimisation and persistence;
* :mod:`repro.verify.equiv` — lockstep interp-vs-codegen equivalence
  over corners + corpus + randoms, reporting the first divergence.

CLI: ``repro verify {lint,cover,fuzz,equiv}``.
"""
