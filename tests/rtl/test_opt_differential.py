"""Differential battery of the fused program against the interpreter.

Every bundled design runs identical stimulus through the interpreter
(the semantic reference) and the codegen backend, demanding cycle-exact
equality of every visible signal and memory word, also across long
frozen-input batches, and bit-identical coverage reports.  ``-O0`` in an
id: the HDL as written, as ``test_ir.py``'s listing pins call it.
"""

from __future__ import annotations

import random

import pytest

from repro.hdl.common import CoverageOptions
from repro.verify.coverage import CoverageCollector
from repro.verify.equiv import check_equivalence
from repro.verify.stimulus import Stimulus
from repro.verify.designs import DESIGNS

ALL = sorted(DESIGNS)
CELLS = [pytest.param(d, id=f"{d}-O0") for d in ALL]


class TestLockstepEquivalence:
    """Interpreter vs codegen, cycle by cycle."""

    @pytest.mark.parametrize("name", CELLS)
    def test_design_matches_reference(self, name):
        design = DESIGNS[name]
        res = check_equivalence(
            lambda backend: design.make_sim(backend=backend),
            design=name,
            seed=0xD1FF,
            random_runs=2,
            cycles=48,
        )
        assert res.ok, res.format()

    def test_pmu_actually_compares(self):
        """Guard against the whole battery silently degrading to skips."""
        design = DESIGNS["pmu"]
        res = check_equivalence(
            lambda backend: design.make_sim(backend=backend),
            design="pmu", random_runs=1, cycles=16,
        )
        assert not res.skipped
        assert res.cycles_checked > 0


class TestBatchQuiescence:
    """Long frozen-input batches run the generated loop many cycles per
    call; state must still match the reference word for word."""

    @pytest.mark.parametrize("name", ALL)
    def test_frozen_input_batch(self, name):
        design = DESIGNS[name]
        fused = design.make_sim(backend="codegen")
        ref = design.make_sim(backend="interp")
        drivable = sorted(
            (s for s in fused.module.inputs
             if s.name not in ("clk", "rst", "reset", "rst_n", "reset_n")),
            key=lambda s: s.name,
        )
        rng = random.Random(0xBA7C)
        stimulus = [
            {s.name: rng.getrandbits(s.width) for s in drivable}
            for _ in range(8)
        ]
        for sim in (fused, ref):
            sim.reset()
            for pokes in stimulus:          # warm up with moving inputs
                for sig, val in pokes.items():
                    sim.poke(sig, val)
                sim.tick()
            sim.run_cycles(600)             # then a long frozen batch
        assert fused.cycle == ref.cycle
        assert fused.values == ref.values
        assert fused.mems == ref.mems


class TestCoverageIdentity:
    """Coverage counts are part of the contract: every design, both
    backends must report bit-identical coverage."""

    @pytest.mark.parametrize("name", CELLS)
    def test_reports_identical(self, name):
        design = DESIGNS[name]
        docs = []
        for backend in ("interp", "codegen"):
            sim = design.make_sim(backend=backend,
                                  instrument=CoverageOptions())
            collector = CoverageCollector(sim)
            Stimulus("uniform", 0xC0F, 96).apply(sim, collector)
            doc = collector.report().to_dict()
            doc.pop("backend")
            docs.append(doc)
        assert docs[0] == docs[1]
