"""End-to-end verification of the VHDL bitonic sorter (repro verify).

The bitonic design is the repo's GHDL-flow exemplar; this file proves
the whole verify stack — lint, coverage (both backends, identical),
fuzz and equivalence — works on a VHDL design, not just Verilog.
"""

from __future__ import annotations

from repro.cli import main
from repro.hdl.common import CoverageOptions
from repro.verify.coverage import CoverageCollector
from repro.verify.designs import get_design
from repro.verify.equiv import check_equivalence
from repro.verify.lint import lint_source
from repro.verify.stimulus import Stimulus, fuzz

DESIGN = get_design("bitonic")


class TestLint:
    def test_bitonic_lints_clean(self):
        report = lint_source(DESIGN.source(), DESIGN.filename,
                             DESIGN.frontend)
        assert report.clean, report.format_text()


class TestCoverage:
    def test_full_statement_coverage_under_uniform_stimulus(self):
        sim = DESIGN.make_sim(instrument=CoverageOptions())
        collector = CoverageCollector(sim)
        Stimulus("uniform", 4, 48).apply(sim, collector)
        report = collector.report()
        # every stage register assignment executes each cycle
        assert report.statement_covered == report.statement_total > 0

    def test_coverage_identical_across_backends(self):
        docs = []
        for backend in ("interp", "codegen"):
            sim = DESIGN.make_sim(backend=backend,
                                  instrument=CoverageOptions())
            collector = CoverageCollector(sim)
            Stimulus("uniform", 4, 48).apply(sim, collector)
            doc = collector.report().to_dict()
            doc.pop("backend")
            docs.append(doc)
        assert docs[0] == docs[1]


class TestFuzzAndEquiv:
    def test_fuzz_is_deterministic_on_vhdl(self):
        make = lambda: DESIGN.make_sim(instrument=CoverageOptions())
        a = fuzz(make, seed=6, runs=4, cycles=16)
        b = fuzz(make, seed=6, runs=4, cycles=16)
        assert [s.to_dict() for s in a.corpus] == \
               [s.to_dict() for s in b.corpus]
        assert a.summary == b.summary

    def test_backends_equivalent(self):
        result = check_equivalence(
            lambda backend: DESIGN.make_sim(backend=backend),
            design="bitonic", seed=2, random_runs=1, cycles=24,
        )
        assert result.ok, result.format()


class TestCLI:
    def test_verify_pipeline_over_bitonic(self, tmp_path, capsys):
        corpus = tmp_path / "corpus"
        assert main(["verify", "lint", "bitonic"]) == 0
        assert main(["verify", "cover", "bitonic", "--cycles", "24"]) == 0
        assert main(["verify", "fuzz", "bitonic", "--runs", "3",
                     "--cycles", "16", "--corpus-dir", str(corpus)]) == 0
        assert main(["verify", "equiv", "bitonic", "--runs", "0",
                     "--cycles", "16", "--corpus-dir", str(corpus)]) == 0
        out = capsys.readouterr().out
        assert "PASS" in out
