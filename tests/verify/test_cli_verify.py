"""The ``repro verify`` command family end to end."""

from __future__ import annotations

import json

import pytest

from repro.cli import main


class TestLintCommand:
    def test_lint_all_bundled_designs_clean_or_waived(self, capsys):
        assert main(["verify", "lint"]) == 0
        out = capsys.readouterr().out
        assert "lint:" in out

    def test_lint_file_with_findings_fails(self, tmp_path, capsys):
        bad = tmp_path / "bad.v"
        bad.write_text(
            "module m(input [7:0] a, output [3:0] x);\n"
            "    assign x = a;\n"
            "endmodule\n"
        )
        assert main(["verify", "lint", "--file", str(bad)]) == 1
        assert "WIDTH" in capsys.readouterr().out

    def test_lint_syntax_error_is_a_finding_not_a_traceback(
        self, tmp_path, capsys
    ):
        broken = tmp_path / "broken.v"
        broken.write_text("module m(input a;\n")
        assert main(["verify", "lint", "--file", str(broken)]) == 1
        out = capsys.readouterr().out
        assert "SYNTAX" in out
        assert str(broken) in out

    def test_lint_json_report(self, tmp_path, capsys):
        out_path = tmp_path / "lint.json"
        assert main(["verify", "lint", "--json", str(out_path)]) == 0
        doc = json.loads(out_path.read_text())
        assert "findings" in doc and "blocking" in doc
        assert doc["blocking"] == 0

    def test_lint_waiver_file(self, tmp_path, capsys):
        bad = tmp_path / "bad.v"
        bad.write_text(
            "module m(input [7:0] a, output [3:0] x);\n"
            "    assign x = a;\n"
            "endmodule\n"
        )
        waivers = tmp_path / "waivers.txt"
        waivers.write_text("WIDTH\n")
        assert main(["verify", "lint", "--file", str(bad),
                     "--waivers", str(waivers)]) == 0

    def test_unknown_design_errors(self):
        with pytest.raises(SystemExit):
            main(["verify", "lint", "nosuchdesign"])


class TestCoverCommand:
    def test_cover_checks_backend_identity(self, capsys):
        assert main(["verify", "cover", "pmu", "--cycles", "32"]) == 0
        out = capsys.readouterr().out
        assert "interp and codegen coverage identical" in out
        assert "statement:" in out

    def test_cover_single_backend_json(self, tmp_path, capsys):
        out_path = tmp_path / "cover.json"
        assert main(["verify", "cover", "pmu", "--backend", "interp",
                     "--cycles", "16", "--json", str(out_path)]) == 0
        (doc,) = json.loads(out_path.read_text())
        assert doc["design"] == "pmu"
        assert doc["backend"] == "interp"
        assert doc["statement"]["total"] > 0


class TestFuzzCommand:
    def test_fuzz_writes_corpus_and_is_deterministic(
        self, tmp_path, capsys
    ):
        d1, d2 = tmp_path / "c1", tmp_path / "c2"
        for d in (d1, d2):
            assert main(["verify", "fuzz", "pmu", "--seed", "5",
                         "--runs", "6", "--cycles", "16",
                         "--corpus-dir", str(d)]) == 0
        assert (d1 / "pmu.json").read_text() == \
               (d2 / "pmu.json").read_text()

    def test_min_statement_gate_fails_when_unreachable(self, tmp_path):
        assert main(["verify", "fuzz", "pmu", "--runs", "2",
                     "--cycles", "8", "--corpus-dir", "",
                     "--min-statement", "100"]) == 1

    def test_min_statement_gate_passes_when_met(self, tmp_path):
        assert main(["verify", "fuzz", "pmu", "--runs", "6",
                     "--cycles", "32", "--corpus-dir", "",
                     "--min-statement", "50"]) == 0


class TestEquivCommand:
    def test_equiv_passes_on_bundled_design(self, capsys):
        assert main(["verify", "equiv", "pmu", "--runs", "1",
                     "--cycles", "16", "--corpus-dir", ""]) == 0
        assert "PASS" in capsys.readouterr().out

    def test_equiv_replays_fuzz_corpus(self, tmp_path, capsys):
        corpus = tmp_path / "corpus"
        assert main(["verify", "fuzz", "pmu", "--seed", "2",
                     "--runs", "4", "--cycles", "16",
                     "--corpus-dir", str(corpus)]) == 0
        capsys.readouterr()
        assert main(["verify", "equiv", "pmu", "--runs", "0",
                     "--cycles", "16", "--corpus-dir", str(corpus)]) == 0
        out = capsys.readouterr().out
        assert "PASS" in out
