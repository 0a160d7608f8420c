"""Waiver mechanics: in-source comments and waiver files."""

from __future__ import annotations

import pytest

from repro.verify.findings import (
    Finding,
    WaiverEntry,
    apply_waivers,
    parse_waiver_file,
)
from repro.verify.lint import lint_source

TRUNCATING = """\
module m(input [7:0] a, output [3:0] x);
    assign x = a;
endmodule
"""


class TestCommentWaivers:
    def test_waive_comment_on_same_line(self):
        src = TRUNCATING.replace(
            "assign x = a;", "assign x = a; // repro-lint: waive"
        )
        report = lint_source(src, "t.v")
        assert report.findings, "fixture must still produce the finding"
        assert report.clean
        assert all(f.waived and f.waived_by == "comment"
                   for f in report.findings)

    def test_waive_comment_on_line_above(self):
        src = TRUNCATING.replace(
            "    assign x = a;",
            "    // repro-lint: waive\n    assign x = a;",
        )
        report = lint_source(src, "t.v")
        assert report.findings and report.clean

    def test_scoped_waiver_matches_rule(self):
        src = TRUNCATING.replace(
            "assign x = a;", "assign x = a; // repro-lint: waive=WIDTH"
        )
        assert lint_source(src, "t.v").clean

    def test_scoped_waiver_for_other_rule_does_not_match(self):
        src = TRUNCATING.replace(
            "assign x = a;", "assign x = a; // repro-lint: waive=UNUSED"
        )
        report = lint_source(src, "t.v")
        assert not report.clean

    def test_unwaived_finding_blocks(self):
        report = lint_source(TRUNCATING, "t.v")
        assert not report.clean
        assert report.blocking


class TestWaiverFile:
    def test_parse_entries(self):
        entries = parse_waiver_file(
            "# comment\n"
            "WIDTH\n"
            "UNUSED:*/legacy/*.v\n"
            "LATCH:top.v:42\n"
        )
        assert entries == [
            WaiverEntry("WIDTH", "*", "*"),
            WaiverEntry("UNUSED", "*/legacy/*.v", "*"),
            WaiverEntry("LATCH", "top.v", "42"),
        ]

    def test_bad_line_raises(self):
        with pytest.raises(ValueError):
            parse_waiver_file("WIDTH:a:b:c:d\n", "w.txt")

    def test_file_waiver_applies(self):
        report = lint_source(
            TRUNCATING, "t.v",
            waivers=parse_waiver_file("WIDTH:t.v\n"),
        )
        assert report.findings and report.clean
        assert report.findings[0].waived_by == "waiver-file"

    def test_file_glob_mismatch_does_not_apply(self):
        report = lint_source(
            TRUNCATING, "t.v",
            waivers=parse_waiver_file("WIDTH:other.v\n"),
        )
        assert not report.clean

    def test_line_scoped_waiver(self):
        finding = Finding("WIDTH", "warning", "msg", "t.v", 2)
        apply_waivers([finding], {}, parse_waiver_file("WIDTH:t.v:2\n"))
        assert finding.waived
        other = Finding("WIDTH", "warning", "msg", "t.v", 3)
        apply_waivers([other], {}, parse_waiver_file("WIDTH:t.v:2\n"))
        assert not other.waived


class TestBundledWaivers:
    def test_rtlcache_width_truncations_are_waived_in_source(self):
        from repro.verify.designs import get_design

        design = get_design("rtlcache")
        report = lint_source(design.source(), design.filename,
                             design.frontend)
        width = [f for f in report.findings if f.rule == "WIDTH"]
        assert width, "rtl_cache.v has genuine word-select truncations"
        assert all(f.waived for f in width)
        assert report.clean
