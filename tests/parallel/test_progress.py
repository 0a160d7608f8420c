"""Progress line: ETA rendering and stale-character padding."""

import io

from repro.parallel.progress import ProgressReporter


def _last_paint(stream: io.StringIO) -> str:
    """The most recent self-overwriting line (after the final ``\\r``)."""
    return stream.getvalue().split("\r")[-1]


class TestEta:
    def test_eta_none_before_first_update(self):
        rep = ProgressReporter(5, stream=io.StringIO())
        assert rep.eta() is None

    def test_zero_eta_still_rendered(self, monkeypatch):
        out = io.StringIO()
        rep = ProgressReporter(5, stream=out)
        # instant points produce a legitimate 0.0 ETA — it must be shown
        monkeypatch.setattr(rep, "eta", lambda: 0.0)
        rep.update()
        assert "eta 0.0s" in _last_paint(out)

    def test_no_eta_on_final_update(self):
        out = io.StringIO()
        rep = ProgressReporter(1, stream=out)
        rep.update()
        assert "eta" not in out.getvalue()

    def test_final_update_appends_newline(self):
        out = io.StringIO()
        rep = ProgressReporter(2, stream=out)
        rep.update()
        assert not out.getvalue().endswith("\n")
        rep.update()
        assert out.getvalue().endswith("\n")


class TestPadding:
    def test_long_note_fully_overwritten_by_next_paint(self):
        out = io.StringIO()
        rep = ProgressReporter(3, stream=out)
        rep.update(note="point DDR4-4ch inflight=240 " + "x" * 60)
        long_len = len(_last_paint(out))
        assert long_len > 60  # the note exceeded the fixed field
        rep.update()
        # the next paint must blank every column the long line used
        assert len(_last_paint(out)) >= long_len

    def test_minimum_width_preserved(self):
        out = io.StringIO()
        rep = ProgressReporter(3, stream=out)
        rep.update()
        assert len(_last_paint(out)) >= 60

    def test_progress_text_content(self):
        out = io.StringIO()
        rep = ProgressReporter(4, label="dse", stream=out)
        rep.update(note="pt1")
        line = _last_paint(out)
        assert "[dse 1/4]" in line
        assert "25%" in line
        assert "pt1" in line
