"""Periodic stats dumper."""

import io

import pytest

from repro.soc.cpu.uop import alu
from repro.soc.statsdump import StatsDumper
from repro.soc.system import SoC, SoCConfig


class TestStatsDumper:
    def test_snapshots_at_interval(self):
        soc = SoC(SoCConfig(num_cores=1, memory="DDR4-1ch"))
        dumper = StatsDumper(soc.sim, interval_cycles=1000)
        soc.cores[0].run_stream([alu(1)] * 9000)
        soc.run_until_done()
        dumper.stop()
        assert len(dumper.snapshots) >= 2
        ticks = [t for t, _ in dumper.snapshots]
        gaps = [b - a for a, b in zip(ticks, ticks[1:])]
        assert all(g == 1000 * 500 for g in gaps)  # 1000 cycles at 2GHz

    def test_series_extraction_monotonic(self):
        soc = SoC(SoCConfig(num_cores=1, memory="DDR4-1ch"))
        dumper = StatsDumper(soc.sim, interval_cycles=500)
        soc.cores[0].run_stream([alu(1)] * 6000)
        soc.run_until_done()
        dumper.stop()
        series = dumper.series("system.cpu0.committed")
        assert len(series) >= 2
        values = [v for _, v in series]
        assert values == sorted(values)
        assert values[-1] <= 6000

    def test_reset_on_dump_gives_deltas(self):
        soc = SoC(SoCConfig(num_cores=1, memory="DDR4-1ch"))
        dumper = StatsDumper(soc.sim, interval_cycles=500,
                             reset_on_dump=True)
        soc.cores[0].run_stream([alu(1)] * 6000)
        soc.run_until_done()
        dumper.stop()
        deltas = [flat["system.cpu0.committed"]
                  for _, flat in dumper.snapshots]
        # per-interval committed counts, not cumulative
        assert all(d <= 2000 for d in deltas)
        assert sum(deltas) <= 6000

    def test_stream_output(self):
        soc = SoC(SoCConfig(num_cores=1, memory="DDR4-1ch"))
        out = io.StringIO()
        dumper = StatsDumper(soc.sim, interval_cycles=1000, stream=out)
        soc.cores[0].run_stream([alu(1)] * 3000)
        soc.run_until_done()
        dumper.stop()
        text = out.getvalue()
        assert "---- tick" in text
        assert "system.cpu0.committed" in text

    def test_callback(self):
        soc = SoC(SoCConfig(num_cores=1, memory="DDR4-1ch"))
        seen = []
        StatsDumper(soc.sim, interval_cycles=1000,
                    on_dump=lambda t, flat: seen.append(t))
        soc.cores[0].run_stream([alu(1)] * 5000)
        soc.run_until_done()
        assert seen

    def test_bad_interval(self):
        soc = SoC(SoCConfig(num_cores=1, memory="DDR4-1ch"))
        with pytest.raises(ValueError):
            StatsDumper(soc.sim, interval_cycles=0)

    def test_stop_deschedules_mid_run(self):
        soc = SoC(SoCConfig(num_cores=1, memory="DDR4-1ch"))
        dumper = StatsDumper(soc.sim, interval_cycles=500)
        soc.cores[0].run_stream([alu(1)] * 3000)
        soc.run_until_done()
        dumper.stop()
        count = len(dumper.snapshots)
        assert count >= 2
        assert not dumper._event.scheduled
        # more simulated work after stop() must not grow the history
        soc.cores[0].run_stream([alu(1)] * 3000)
        soc.run_until_done()
        assert len(dumper.snapshots) == count

    def test_stop_is_idempotent(self):
        soc = SoC(SoCConfig(num_cores=1, memory="DDR4-1ch"))
        dumper = StatsDumper(soc.sim, interval_cycles=500)
        soc.cores[0].run_stream([alu(1)] * 1500)
        soc.run_until_done()
        dumper.stop()
        dumper.stop()
        assert not dumper._event.scheduled

    def test_series_missing_key_is_empty(self):
        soc = SoC(SoCConfig(num_cores=1, memory="DDR4-1ch"))
        dumper = StatsDumper(soc.sim, interval_cycles=500)
        soc.cores[0].run_stream([alu(1)] * 3000)
        soc.run_until_done()
        dumper.stop()
        assert dumper.series("system.no.such.stat") == []
