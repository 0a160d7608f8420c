"""Watchdog: hang detection, classification, and structured reports."""

import pytest

from repro.resilience.faults import FaultPlan, FaultInjector
from repro.resilience.watchdog import SimulationHang, Watchdog
from repro.soc.cpu.uop import alu, load, store
from repro.soc.system import SoC, SoCConfig


def _mem_heavy_workload(n=2000):
    """Loads over many distinct lines so DRAM sees a steady read stream."""
    uops = []
    for i in range(n):
        uops.append(load(0x1000 + (i * 64) % (256 * 1024)))
        uops.append(alu(1))
        uops.append(store(0x100000 + (i * 64) % (64 * 1024)))
    return uops


def _build(plan=None, check_cycles=2_000, stall_checks=3, **cfg):
    soc = SoC(SoCConfig(**{"num_cores": 1, "memory": "DDR4-1ch", **cfg}))
    for core in soc.cores:
        core.run_stream(iter(_mem_heavy_workload()))
    if plan is not None:
        FaultInjector(soc.sim, plan)  # registers itself on soc.sim
    soc.watchdog = Watchdog(soc.sim, check_cycles=check_cycles,
                            stall_checks=stall_checks)
    return soc


class TestDetection:
    def test_healthy_run_never_trips(self):
        soc = _build()
        soc.run_until_done(max_ticks=10**9)
        assert soc.watchdog.st_checks.value() > 0

    def test_dropped_dram_response_is_a_deadlock(self):
        """Swallowing one DRAM read completion wedges an MSHR forever;
        the watchdog must call it a deadlock and name the packet."""
        soc = _build(FaultPlan.parse(["dram-drop@20"]))
        with pytest.raises(SimulationHang) as err:
            soc.run_until_done(max_ticks=10**9)
        report = err.value.report
        assert report.kind == "deadlock"
        assert report.rejects_in_window == 0
        # the report names the stalled core and at least one wedged packet
        assert any(c.name == "cpu0" and not c.done for c in report.cores)
        assert report.stalled_packets, report.format()
        held_by = {p.where for p in report.stalled_packets}
        assert held_by & {"l1d0", "l2_0", "llc"}, report.format()
        assert report.mshr_counts

    def test_coherent_hang_names_the_l1_mshr(self):
        """In a coherent SoC the core's own load sits in its L1's MSHR
        (granted, its response parked behind the directory's fill that
        never returns).  Both cores' L1s are called ``l1d``: the report
        names them by path."""
        soc = _build(FaultPlan.parse(["dram-drop@20"]),
                     num_cores=2, coherent=True)
        with pytest.raises(SimulationHang) as err:
            soc.run_until_done(max_ticks=10**9)
        report = err.value.report
        assert report.kind == "deadlock"
        l1_held = [p for p in report.stalled_packets
                   if p.where in ("cpu0.l1d", "cpu1.l1d")]
        assert l1_held, report.format()
        assert all(p.requestor == p.where.split(".")[0] and p.pkt_id >= 0
                   for p in l1_held), report.format()
        assert report.mshr_counts.keys() >= {p.where for p in l1_held}
        assert "llc" in report.mshr_counts  # the plain caches, as before

    def test_detection_latency_is_bounded(self):
        """The hang is reported within stall_checks+1 check intervals of
        the stall beginning (the drop lands within the first interval)."""
        check_cycles, stall_checks = 2_000, 3
        soc = _build(FaultPlan.parse(["dram-drop@20"]),
                     check_cycles=check_cycles, stall_checks=stall_checks)
        with pytest.raises(SimulationHang) as err:
            soc.run_until_done(max_ticks=10**9)
        period = soc.sim.default_clock.period
        budget = (stall_checks + 1) * check_cycles * period
        assert err.value.report.tick <= budget, err.value.report.format()

    def test_retry_storm_is_a_livelock(self):
        soc = _build(FaultPlan.parse(["retry-storm@5000:0"]))
        with pytest.raises(SimulationHang) as err:
            soc.run_until_done(max_ticks=10**9)
        report = err.value.report
        assert report.kind == "livelock"
        assert report.rejects_in_window > 0
        assert report.events_fired_in_window > 0

    def test_finite_storm_recovers(self):
        """A bounded retry storm shorter than the trip threshold must
        not trip — the system resumes when the storm lifts."""
        soc = _build(FaultPlan.parse(["retry-storm@5000:2000"]),
                     check_cycles=2_000, stall_checks=4)
        soc.run_until_done(max_ticks=10**9)
        assert soc.cores[0].done

    def test_report_formats_to_text(self):
        soc = _build(FaultPlan.parse(["dram-drop@20"]))
        with pytest.raises(SimulationHang) as err:
            soc.run_until_done(max_ticks=10**9)
        text = err.value.report.format()
        assert "deadlock detected at tick" in text
        assert "stalled packets" in text
        assert "cpu0" in text
        # the exception message carries the full report for bare logs
        assert str(err.value) == text


class TestConfig:
    def test_invalid_thresholds_rejected(self, sim):
        with pytest.raises(ValueError):
            Watchdog(sim, check_cycles=0)
        with pytest.raises(ValueError):
            Watchdog(sim, stall_checks=0)

    def test_timeout_error_subclass(self):
        """run_until_done callers catching TimeoutError also see hangs."""
        assert issubclass(SimulationHang, TimeoutError)


class TestHangReportJson:
    """Machine-readable round-trip (campaign results, serve event logs)."""

    def _report(self):
        from repro.resilience.watchdog import (
            CoreProgress, HangReport, StalledPacket,
        )

        return HangReport(
            tick=123_456,
            kind="deadlock",
            reason="no events fired in window",
            strikes=3,
            check_interval_ticks=50_000,
            cores=[CoreProgress(name="cpu0", done=False, committed=42,
                                committed_delta=0)],
            stalled_packets=[StalledPacket(
                pkt_id=7, cmd="read", addr=0x1040, where="l2",
                age_ticks=200_000, requestor="cpu0",
                hops=[("bridge", 100), ("l2", 150)],
            )],
            mshr_counts={"l2": 2},
            rtl=[{"name": "rtlc", "inflight": 1, "mem_resps": 0,
                  "ticks": 9}],
            dram=[{"name": "dram0", "reads_queued": 1,
                   "writes_queued": 0, "retries_pending": 0}],
            event_head=(123_400, "watchdog"),
            events_fired_in_window=0,
            rejects_in_window=5,
        )

    def test_round_trip_format_is_byte_identical(self):
        from repro.resilience.watchdog import HangReport

        report = self._report()
        clone = HangReport.from_json(report.to_json())
        assert clone == report
        assert clone.format() == report.format()
        assert clone.to_json() == report.to_json()

    def test_round_trip_minimal_report(self):
        from repro.resilience.watchdog import HangReport

        report = HangReport(tick=1, kind="livelock", reason="spin",
                            strikes=2, check_interval_ticks=10)
        clone = HangReport.from_json(report.to_json())
        assert clone == report
        assert clone.format() == report.format()
