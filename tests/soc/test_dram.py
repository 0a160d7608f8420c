"""DRAM controller: presets, geometry, row-buffer behaviour, bandwidth,
queue backpressure and write draining."""

import pytest

from repro.soc.interconnect.xbar import Crossbar
from repro.soc.mem.dram import (
    BLOCK,
    DRAMController,
    MEMORY_PRESETS,
    ddr4_2400,
    gddr5,
    hbm,
)
from repro.soc.packet import MemCmd, Packet
from repro.soc.ports import RequestPort
from repro.soc.simobject import Simulation


class Driver:
    def __init__(self, sim, port_peer):
        self.sim = sim
        self.responses = []
        self.resp_times = []
        self.port = RequestPort(
            "drv",
            recv_timing_resp=self._on_resp,
            recv_req_retry=lambda: None,
        )
        self.port.connect(port_peer)

    def _on_resp(self, pkt):
        self.responses.append(pkt)
        self.resp_times.append(self.sim.now)
        return True

    def read(self, addr, size=64):
        return self.port.send_timing_req(
            Packet(MemCmd.ReadReq, addr, size, requestor="drv")
        )

    def write(self, addr, data):
        return self.port.send_timing_req(
            Packet(MemCmd.WriteReq, addr, len(data), data=data, requestor="drv")
        )

    def drain(self, ticks=10**8):
        self.sim.run(until=self.sim.now + ticks)


class TestPresets:
    def test_table1_bandwidths(self):
        assert ddr4_2400(1).peak_bw == pytest.approx(18.75)
        assert ddr4_2400(4).peak_bw == pytest.approx(75.0)
        assert gddr5().peak_bw == pytest.approx(112.0)
        assert hbm().peak_bw == pytest.approx(128.0)

    def test_table1_geometry(self):
        assert ddr4_2400().row_buffer_bytes == 8192
        assert gddr5().channels == 4
        assert gddr5().row_buffer_bytes == 2048
        assert hbm().channels == 8

    def test_table1_queues(self):
        cfg = ddr4_2400()
        assert cfg.read_queue == 64
        assert cfg.write_queue == 128

    def test_presets_table_complete(self):
        assert set(MEMORY_PRESETS) == {
            "DDR4-1ch", "DDR4-2ch", "DDR4-4ch", "GDDR5", "HBM"
        }

    def test_with_channels(self):
        cfg = ddr4_2400(1).with_channels(4)
        assert cfg.channels == 4
        assert "4ch" in cfg.name

    def test_burst_time(self):
        # 64B at 18.75 GB/s = 3.41ns
        assert ddr4_2400().burst_ns == pytest.approx(64 / 18.75)


class TestGeometryDecode:
    def test_channel_interleave_by_block(self):
        sim = Simulation()
        ctrl = DRAMController(sim, "m", ddr4_2400(4))
        assert ctrl.channel_of(0).index == 0
        assert ctrl.channel_of(BLOCK).index == 1
        assert ctrl.channel_of(4 * BLOCK).index == 0

    def test_bank_and_row_decode(self):
        sim = Simulation()
        ctrl = DRAMController(sim, "m", ddr4_2400(1))
        ch = ctrl.channels[0]
        b0, r0 = ch.decode(0)
        b1, r1 = ch.decode(8192)     # next row buffer -> next bank
        assert b0 != b1 or r0 != r1
        bN, rN = ch.decode(8192 * ctrl.cfg.banks_per_channel)
        assert bN == b0 and rN == r0 + 1


class TestTiming:
    def test_unloaded_read_latency_in_expected_range(self):
        sim = Simulation()
        ctrl = DRAMController(sim, "m", ddr4_2400(1))
        drv = Driver(sim, ctrl.port)
        drv.read(0)
        drv.drain()
        assert len(drv.responses) == 1
        lat_ns = drv.resp_times[0] / 1000
        # row miss: tRP+tRCD+tCAS (~42ns) + burst + frontend
        assert 40 <= lat_ns <= 80

    def test_row_hits_faster_than_conflicts(self):
        sim = Simulation()
        ctrl = DRAMController(sim, "m", ddr4_2400(1))
        drv = Driver(sim, ctrl.port)
        drv.read(0)
        drv.drain()
        drv.read(64)       # same row: hit
        drv.drain()
        assert ctrl.st_row_hits.value() == 1
        assert ctrl.st_row_conflicts.value() == 1

    def test_streaming_reaches_near_peak_bandwidth(self):
        sim = Simulation()
        ctrl = DRAMController(sim, "m", ddr4_2400(1))
        drv = Driver(sim, ctrl.port)
        n = 500
        issued = 0
        addr = 0

        def pump():
            nonlocal issued, addr
            while issued < n:
                if not drv.read(addr):
                    sim.eventq.schedule_fn(pump, sim.now + 10_000, name="pump")
                    return
                addr += 64
                issued += 1

        pump()
        while len(drv.responses) < n:
            drv.drain(10**7)
        elapsed_ns = drv.resp_times[-1] / 1000
        gbps = n * 64 / elapsed_ns
        assert gbps > 0.85 * 18.75, f"only {gbps:.1f} GB/s"

    def test_writes_acknowledged_quickly(self):
        sim = Simulation()
        ctrl = DRAMController(sim, "m", ddr4_2400(1))
        drv = Driver(sim, ctrl.port)
        drv.write(0, b"\x00" * 64)
        drv.drain(100_000)  # 100ns
        assert len(drv.responses) == 1

    def test_functional_write_visible_to_timing_read(self):
        sim = Simulation()
        ctrl = DRAMController(sim, "m", ddr4_2400(1))
        drv = Driver(sim, ctrl.port)
        ctrl.physmem.write(0x80, b"\x42" * 64)
        drv.read(0x80)
        drv.drain()
        assert drv.responses[0].data == b"\x42" * 64


class TestBackpressure:
    def test_read_queue_full_rejects(self):
        sim = Simulation()
        cfg = ddr4_2400(1)
        ctrl = DRAMController(sim, "m", cfg)
        drv = Driver(sim, ctrl.port)
        accepted = sum(drv.read(i * 64) for i in range(cfg.read_queue + 20))
        assert accepted <= cfg.read_queue + 2
        assert ctrl.st_rejected.value() > 0

    def test_retry_after_slot_frees(self):
        sim = Simulation()
        ctrl = DRAMController(sim, "m", ddr4_2400(1))
        retried = []
        drv = Driver(sim, ctrl.port)
        drv.port._recv_req_retry = lambda: retried.append(True)
        for i in range(80):
            drv.read(i * 64)
        drv.drain()
        assert retried

    def test_write_drain_under_write_burst(self):
        sim = Simulation()
        cfg = ddr4_2400(1)
        ctrl = DRAMController(sim, "m", cfg)
        drv = Driver(sim, ctrl.port)
        for i in range(110):
            drv.write(i * 64, b"\0" * 64)
        drv.drain()
        assert ctrl.st_writes_drained.value() == 110


class TestMultiChannel:
    def test_channels_serve_in_parallel(self):
        """4 channels stream markedly faster than 1 for spread traffic.

        A single requester is capped by its own 128-bit crossbar port
        (~32 GB/s at 2 GHz), so the expected speedup over DDR4-1ch's
        18.75 GB/s is ~1.7x, not 4x.
        """

        def stream_time(channels):
            sim = Simulation()
            ctrl = DRAMController(sim, "m", ddr4_2400(channels))
            xbar = Crossbar(sim, "x")
            drv = Driver(sim, xbar.new_cpu_port())
            ctrl.connect_xbar(xbar)
            n = 256
            state = {"issued": 0}

            def pump():
                while state["issued"] < n:
                    if not drv.read(state["issued"] * 64):
                        sim.eventq.schedule_fn(pump, sim.now + 5000, name="p")
                        return
                    state["issued"] += 1

            pump()
            while len(drv.responses) < n:
                drv.drain(10**7)
            return drv.resp_times[-1]

        t1 = stream_time(1)
        t4 = stream_time(4)
        assert t4 < t1 / 1.5, (t1, t4)
