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
        """Aggregate peak GB/s: a 64 B burst per channel per burst time."""
        def peak(cfg):
            return cfg.channels * BLOCK / cfg.burst_ns

        assert peak(ddr4_2400(1)) == pytest.approx(18.75)
        assert peak(ddr4_2400(4)) == pytest.approx(75.0)
        assert peak(gddr5()) == pytest.approx(112.0)
        assert peak(hbm()) == pytest.approx(128.0)

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
        cfg = MEMORY_PRESETS["DDR4-4ch"]()
        assert cfg.channels == 4
        assert cfg == ddr4_2400(4) and "4ch" in cfg.name

    def test_burst_time(self):
        # 64B at 18.75 GB/s = 3.41ns
        assert ddr4_2400().burst_ns == pytest.approx(64 / 18.75)


class TestGeometryDecode:
    def test_channel_interleave_by_block(self):
        sim = Simulation()
        ctrl = DRAMController(sim, "m", ddr4_2400(4))
        drv = Driver(sim, ctrl.port)
        for addr in (0, BLOCK, 4 * BLOCK):
            assert drv.read(addr)
        assert [len(ch.read_q) for ch in ctrl.channels] == [2, 1, 0, 0]

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


class TestDecodeOnce:
    """A packet's ``(bank, row)`` is decoded once, when it is admitted;
    the map is derived from the queues and rebuilt on restore."""

    @staticmethod
    def _build():
        sim = Simulation()
        ctrl = DRAMController(sim, "m", ddr4_2400(1))
        return sim, ctrl, Driver(sim, ctrl.port)

    def test_queued_packets_carry_their_decode(self):
        sim, ctrl, drv = self._build()
        for i in range(30):
            drv.read(i * 3 * 8192 % (1 << 22))
            drv.write(i * 5 * 8192 % (1 << 22) + 64, b"\1" * 64)
        ch = ctrl.channels[0]
        queued = [*ch.read_q, *ch.write_q]
        assert queued and set(ch.where) == set(queued)
        assert all(ch.where[p] == ch.decode(p.addr) for p in queued)
        drv.drain()
        assert not ch.read_q and not ch.write_q and ch.where == {}

    def test_restore_rebuilds_the_map(self, tmp_path):
        sim, ctrl, drv = self._build()
        for i in range(40):
            drv.read(i * 3 * 8192 % (1 << 22))
        sim.run(until=sim.now + 20_000)
        ch = ctrl.channels[0]
        saved = [(p.addr, ch.where[p]) for p in ch.read_q]
        assert saved
        at = sim.save_checkpoint(tmp_path / "dram.ckpt")
        drv.drain()

        sim2, ctrl2, drv2 = self._build()
        sim2.restore(tmp_path / "dram.ckpt")
        ch2 = ctrl2.channels[0]
        assert [(p.addr, ch2.where[p]) for p in ch2.read_q] == saved
        assert set(ch2.where) == set(ch2.read_q)
        drv2.drain()
        assert drv2.resp_times == [t for t in drv.resp_times if t > at]
        assert ctrl2.st_row_hits.value() == ctrl.st_row_hits.value()


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
