"""IdealMemory: the normalization baseline."""

from repro.soc.interconnect.xbar import Crossbar
from repro.soc.mem.ideal import IdealMemory
from repro.soc.packet import MemCmd, Packet
from repro.soc.ports import RequestPort
from repro.soc.simobject import Simulation


def driver(sim, peer):
    times = []
    port = RequestPort(
        "drv",
        recv_timing_resp=lambda pkt: (times.append((pkt, sim.now)), True)[1],
        recv_req_retry=lambda: None,
    )
    port.connect(peer)
    return port, times


class TestIdealMemory:
    def test_fixed_latency(self):
        sim = Simulation()
        mem = IdealMemory(sim, "m", latency_cycles=3)
        port, times = driver(sim, mem.port)
        port.send_timing_req(Packet(MemCmd.ReadReq, 0, 64))
        sim.run(until=10**6)
        assert times[0][1] == 3 * 500  # 3 cycles at 2 GHz

    def test_unbounded_concurrency(self):
        """All outstanding requests complete after one latency."""
        sim = Simulation()
        mem = IdealMemory(sim, "m", latency_cycles=2)
        port, times = driver(sim, mem.port)
        for i in range(50):
            assert port.send_timing_req(Packet(MemCmd.ReadReq, i * 64, 64))
        sim.run(until=10**6)
        assert len(times) == 50
        assert all(t == 2 * 500 for _, t in times)

    def test_write_data_stored(self):
        sim = Simulation()
        mem = IdealMemory(sim, "m")
        port, times = driver(sim, mem.port)
        port.send_timing_req(
            Packet(MemCmd.WriteReq, 0x40, 4, data=b"\xde\xad\xbe\xef")
        )
        sim.run(until=10**6)
        assert mem.physmem.read(0x40, 4) == b"\xde\xad\xbe\xef"
        assert len(times) == 1  # write acked

    def test_writeback_has_no_response(self):
        sim = Simulation()
        mem = IdealMemory(sim, "m")
        port, times = driver(sim, mem.port)
        port.send_timing_req(Packet(MemCmd.WritebackDirty, 0x40, 64))
        sim.run(until=10**6)
        assert times == []

    def test_multichannel_ports_interleave(self):
        sim = Simulation()
        mem = IdealMemory(sim, "m", channels=4)
        xbar = Crossbar(sim, "x")
        port, times = driver(sim, xbar.new_cpu_port())
        mem.connect_xbar(xbar)
        for i in range(8):
            port.send_timing_req(Packet(MemCmd.ReadReq, i * 64, 64))
            sim.run(until=sim.now + 10**5)
        assert len(times) == 8
        assert mem.st_reads.value() == 8

    def test_stats(self):
        sim = Simulation()
        mem = IdealMemory(sim, "m")
        port, _ = driver(sim, mem.port)
        port.send_timing_req(Packet(MemCmd.ReadReq, 0, 64))
        port.send_timing_req(Packet(MemCmd.WriteReq, 64, 64, data=b"\0" * 64))
        sim.run(until=10**6)
        assert mem.st_reads.value() == 1
        assert mem.st_writes.value() == 1
        assert mem.st_bytes.value() == 128
