"""Crossbar: routing, interleaving, queueing, retries, response paths."""

import pytest

from repro.soc.interconnect.xbar import AddrRange, Crossbar
from repro.soc.mem.ideal import IdealMemory
from repro.soc.packet import MemCmd, Packet
from repro.soc.ports import RequestPort, ResponsePort
from repro.soc.simobject import Simulation


class TestAddrRange:
    def test_plain_containment(self):
        r = AddrRange(0x1000, 0x2000)
        assert r.contains(0x1000)
        assert r.contains(0x1FFF)
        assert not r.contains(0x2000)
        assert not r.contains(0xFFF)

    def test_interleaved_matching(self):
        r0 = AddrRange(0, 1 << 32, intlv_count=2, intlv_match=0)
        r1 = AddrRange(0, 1 << 32, intlv_count=2, intlv_match=1)
        assert r0.contains(0) and not r1.contains(0)
        assert r1.contains(64) and not r0.contains(64)
        assert r0.contains(128)

    def test_interleave_within_bounds_only(self):
        r = AddrRange(0x1000, 0x2000, intlv_count=2, intlv_match=0)
        assert not r.contains(0x2040)


class TestRouting:
    def test_requests_route_by_range(self):
        sim = Simulation()
        xbar = Crossbar(sim, "x")
        received = {0: [], 1: []}

        def sink(idx):
            return ResponsePort(
                f"sink{idx}",
                recv_timing_req=lambda pkt: (received[idx].append(pkt), True)[1],
            )

        drv = RequestPort("drv", recv_timing_resp=lambda pkt: True,
                          recv_req_retry=lambda: None)
        drv.connect(xbar.new_cpu_port())
        xbar.new_mem_port(AddrRange(0, 0x1000)).connect(sink(0))
        xbar.new_mem_port(AddrRange(0x1000, 0x2000)).connect(sink(1))

        drv.send_timing_req(Packet(MemCmd.ReadReq, 0x500, 8))
        drv.send_timing_req(Packet(MemCmd.ReadReq, 0x1500, 8))
        sim.run(until=10**6)
        assert len(received[0]) == 1 and len(received[1]) == 1

    def test_unroutable_address_raises(self):
        sim = Simulation()
        xbar = Crossbar(sim, "x")
        xbar.new_mem_port(AddrRange(0, 0x1000))
        with pytest.raises(ValueError):
            xbar.route(0x5000)

    def test_response_returns_to_originating_port(self):
        sim = Simulation()
        xbar = Crossbar(sim, "x")
        mem = IdealMemory(sim, "mem", latency_cycles=1)
        got = {0: [], 1: []}
        drvs = []
        for i in range(2):
            drv = RequestPort(
                f"drv{i}",
                recv_timing_resp=lambda pkt, i=i: (got[i].append(pkt), True)[1],
                recv_req_retry=lambda: None,
            )
            drv.connect(xbar.new_cpu_port())
            drvs.append(drv)
        xbar.new_mem_port().connect(mem.port)
        drvs[0].send_timing_req(Packet(MemCmd.ReadReq, 0x0, 8))
        drvs[1].send_timing_req(Packet(MemCmd.ReadReq, 0x40, 8))
        sim.run(until=10**6)
        assert len(got[0]) == 1 and len(got[1]) == 1

    def test_sender_state_restored(self):
        sim = Simulation()
        xbar = Crossbar(sim, "x")
        mem = IdealMemory(sim, "mem", latency_cycles=1)
        seen = []
        drv = RequestPort(
            "drv",
            recv_timing_resp=lambda pkt: (seen.append(pkt), True)[1],
            recv_req_retry=lambda: None,
        )
        drv.connect(xbar.new_cpu_port())
        xbar.new_mem_port().connect(mem.port)
        pkt = Packet(MemCmd.ReadReq, 0x40, 8)
        pkt.push_state("mine")
        drv.send_timing_req(pkt)
        sim.run(until=10**6)
        assert seen[0].pop_state() == "mine"


class TestFlowControl:
    def test_queue_full_rejects_and_retries(self):
        sim = Simulation()
        xbar = Crossbar(sim, "x", queue_depth=2)
        mem = IdealMemory(sim, "mem", latency_cycles=1)
        retried = []
        drv = RequestPort(
            "drv",
            recv_timing_resp=lambda pkt: True,
            recv_req_retry=lambda: retried.append(True),
        )
        drv.connect(xbar.new_cpu_port())
        xbar.new_mem_port().connect(mem.port)
        results = [
            drv.send_timing_req(Packet(MemCmd.ReadReq, i * 64, 8))
            for i in range(4)
        ]
        assert results.count(False) >= 1
        assert xbar.st_rejects.value() >= 1
        sim.run(until=10**6)
        assert retried

    def test_latency_applied(self):
        sim = Simulation()
        xbar = Crossbar(sim, "x", latency_cycles=2)
        arrival = []
        sink = ResponsePort(
            "s", recv_timing_req=lambda pkt: (arrival.append(sim.now), True)[1]
        )
        drv = RequestPort("d", recv_timing_resp=lambda pkt: True,
                          recv_req_retry=lambda: None)
        drv.connect(xbar.new_cpu_port())
        xbar.new_mem_port().connect(sink)
        drv.send_timing_req(Packet(MemCmd.ReadReq, 0, 8))
        sim.run(until=10**6)
        # 2GHz clock: 2 cycles = 1000 ticks minimum
        assert arrival[0] >= 1000

    def test_blocked_response_path_drains_on_retry(self):
        sim = Simulation()
        xbar = Crossbar(sim, "x")
        mem = IdealMemory(sim, "mem", latency_cycles=1)
        accept = {"ok": False}
        got = []

        def recv_resp(pkt):
            if accept["ok"]:
                got.append(pkt)
                return True
            return False

        drv = RequestPort("d", recv_timing_resp=recv_resp,
                          recv_req_retry=lambda: None)
        cpu_port = xbar.new_cpu_port()
        drv.connect(cpu_port)
        xbar.new_mem_port().connect(mem.port)
        drv.send_timing_req(Packet(MemCmd.ReadReq, 0, 8))
        sim.run(until=10**6)
        assert got == []  # response rejected
        accept["ok"] = True
        drv.send_retry_resp()
        assert len(got) == 1

    def test_functional_routes_through(self):
        sim = Simulation()
        xbar = Crossbar(sim, "x")
        mem = IdealMemory(sim, "mem")
        drv = RequestPort("d", recv_timing_resp=lambda pkt: True,
                          recv_req_retry=lambda: None)
        drv.connect(xbar.new_cpu_port())
        xbar.new_mem_port().connect(mem.port)
        mem.physmem.write(0x40, b"\x77" * 8)
        pkt = Packet(MemCmd.ReadReq, 0x40, 8)
        drv.send_functional(pkt)
        assert pkt.data == b"\x77" * 8


class TestStats:
    def test_forwarding_counters(self):
        sim = Simulation()
        xbar = Crossbar(sim, "x")
        mem = IdealMemory(sim, "mem", latency_cycles=1)
        drv = RequestPort("d", recv_timing_resp=lambda pkt: True,
                          recv_req_retry=lambda: None)
        drv.connect(xbar.new_cpu_port())
        xbar.new_mem_port().connect(mem.port)
        for i in range(5):
            drv.send_timing_req(Packet(MemCmd.ReadReq, i * 64, 8))
            sim.run(until=sim.now + 10**5)
        assert xbar.st_reqs.value() == 5
        assert xbar.st_resps.value() == 5
