"""RTLObject: ports, tick cadence/frequency ratio, struct exchange,
memory-side issue with in-flight caps, TLB hookup."""

import pytest

from repro.bridge.rtl_object import CPU_SIDE_PORTS, MEM_SIDE_PORTS, RTLObject
from repro.bridge.shared_library import BehavioralSharedLibrary
from repro.bridge.structs import Field, StructSpec
from repro.soc.event import ClockDomain
from repro.soc.mem.ideal import IdealMemory
from repro.soc.packet import MemCmd, Packet
from repro.soc.ports import RequestPort
from repro.soc.simobject import Simulation
from repro.soc.tlb import TLB, PageTable


class EchoLibrary(BehavioralSharedLibrary):
    """Counts its own ticks; echoes an input field."""

    input_spec = StructSpec("i", [Field("x", 8)])
    output_spec = StructSpec("o", [Field("x", 8), Field("ticks", 32)])

    def __init__(self):
        super().__init__()
        self.reset_calls = 0

    def reset(self):
        super().reset()
        self.reset_calls += 1

    def step(self, inputs):
        return {"x": inputs["x"], "ticks": self.ticks}


class Probe(RTLObject):
    """RTLObject that records consumed outputs."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.seen = []
        self.x_in = 0

    def build_input(self):
        return self.library.input_spec.pack(x=self.x_in)

    def consume_output(self, outputs):
        self.seen.append(outputs)


class TestLifecycle:
    def test_reset_called_at_startup(self, sim):
        obj = Probe(sim, "rtl", EchoLibrary())
        sim.run(until=10_000)
        assert obj.library.reset_calls == 1

    def test_ticks_at_default_clock(self, sim):
        obj = Probe(sim, "rtl", EchoLibrary())
        sim.run(until=sim.default_clock.cycles_to_ticks(10) + 1)
        assert 9 <= obj.st_ticks.value() <= 11

    def test_frequency_ratio(self, sim):
        """A 1 GHz RTL model ticks half as often as the 2 GHz default."""
        fast = Probe(sim, "fast", EchoLibrary())
        slow = Probe(sim, "slow", EchoLibrary(),
                     clock=ClockDomain(1e9, "slow_clk"))
        sim.run(until=100_000)  # 100 ns
        assert abs(fast.st_ticks.value() - 2 * slow.st_ticks.value()) <= 2

    def test_stop_halts_ticking(self, sim):
        obj = Probe(sim, "rtl", EchoLibrary())
        sim.run(until=10_000)
        obj.stop()
        ticks = obj.st_ticks.value()
        sim.run(until=50_000)
        assert obj.st_ticks.value() == ticks

    def test_struct_exchange_roundtrip(self, sim):
        obj = Probe(sim, "rtl", EchoLibrary())
        obj.x_in = 0x5A
        sim.run(until=5_000)
        assert obj.seen
        assert all(o["x"] == 0x5A for o in obj.seen)

    def test_output_decoded_only_when_its_bytes_change(self, sim):
        """Decoding is a pure function of the bytes: a model that holds
        its outputs is decoded once, one that moves them every time —
        and the consumer runs on every tick either way."""
        class Steady(BehavioralSharedLibrary):
            input_spec = StructSpec("i", [Field("x", 8)])
            output_spec = StructSpec("o", [Field("x", 8)])

            def step(self, inputs):
                return {"x": inputs["x"]}

        for library, moves in ((Steady(), False), (EchoLibrary(), True)):
            obj = Probe(Simulation(), "rtl", library)
            spec, decodes = library.output_spec, []
            library.output_spec = StructSpec(spec.name, spec.fields)
            library.output_spec.unpack = (
                lambda data: decodes.append(data) or spec.unpack(data))
            obj.x_in = 7
            obj.sim.run(until=10_000)
            ticks = obj.st_ticks.value()
            assert ticks >= 10 and len(obj.seen) == ticks
            assert len(decodes) == (ticks if moves else 1)
            obj.x_in = 9            # the bytes move: decoded again, once
            obj.sim.run(until=20_000)
            assert len(obj.seen) == obj.st_ticks.value() > ticks
            assert obj.seen[-1]["x"] == 9 and obj.seen[ticks - 1]["x"] == 7
            assert len(decodes) == (obj.st_ticks.value() if moves else 2)

    def test_port_counts_match_paper(self, sim):
        obj = Probe(sim, "rtl", EchoLibrary())
        assert len(obj.cpu_side) == CPU_SIDE_PORTS == 2
        assert len(obj.mem_side) == MEM_SIDE_PORTS == 2


class TestCpuSide:
    def test_requests_queue_and_respond(self, sim):
        class Responder(Probe):
            def build_input(self):
                while self.cpu_req_queue:
                    self.respond_cpu(self.cpu_req_queue.popleft(),
                                     b"\xAB\xCD\x00\x00")
                return super().build_input()

        obj = Responder(sim, "rtl", EchoLibrary())
        got = []
        drv = RequestPort("drv", recv_timing_resp=lambda p: (got.append(p), True)[1],
                          recv_req_retry=lambda: None)
        drv.connect(obj.cpu_side[0])
        drv.send_timing_req(Packet(MemCmd.ReadReq, 0x0, 4))
        sim.run(until=20_000)
        assert len(got) == 1
        assert got[0].data == b"\xAB\xCD\x00\x00"
        assert obj.st_cpu_reqs.value() == 1


class TestMemSide:
    def _rig(self, sim, max_inflight=None, mem_latency=3):
        obj = Probe(sim, "rtl", EchoLibrary(), max_inflight=max_inflight)
        mems = []
        for i in range(2):
            mem = IdealMemory(sim, f"mem{i}", latency_cycles=mem_latency)
            obj.mem_side[i].connect(mem.port)
            mems.append(mem)
        return obj, mems

    def test_read_issues_and_response_queued(self, sim):
        obj, mems = self._rig(sim)
        sim.startup()
        assert obj.send_mem_read(0x100, 64)
        sim.run(until=sim.now + 100_000)
        assert obj.st_mem_reads.value() == 1
        assert obj.st_mem_resps.value() == 1

    def test_write_with_data_lands_in_memory(self, sim):
        obj, mems = self._rig(sim)
        sim.startup()
        obj.send_mem_write(0x200, 8, data=b"ABCDEFGH")
        sim.run(until=sim.now + 100_000)
        assert mems[0].physmem.read(0x200, 8) == b"ABCDEFGH"

    def test_port_selection(self, sim):
        obj, mems = self._rig(sim)
        sim.startup()
        obj.send_mem_read(0x0, 64, port_idx=1)
        sim.run(until=sim.now + 100_000)
        assert mems[1].st_reads.value() == 1
        assert mems[0].st_reads.value() == 0

    def test_max_inflight_enforced(self, sim):
        obj, _ = self._rig(sim, max_inflight=2, mem_latency=100)
        sim.startup()
        assert obj.send_mem_read(0x0, 64)
        assert obj.send_mem_read(0x40, 64)
        assert not obj.can_issue_mem()
        assert not obj.send_mem_read(0x80, 64)
        sim.run(until=sim.now + 10**6)
        assert obj.inflight == 0
        assert obj.can_issue_mem()

    def test_inflight_peak_stat(self, sim):
        obj, _ = self._rig(sim, mem_latency=50)
        sim.startup()
        for i in range(5):
            obj.send_mem_read(i * 64, 64)
        sim.run(until=sim.now + 10**6)
        assert obj.st_inflight_peak.value() == 5

    def test_meta_travels_with_response(self, sim):
        obj, _ = self._rig(sim)
        sim.startup()
        obj.send_mem_read(0x40, 64, meta={"seq": 1234, "addr": "any key"})
        sim.run(until=sim.now + 10**6)
        meta = obj.mem_resp_queue[0].meta
        assert meta["seq"] == 1234 and meta["addr"] == "any key"

    def test_unknown_keyword_is_an_error_not_metadata(self, sim):
        obj, _ = self._rig(sim)
        sim.startup()
        with pytest.raises(TypeError, match="port_index"):
            obj.send_mem_read(0x40, 64, port_index=1)
        with pytest.raises(TypeError, match="seq"):
            obj.send_mem_write(0x40, 8, data=bytes(8), seq=1)
        assert obj.inflight == 0


class TestTLBIntegration:
    def test_translated_issue(self, sim):
        pt = PageTable()
        pt.map(0x10000, 0x80000, 0x1000)
        tlb = TLB(sim, "tlb", page_table=pt)
        obj = Probe(sim, "rtl", EchoLibrary(), tlb=tlb)
        mem = IdealMemory(sim, "mem")
        obj.mem_side[0].connect(mem.port)
        obj.mem_side[1].connect(IdealMemory(sim, "mem2").port)
        sim.startup()
        obj.send_mem_write(0x10040, 4, data=b"\x01\x02\x03\x04", translate=True)
        sim.run(until=sim.now + 10**6)
        assert mem.physmem.read(0x80040, 4) == b"\x01\x02\x03\x04"
        assert tlb.misses.value() == 1

    def test_translate_without_tlb_rejected(self, sim):
        obj = Probe(sim, "rtl", EchoLibrary())
        mem = IdealMemory(sim, "mem")
        obj.mem_side[0].connect(mem.port)
        with pytest.raises(RuntimeError):
            obj.send_mem_read(0x0, 64, translate=True)
