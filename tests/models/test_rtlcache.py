"""RTL cache use case (paper Fig. 2a): standalone RTL behaviour and
in-system integration with real data flowing through the hardware model."""

import pytest

from repro.models.rtlcache import (
    RTLCacheCohSharedLibrary,
    RTLCacheECCSharedLibrary,
    RTLCacheObject,
    RTLCacheSharedLibrary,
    load_rtl_cache_source,
)
from repro.soc.iomaster import IOMaster
from repro.soc.mem import DRAMController, IdealMemory, ddr4_2400
from repro.soc.simobject import Simulation


@pytest.fixture
def lib():
    lib = RTLCacheSharedLibrary(idxw=4)
    lib.reset()
    return lib


def tick(lib, **fields):
    return lib.output_spec.unpack(lib.tick(lib.input_spec.pack(**fields)))


WORDS = [0xA5A5_0000_0000_0000 + i for i in range(8)]


def fill_line(lib, addr, words=WORDS):
    out = tick(lib, req_valid=1, req_addr=addr)
    assert out["miss_valid"] == 1
    return tick(lib, req_valid=1, req_addr=addr, fill_valid=1,
                fill_data=words)


class TestStandaloneRTL:
    def test_source_is_real_verilog(self):
        src = load_rtl_cache_source()
        assert "module rtl_cache" in src and "always @(posedge clk)" in src

    def test_read_miss_then_fill_then_hits(self, lib):
        out = fill_line(lib, 0x1040)
        assert out["resp_valid"] == 1 and out["resp_was_hit"] == 0
        assert out["resp_rdata"] == WORDS[0]
        for w in range(8):
            out = tick(lib, req_valid=1, req_addr=0x1040 + 8 * w)
            assert out["resp_was_hit"] == 1
            assert out["resp_rdata"] == WORDS[w]

    def test_write_through_always_emitted(self, lib):
        out = tick(lib, req_valid=1, req_write=1, req_addr=0x2000,
                   req_wdata=0x1234)
        assert out["wt_valid"] == 1
        assert out["wt_addr"] == 0x2000 and out["wt_data"] == 0x1234
        assert out["resp_valid"] == 1  # write completes without allocation

    def test_write_hit_updates_stored_line(self, lib):
        fill_line(lib, 0x3000)
        tick(lib, req_valid=1, req_write=1, req_addr=0x3010,
             req_wdata=0xFEED)
        out = tick(lib, req_valid=1, req_addr=0x3010)
        assert out["resp_rdata"] == 0xFEED

    def test_conflict_eviction_by_index(self, lib):
        """Two addresses with the same index but different tags conflict."""
        fill_line(lib, 0x0000)
        other = [0xBEEF_0000_0000_0000 + i for i in range(8)]
        out = tick(lib, req_valid=1, req_addr=0x10000)  # same index 0
        assert out["miss_valid"] == 1
        tick(lib, req_valid=1, req_addr=0x10000, fill_valid=1,
             fill_data=other)
        # original line was displaced
        out = tick(lib, req_valid=1, req_addr=0x0000)
        assert out["resp_was_hit"] == 0

    def test_hit_miss_counters(self, lib):
        fill_line(lib, 0x4000)
        tick(lib, req_valid=1, req_addr=0x4000)
        tick(lib, req_valid=1, req_addr=0x4008)
        out = tick(lib, req_valid=1, req_addr=0x4010)
        assert out["hits"] == 3 and out["misses"] == 1

    def test_reset_invalidates(self, lib):
        fill_line(lib, 0x5000)
        lib.reset()
        out = tick(lib, req_valid=1, req_addr=0x5000)
        assert out["miss_valid"] == 1


@pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
    "known defect: the tag is req_addr[31:12], so below IDXW=6 lines "
    "1 KiB apart alias (ROADMAP item 1 re-pins the fix)"))
@pytest.mark.parametrize("cls", [
    RTLCacheSharedLibrary, RTLCacheECCSharedLibrary, RTLCacheCohSharedLibrary,
], ids=lambda cls: cls.__name__)
def test_lines_one_kib_apart_do_not_alias(cls):
    lib = cls(idxw=4)
    lib.reset()
    fill_line(lib, 0x0)
    out = tick(lib, req_valid=1, req_addr=0x400)  # same index, same tag
    assert out["resp_was_hit"] == 0 and out["miss_valid"] == 1


class TestInSystem:
    def _rig(self, mem_latency=3):
        sim = Simulation()
        rtlc = RTLCacheObject(sim, "rtlc")
        mem = IdealMemory(sim, "mem", latency_cycles=mem_latency)
        io = IOMaster(sim, "io")
        io.port.connect(rtlc.cpu_side[0])
        rtlc.mem_side[0].connect(mem.port)
        return sim, rtlc, mem, io

    def test_read_data_travels_through_rtl(self):
        sim, rtlc, mem, io = self._rig()
        mem.physmem.write(0x2000, bytes(range(64)))
        got = []
        io.read(0x2008, size=8, callback=lambda p: got.append(p.data))
        sim.run(until=10**7)
        rtlc.stop()
        assert got == [bytes(range(8, 16))]

    def test_write_through_reaches_memory(self):
        sim, rtlc, mem, io = self._rig()
        io.write(0x3000, (0xCAFE).to_bytes(8, "little"))
        sim.run(until=10**7)
        rtlc.stop()
        assert mem.physmem.read(0x3000, 8) == (0xCAFE).to_bytes(8, "little")

    def test_second_read_hits_in_rtl(self):
        sim, rtlc, mem, io = self._rig()
        done = []
        io.read(0x4000, size=8, callback=lambda p: done.append(1))
        io.read(0x4008, size=8, callback=lambda p: done.append(1))
        sim.run(until=10**7)
        rtlc.stop()
        assert len(done) == 2
        assert rtlc.library.sim.peek("hit_count") == 1
        assert rtlc.library.sim.peek("miss_count") == 1

    def test_works_against_dram(self):
        sim = Simulation()
        rtlc = RTLCacheObject(sim, "rtlc")
        dram = DRAMController(sim, "mem", ddr4_2400(1))
        io = IOMaster(sim, "io")
        io.port.connect(rtlc.cpu_side[0])
        rtlc.mem_side[0].connect(dram.port)
        dram.physmem.write(0x8000, b"\x42" * 64)
        got = []
        for i in range(8):
            io.read(0x8000 + 8 * i, size=8,
                    callback=lambda p: got.append(p.data))
        sim.run(until=10**8)
        rtlc.stop()
        assert got == [b"\x42" * 8] * 8
        assert rtlc.library.sim.peek("miss_count") == 1

    def test_stats_formulas_track_rtl_state(self):
        sim, rtlc, mem, io = self._rig()
        io.read(0x100, size=8)
        sim.run(until=10**7)
        rtlc.stop()
        assert rtlc.st_rtl_misses.value() == 1
