"""SoC builder: Table 1 defaults, wiring, end-to-end workload runs."""

import pytest

from repro.soc.cpu import alu, load, store, uop
from repro.soc.system import SoC, SoCConfig


class TestTable1Defaults:
    def test_core_parameters(self):
        cfg = SoCConfig()
        assert cfg.num_cores == 8
        assert cfg.core.issue_width == 3
        assert cfg.core.rob_size == 192
        assert cfg.core.ldq_size == 48
        assert cfg.core.stq_size == 48
        assert cfg.freq_hz == 2e9

    def test_cache_parameters(self):
        cfg = SoCConfig()
        assert cfg.l1i.size == 64 * 1024 and cfg.l1i.assoc == 4
        assert cfg.l1i.latency == 2 and cfg.l1i.mshrs == 8
        assert cfg.l1d.mshrs == 24
        assert cfg.l2.size == 256 * 1024 and cfg.l2.assoc == 8
        assert cfg.l2.latency == 9 and cfg.l2.prefetcher
        assert cfg.llc.size == 16 * 1024 * 1024 and cfg.llc.assoc == 16
        assert cfg.llc.latency == 20

    def test_xbar_parameters(self):
        cfg = SoCConfig()
        assert cfg.xbar_latency == 2


class TestConstruction:
    def test_default_build_has_all_components(self):
        soc = SoC(SoCConfig(num_cores=2, memory="DDR4-1ch"))
        assert len(soc.cores) == 2
        assert len(soc.l1ds) == 2 and len(soc.l1is) == 2 and len(soc.l2s) == 2
        assert soc.llc is not None
        assert soc.mem_ctrl is not None

    def test_memory_presets_buildable(self):
        for mem in ("DDR4-1ch", "DDR4-4ch", "GDDR5", "HBM", "ideal"):
            soc = SoC(SoCConfig(num_cores=1, memory=mem))
            assert soc.mem_ctrl is not None

    def test_no_llc_configuration(self):
        soc = SoC(SoCConfig(num_cores=1, memory="DDR4-1ch", with_llc=False))
        assert soc.llc is None
        assert soc.sysbus is soc.membus

    def test_unknown_memory_rejected(self):
        with pytest.raises(KeyError):
            SoC(SoCConfig(num_cores=1, memory="DDR7"))


class TestExecution:
    def test_single_core_workload(self, small_soc):
        soc = small_soc
        soc.cores[0].run_stream([load(i * 8) for i in range(200)])
        soc.run_until_done()
        assert soc.cores[0].st_committed.value() == 200
        # accesses hit the hierarchy
        assert soc.l1ds[0].st_misses.value() > 0

    def test_multicore_shared_llc(self):
        soc = SoC(SoCConfig(num_cores=2, memory="DDR4-2ch"))
        # both cores read the same region: second core's misses should
        # partially hit in the shared LLC
        addrs = [i * 64 for i in range(100)]
        soc.cores[0].run_stream([load(a) for a in addrs])
        soc.run_until_done(cores=[soc.cores[0]])
        llc_hits_before = soc.llc.st_hits.value()
        soc.cores[1].run_stream([load(a) for a in addrs])
        soc.run_until_done(cores=[soc.cores[1]])
        assert soc.llc.st_hits.value() > llc_hits_before

    def test_writes_reach_physical_memory(self, small_soc):
        soc = small_soc
        soc.cores[0].run_stream([store(0x4000 + i * 8) for i in range(10)])
        soc.run_until_done()
        # store µops write zero payloads; functional image must have frames
        assert soc.physmem.footprint() >= 0  # no crash; data path exercised
        assert soc.cores[0].st_stores.value() == 10

    def test_timeout_raises(self, small_soc):
        soc = small_soc

        def endless():
            while True:
                yield alu(1)

        soc.cores[0].run_stream(endless())
        with pytest.raises(TimeoutError):
            soc.run_until_done(max_ticks=10**6)

    def test_load_memory_backdoor(self, small_soc):
        soc = small_soc
        soc.load_memory(0x8000, b"\x11\x22\x33")
        assert soc.physmem.read(0x8000, 3) == b"\x11\x22\x33"

    def test_stats_dump_has_component_entries(self, small_soc):
        soc = small_soc
        soc.cores[0].run_stream([alu(1)] * 10)
        soc.run_until_done()
        flat = soc.sim.stats_dump()
        assert any("cpu0" in k for k in flat)
        assert any("l1d0" in k for k in flat)
        assert any("mem" in k for k in flat)

    def test_fetch_uops_go_through_the_l1i(self, small_soc):
        """No bundled workload emits FETCH µops; a hand-written stream
        still drives the core's icache port and the L1I behind it."""
        soc = small_soc
        lines = [0x1000, 0x1040, 0x1000, 0x1080, 0x1040]
        stream = []
        for line in lines:
            stream += [uop.fetch(line), alu(1), alu(1)]
        soc.cores[0].run_stream(stream)
        soc.run_until_done()
        assert soc.cores[0].st_fetches.value() == len(lines)
        assert soc.l1is[0].st_misses.value() == len(set(lines))
        assert soc.l1is[0].st_hits.value() == len(lines) - len(set(lines))
        assert soc.cores[0].st_committed.value() == 2 * len(lines)
