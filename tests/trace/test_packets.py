"""Packet-lifetime tracking: hops, histograms, Perfetto spans."""

from repro.soc.packet import MemCmd, Packet
from repro.soc.simobject import Simulation
from repro.trace import ChromeTracer, packets as pkttrace
from repro.trace.flags import enable, set_chrome_tracer


class TestRecordHop:
    def test_untracked_packet_allocates_nothing(self):
        pkt = Packet(MemCmd.ReadReq, 0x100, 8)
        assert pkt.hops is None
        assert pkt.birth_tick is None

    def test_first_hop_fixes_birth_tick(self):
        pkt = Packet(MemCmd.ReadReq, 0x100, 8)
        pkt.record_hop("cpu0", 1000)
        pkt.record_hop("l1d0", 1500)
        assert pkt.birth_tick == 1000
        assert pkt.hops == [("cpu0", 1000), ("l1d0", 1500)]


class TestFinish:
    def test_samples_per_hop_latency_histograms(self):
        sim = Simulation()
        pkt = Packet(MemCmd.ReadReq, 0x40, 8, requestor="cpu0")
        pkt.record_hop("cpu0", 0)
        pkt.record_hop("xbar", 100_000)     # cpu0 -> xbar: 100 ns
        pkt.record_hop("dram", 300_000)     # xbar -> dram: 200 ns
        pkttrace.finish(pkt, sim, 500_000, "cpu0")  # dram -> back: 200 ns
        flat = sim.root_stats.dump()
        assert flat["system.pkttrace.hop_cpu0::count"] == 1
        assert flat["system.pkttrace.hop_cpu0::mean"] == 100.0
        assert flat["system.pkttrace.hop_xbar::mean"] == 200.0
        assert flat["system.pkttrace.hop_dram::mean"] == 200.0
        assert pkt.hops is None  # journey consumed

    def test_finish_without_hops_is_noop(self):
        sim = Simulation()
        pkt = Packet(MemCmd.ReadReq, 0x40, 8)
        pkttrace.finish(pkt, sim, 100, "cpu0")
        assert "pkttrace" not in str(sorted(sim.root_stats.dump()))

    def test_emits_journey_and_segment_spans(self):
        sim = Simulation()
        tracer = ChromeTracer()
        set_chrome_tracer(tracer)
        pkt = Packet(MemCmd.ReadReq, 0x80, 64, requestor="rtl0")
        pkt.record_hop("rtl0", 0)
        pkt.record_hop("dram", 1_000_000)
        pkttrace.finish(pkt, sim, 2_000_000, "rtl0")
        spans = [e for e in tracer.events if e["ph"] == "X"]
        journey = [s for s in spans if "ReadReq" in s["name"]]
        assert len(journey) == 1
        assert journey[0]["ts"] == 0.0
        assert journey[0]["dur"] == 2.0
        assert journey[0]["args"]["hops"] == 3
        assert {s["name"] for s in spans if s is not journey[0]} == {
            "rtl0", "dram"
        }

    def test_stat_group_reused_across_packets(self):
        sim = Simulation()
        for tick in (100_000, 200_000):
            pkt = Packet(MemCmd.ReadReq, 0x40, 8)
            pkt.record_hop("cpu0", 0)
            pkttrace.finish(pkt, sim, tick, "cpu0")
        flat = sim.root_stats.dump()
        assert flat["system.pkttrace.hop_cpu0::count"] == 2


class TestEndToEnd:
    def test_soc_run_produces_hop_histograms(self):
        from repro.soc.cpu import load
        from repro.soc.system import SoC, SoCConfig

        enable("Packet")
        import io

        from repro.trace.flags import set_sink

        set_sink(io.StringIO())
        soc = SoC(SoCConfig(num_cores=1, memory="DDR4-1ch"))
        soc.cores[0].run_stream([load(i * 64) for i in range(200)])
        soc.run_until_done()
        flat = soc.sim.root_stats.dump()
        hop_keys = [k for k in flat if ".pkttrace.hop_" in k]
        assert hop_keys, "instrumented components recorded no hops"
        # the core is a terminal consumer, so its hop stat must exist
        assert any("hop_cpu0" in k for k in hop_keys)
        counts = [flat[k] for k in hop_keys if k.endswith("::count")]
        assert sum(counts) > 0

    def test_coherent_run_records_the_l1_and_the_directory(self):
        """The coherence layer is on the packet's path like any other:
        a core's access is stamped by its L1D (the shared cache core's
        accept prologue) and the L1's miss by the directory — and with
        the flag off nothing about the run moves."""
        from repro.soc.system import SoC, SoCConfig
        from repro.workloads.sharing import sharing_benchmark

        def run():
            soc = SoC(SoCConfig(num_cores=2, memory="DDR4-1ch",
                                coherent=True))
            for core, stream in zip(soc.cores, sharing_benchmark(2, iters=20)):
                core.run_stream(stream)
            soc.run_until_done()
            return soc.sim.stats_dump()

        plain = run()
        assert not any(".pkttrace." in k for k in plain)

        enable("Packet")
        traced = run()
        hops = {k.split(".pkttrace.hop_")[1].split("::")[0]
                for k in traced if ".pkttrace.hop_" in k}
        assert {"cpu0", "cpu1", "l1d", "l2dir"} <= hops, sorted(hops)
        assert traced["system.pkttrace.hop_l1d::count"] > 0
        assert traced["system.pkttrace.hop_l2dir::count"] > 0
        assert {k: v for k, v in traced.items()
                if ".pkttrace." not in k} == plain
