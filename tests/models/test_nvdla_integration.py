"""NVDLA in the SoC: host app, traces, IRQ flow, in-flight caps, SRAM
ablation, output payloads."""

import pytest

from repro.dse.nvdla_system import build_nvdla_system
from repro.models.nvdla.rtl_object import output_pattern
from repro.models.nvdla.workloads import sanity3
from repro.models.nvdla.trace import RegWrite, Trace, WaitIrq


class TestTrace:
    def test_serialize_roundtrip(self):
        trace = sanity3(scale=0.1)
        cmds = Trace.deserialize_commands(trace.serialize())
        assert cmds == trace.commands()

    def test_command_stream_shape(self):
        trace = sanity3(scale=0.1)
        cmds = trace.commands()
        assert isinstance(cmds[-1], RegWrite)  # IRQ clear
        assert any(isinstance(c, WaitIrq) for c in cmds)

    def test_block_accounting(self):
        trace = sanity3(scale=0.25)
        layer = trace.layers[0]
        assert trace.total_read_blocks() == layer.in_blocks + layer.w_blocks
        assert trace.total_write_blocks() >= 1

    def test_bad_magic_rejected(self):
        with pytest.raises(ValueError):
            Trace.deserialize_commands(b"\0" * 16)


class TestEndToEnd:
    def test_single_instance_completes(self):
        system = build_nvdla_system("sanity3", n_nvdla=1, memory="HBM",
                                    max_inflight=64, scale=0.2)
        system.run_to_completion()
        host = system.hosts[0]
        assert host.done
        assert host.exec_ticks() > 0
        assert host.total_ticks() >= host.exec_ticks()
        rtl = system.rtls[0]
        trace = host.trace
        assert rtl.st_mem_reads.value() == trace.total_read_blocks()
        assert rtl.st_mem_writes.value() == trace.total_write_blocks()
        assert rtl.st_irqs.value() == 1

    def test_outputs_written_with_pattern(self):
        system = build_nvdla_system("sanity3", n_nvdla=1, memory="ideal",
                                    max_inflight=64, scale=0.1)
        system.run_to_completion()
        layer = system.hosts[0].trace.layers[0]
        got = system.soc.physmem.read(layer.out_addr, 64)
        assert got == output_pattern(layer.out_addr)
        assert got != b"\0" * 64

    def test_multiple_instances_isolated(self):
        system = build_nvdla_system("sanity3", n_nvdla=2, memory="HBM",
                                    max_inflight=64, scale=0.15)
        system.run_to_completion()
        assert all(h.done for h in system.hosts)
        l0 = system.hosts[0].trace.layers[0]
        l1 = system.hosts[1].trace.layers[0]
        assert l0.in_addr != l1.in_addr
        # each instance wrote its own output region
        for layer in (l0, l1):
            assert (
                system.soc.physmem.read(layer.out_addr, 64)
                == output_pattern(layer.out_addr)
            )

    def test_max_inflight_respected_under_timing(self):
        system = build_nvdla_system("sanity3", n_nvdla=1, memory="DDR4-1ch",
                                    max_inflight=8, scale=0.15)
        system.run_to_completion()
        assert system.rtls[0].st_inflight_peak.value() <= 8

    def test_low_inflight_slower(self):
        def t(mif):
            s = build_nvdla_system("sanity3", 1, "HBM", max_inflight=mif,
                                   scale=0.2)
            s.run_to_completion()
            return s.hosts[0].exec_ticks()

        assert t(2) > 2 * t(64)

    def test_timed_load_consumes_time(self):
        quick = build_nvdla_system("sanity3", 1, "HBM", max_inflight=64,
                                   scale=0.1, timed_load=False)
        quick.run_to_completion()
        slow = build_nvdla_system("sanity3", 1, "HBM", max_inflight=64,
                                  scale=0.1, timed_load=True)
        slow.run_to_completion()
        assert slow.hosts[0].total_ticks() > 2 * quick.hosts[0].total_ticks()
        # the host core actually executed the loader stores
        assert slow.soc.cores[0].st_stores.value() > 1000

    def test_sram_scratchpad_ablation_builds_and_runs(self):
        system = build_nvdla_system("sanity3", 1, "DDR4-1ch", max_inflight=64,
                                    scale=0.15, use_sram_scratchpad=True)
        system.run_to_completion()
        rtl = system.rtls[0]
        # activations rode the SRAMIF port
        assert rtl.st_mem_reads.value() > 0
        assert system.hosts[0].done

    def test_invalid_instance_count(self):
        with pytest.raises(ValueError):
            build_nvdla_system("sanity3", n_nvdla=0)

    def test_unknown_workload(self):
        with pytest.raises(KeyError):
            build_nvdla_system("resnet", n_nvdla=1)


class TestMultiLayerPipeline:
    def test_three_layers_three_interrupts(self):
        from repro.models.nvdla.workloads import googlenet_pipeline

        trace = googlenet_pipeline(scale=0.05)
        assert len(trace.layers) == 3
        system = build_nvdla_system("googlenet_pipeline", 1, "HBM",
                                    max_inflight=64, scale=0.05)
        system.run_to_completion()
        assert system.rtls[0].st_irqs.value() == 3
        assert system.hosts[0].done

    def test_layers_reconfigure_between_doorbells(self):
        from repro.models.nvdla.trace import RegWrite, WaitIrq
        from repro.models.nvdla.workloads import googlenet_pipeline

        cmds = googlenet_pipeline(scale=0.05).commands()
        doorbells = [i for i, c in enumerate(cmds)
                     if isinstance(c, RegWrite) and c.addr == 0x3C]
        waits = [i for i, c in enumerate(cmds) if isinstance(c, WaitIrq)]
        assert len(doorbells) == 3 and len(waits) == 3
        # each wait follows its doorbell; reconfig happens in between
        for db, w in zip(doorbells, waits):
            assert w == db + 1

    def test_total_blocks_sum_layers(self):
        from repro.models.nvdla.workloads import googlenet_pipeline

        trace = googlenet_pipeline(scale=0.05)
        assert trace.total_read_blocks() == sum(
            l.in_blocks + l.w_blocks for l in trace.layers
        )
