"""NVDLA host application unit behaviour (trace load, CSB playback)."""

import hashlib

import pytest

from repro.dse.nvdla_system import build_nvdla_system
from repro.models.nvdla.host import TRACE_CMD_BASE, NVDLAHostApp
from repro.models.nvdla.trace import MAGIC
from repro.soc.packet import set_next_packet_id


class TestLoadPhase:
    def test_command_stream_lands_in_memory(self):
        system = build_nvdla_system("sanity3", 1, "ideal", scale=0.1)
        system.run_to_completion()
        word = system.soc.physmem.read_word(TRACE_CMD_BASE, 4)
        assert word == MAGIC

    def test_image_lands_in_memory(self):
        system = build_nvdla_system("sanity3", 1, "ideal", scale=0.1)
        system.run_to_completion()
        trace = system.hosts[0].trace
        addr, data = trace.mem_image[0]
        assert system.soc.physmem.read(addr, 32) == data[:32]

    def test_instances_use_distinct_command_regions(self):
        system = build_nvdla_system("sanity3", 2, "ideal", scale=0.1)
        system.run_to_completion()
        for i in range(2):
            base = TRACE_CMD_BASE + i * 0x10_0000
            assert system.soc.physmem.read_word(base, 4) == MAGIC


class TestLifecycle:
    def test_results_unavailable_before_completion(self):
        system = build_nvdla_system("sanity3", 1, "ideal", scale=0.1)
        host = system.hosts[0]
        with pytest.raises(RuntimeError):
            host.exec_ticks()

    def test_doorbell_after_load(self):
        system = build_nvdla_system("sanity3", 1, "ideal", scale=0.1,
                                    timed_load=True)
        system.run_to_completion()
        host = system.hosts[0]
        assert host.loaded
        assert host.start_tick is not None
        assert host.start_tick >= host.load_start_tick

    def test_accelerator_idle_after_completion(self):
        system = build_nvdla_system("sanity3", 1, "ideal", scale=0.1)
        system.run_to_completion()
        core = system.rtls[0].core
        assert not core.busy
        assert not core.irq_pending  # cleared by the trace's final command


class TestRunEndsWithTheWorkload:
    """``run_to_completion``: the system requests the exit itself."""

    @pytest.mark.parametrize("n_nvdla", [1, 4])
    def test_ends_when_the_last_csb_write_lands(self, n_nvdla):
        system = build_nvdla_system("sanity3", n_nvdla, "DDR4-4ch", scale=0.1)
        end = system.run_to_completion()
        sim = system.soc.sim
        assert end == sim.now
        last_irq = max(h.finish_tick for h in system.hosts)
        # IRQ_CLEAR crosses the IOMaster and the bus in a few cycles;
        # the run does not go on to some polling boundary after it
        assert last_irq < end <= last_irq + 10 * system.rtls[0].clock.period
        assert not system.soc.iomaster.busy
        for rtl, host in zip(system.rtls, system.hosts):
            assert not rtl.core.busy and not rtl.core.irq_pending
            assert not rtl._tick_event.scheduled
            # the DSE metric is still doorbell to interrupt
            assert host.exec_ticks() == host.finish_tick - host.start_tick

    def test_ends_at_the_interrupt_when_nothing_follows_it(self):
        system = build_nvdla_system("sanity3", 1, "ideal", scale=0.1)
        host = system.hosts[0]
        host._commands = host._commands[:-1]      # drop IRQ_CLEAR
        end = system.run_to_completion()
        assert end == host.finish_tick
        assert system.rtls[0].core.irq_pending

    def test_second_call_returns_at_once(self):
        system = build_nvdla_system("sanity3", 1, "ideal", scale=0.1)
        end = system.run_to_completion()
        executed = system.soc.sim.eventq.executed
        assert system.run_to_completion() == end
        assert system.soc.sim.eventq.executed == executed

    def test_later_events_stay_queued_for_a_following_run(self):
        system = build_nvdla_system("sanity3", 1, "DDR4-1ch", scale=0.1)
        end = system.run_to_completion()
        sim = system.soc.sim
        # the DRAM is still draining its write queue: those events are
        # neither run nor dropped by the exit
        pending = len(sim.eventq)
        assert pending > 0
        executed = sim.eventq.executed
        assert sim.run(until=end + 1_000_000) == end + 1_000_000
        assert sim.eventq.executed >= executed + pending

    def test_rerun_is_bit_identical(self, tmp_path):
        def run(tag):
            # the packet-id counter is process-global and checkpointed raw
            set_next_packet_id(0)
            system = build_nvdla_system("sanity3", 2, "DDR4-4ch", scale=0.2)
            sim = system.soc.sim
            for host in system.hosts:
                host.start()
            sim.startup()
            sim.run(until=500_000)
            mid, last = tmp_path / f"{tag}.mid", tmp_path / f"{tag}.end"
            assert sim.save_checkpoint(str(mid)) == 500_000
            end = system.run_to_completion()
            assert end > 500_000 and sim.save_checkpoint(str(last)) == end
            return (end, sim.stats_dump(),
                    hashlib.sha256(mid.read_bytes()).hexdigest(),
                    hashlib.sha256(last.read_bytes()).hexdigest())

        assert run("a") == run("b")

    def test_timeout_reports_where_each_instance_stands(self):
        system = build_nvdla_system("sanity3", 2, "DDR4-1ch", scale=0.1)
        with pytest.raises(TimeoutError) as err:
            system.run_to_completion(max_ticks=200_000)
        message = str(err.value)
        assert "within 200000 ticks" in message
        for rtl, host in zip(system.rtls, system.hosts):
            assert host.progress() in message
            assert f"{rtl.name}: command 13/14, waiting_irq=True, busy=True" \
                in message
        assert "blocks " in message and "inflight=" in message \
            and "csb_pending=0" in message
        assert system.soc.sim.now == 200_000
        # the partial run can be picked up again and finishes
        system.run_to_completion()
        assert all(h.done for h in system.hosts)
