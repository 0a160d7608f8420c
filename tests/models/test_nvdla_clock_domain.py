"""The NVDLAs of a system tick from one clock-domain event.

``build_nvdla_system`` puts its instances on one ``ClockDomain``, whose
one event per edge ticks them in index order.  That is a pure speedup or
it is wrong, so the system is compared here against the same system
with each instance on a clock domain of its own (one tick event each).
"""

import gzip
import json

import pytest

from repro.bridge.rtl_object import RTLObject
from repro.bridge.shared_library import BehavioralSharedLibrary
from repro.bridge.structs import Field, StructSpec
from repro.dse import nvdla_system
from repro.dse.nvdla_system import build_nvdla_system
from repro.models.nvdla.rtl_object import NVDLARTLObject
from repro.resilience.serialize import CheckpointError
from repro.soc.event import ClockDomain
from repro.soc.packet import set_next_packet_id
from repro.soc.simobject import Simulation


class _OwnClock(NVDLARTLObject):
    """An instance that ignores the system's clock and builds its own."""

    def __init__(self, *args, clock=None, **kwargs):
        super().__init__(*args, **kwargs)


def _run(n_nvdla, memory, timed_load=False):
    set_next_packet_id(0)
    system = build_nvdla_system("sanity3", n_nvdla=n_nvdla, memory=memory,
                                max_inflight=240, timed_load=timed_load,
                                scale=0.2)
    end = system.run_to_completion()
    sim = system.soc.sim
    return {
        "end": end,
        "exec_ticks": [host.exec_ticks() for host in system.hosts],
        "stats": sim.stats_dump(),
        "executed": sim.eventq.executed,
        "events": len({rtl._tick_event for rtl in system.rtls}),
    }


def _own_clocks(monkeypatch, *args):
    with monkeypatch.context() as patch:
        patch.setattr(nvdla_system, "NVDLARTLObject", _OwnClock)
        return _run(*args)


@pytest.mark.parametrize("n_nvdla,memory,timed_load", [
    (4, "ideal", False),
    (4, "DDR4-4ch", False),
    (4, "HBM", False),
    (2, "DDR4-4ch", True),
])
def test_one_event_ends_where_one_event_per_instance_does(
        monkeypatch, n_nvdla, memory, timed_load):
    shared = _run(n_nvdla, memory, timed_load)
    own = _own_clocks(monkeypatch, n_nvdla, memory, timed_load)
    assert (shared["events"], own["events"]) == (1, n_nvdla)
    for key in ("end", "exec_ticks", "stats"):
        assert shared[key] == own[key], key
    assert shared["executed"] < own["executed"]


def test_exact_counts_of_the_4x_ddr4_4ch_point():
    """Events dispatched, exactly: 15 460 with one tick event per
    instance."""
    got = _run(4, "DDR4-4ch")
    assert got["end"] == 1_936_500
    assert got["executed"] == 9_652
    assert got["stats"]["system.nvdla0.ticks"] == 1_936


def test_format_3_checkpoint_is_refused(tmp_path):
    """Version 3 had one tick event per instance."""
    def system():
        built = build_nvdla_system("sanity3", 2, "DDR4-1ch", scale=0.2)
        for host in built.hosts:
            host.start()
        built.soc.sim.startup()
        return built

    saver = system()
    saver.soc.sim.run(until=200_000)
    path = tmp_path / "v3.ckpt"
    saver.soc.sim.save_checkpoint(str(path))
    doc = json.loads(gzip.open(path).read())
    assert doc["version"] == 7
    assert "tick" in doc["objects"]["nvdla0"]["named_events"]
    assert doc["objects"]["nvdla1"]["named_events"] == {}
    doc["version"] = 3
    with gzip.open(path, "wb") as fh:
        fh.write(json.dumps(doc).encode())
    with pytest.raises(CheckpointError,
                       match="version 3 != supported version 7"):
        system().soc.sim.restore(str(path))


# -- the domain ---------------------------------------------------------------


class _Quiet(BehavioralSharedLibrary):
    input_spec = StructSpec("q_in", [Field("x", 8)])
    output_spec = StructSpec("q_out", [Field("x", 8)])

    def tick(self, inputs):
        self.ticks += 1
        return (0,)


class _Member(RTLObject):
    """Logs every cycle it ticks."""

    def __init__(self, sim, name, clock, log):
        super().__init__(sim, name, _Quiet(), clock=clock)
        self.log = log

    def consume_output(self, outputs):
        self.log.append((self.now, self.name))


def _domain(*names):
    sim, log = Simulation(), []
    clock = ClockDomain(1e9, "clk")
    members = [_Member(sim, name, clock, log) for name in names]
    return sim, clock, members, log


def test_members_tick_in_registration_order_from_one_event():
    sim, clock, (a, b, c), log = _domain("a", "b", "c")
    sim.startup()
    sim.run(until=3_500)
    assert log == [(t, name) for t in (1_000, 2_000, 3_000)
                   for name in "abc"]
    assert clock.event.name == "a.tick"
    assert a._tick_event is b._tick_event is c._tick_event is clock.event
    assert sim.eventq.executed == 3


def test_a_stopped_member_is_skipped_and_the_last_stop_disarms():
    sim, clock, (a, b), log = _domain("a", "b")
    sim.startup()
    sim.run(until=1_500)
    a.stop()
    assert clock.event.scheduled
    sim.run(until=2_500)
    assert log[-1] == (2_000, "b") and log[-2] == (1_000, "b")
    b.stop()
    assert not clock.event.scheduled
    sim.run(until=5_000)
    assert log[-1] == (2_000, "b")
    assert (a.st_ticks.value(), b.st_ticks.value()) == (1, 2)


def test_a_member_stopped_by_an_earlier_one_in_the_same_edge_is_skipped():
    sim, clock, (a, b), log = _domain("a", "b")
    consume_a = a.consume_output

    def consume(outputs):
        consume_a(outputs)
        if a.now == 2_000:
            b.stop()

    a.consume_output = consume
    sim.startup()
    sim.run(until=3_500)
    assert [entry for entry in log if entry[1] == "b"] == [(1_000, "b")]
    assert [tick for tick, name in log if name == "a"] == [1_000, 2_000,
                                                           3_000]


class _Lagging(_Member):
    def lag_cycles(self):
        return 0


def test_a_lagging_model_keeps_its_own_event():
    sim, log = Simulation(), []
    clock = ClockDomain(1e9, "clk")
    lagging = _Lagging(sim, "w", clock, log)
    assert clock.members == [] and clock.event is None
    assert lagging._tick_event.name == "w.tick"


def test_a_domain_refuses_members_of_another_simulation():
    clock = ClockDomain(1e9, "clk")
    _Member(Simulation(), "a", clock, [])
    with pytest.raises(ValueError, match="another simulation"):
        _Member(Simulation(), "b", clock, [])
