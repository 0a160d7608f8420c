"""Event queue: ordering, priorities, cancellation, run-until semantics."""

import pytest
from hypothesis import given, strategies as st

from repro.soc.event import (
    ClockDomain,
    Event,
    EventPriority,
    EventQueue,
    frequency_to_period,
)
from repro.soc.simobject import SimObject


class TestScheduling:
    def test_events_fire_in_time_order(self):
        q = EventQueue()
        fired = []
        for t in (50, 10, 30):
            q.schedule_fn(lambda t=t: fired.append(t), t)
        q.run()
        assert fired == [10, 30, 50]

    def test_same_tick_insertion_order(self):
        q = EventQueue()
        fired = []
        for i in range(5):
            q.schedule_fn(lambda i=i: fired.append(i), 100)
        q.run()
        assert fired == [0, 1, 2, 3, 4]

    def test_priority_orders_within_tick(self):
        q = EventQueue()
        fired = []
        q.schedule_fn(lambda: fired.append("stats"), 10, EventPriority.STATS)
        q.schedule_fn(lambda: fired.append("clock"), 10, EventPriority.CLOCK)
        q.schedule_fn(lambda: fired.append("default"), 10)
        q.run()
        assert fired == ["clock", "default", "stats"]

    def test_cur_tick_advances_to_event_time(self):
        q = EventQueue()
        seen = []
        q.schedule_fn(lambda: seen.append(q.cur_tick), 123)
        q.run()
        assert seen == [123]
        assert q.cur_tick == 123

    def test_schedule_in_past_rejected(self):
        q = EventQueue()
        q.schedule_fn(lambda: None, 100)
        q.run()
        with pytest.raises(ValueError):
            q.schedule_fn(lambda: None, 50)

    def test_double_schedule_rejected(self):
        q = EventQueue()
        ev = Event(lambda: None, "e")
        q.schedule(ev, 10)
        with pytest.raises(RuntimeError):
            q.schedule(ev, 20)

    def test_event_can_be_rescheduled_after_firing(self):
        q = EventQueue()
        count = []
        ev = Event(lambda: count.append(1), "tick")
        q.schedule(ev, 10)
        q.run()
        q.schedule(ev, 20)
        q.run()
        assert len(count) == 2

    def test_events_scheduled_during_execution(self):
        q = EventQueue()
        fired = []

        def first():
            fired.append("first")
            q.schedule_fn(lambda: fired.append("second"), q.cur_tick + 5)

        q.schedule_fn(first, 10)
        q.run()
        assert fired == ["first", "second"]
        assert q.cur_tick == 15


class TestCancellation:
    def test_deschedule_prevents_firing(self):
        q = EventQueue()
        fired = []
        ev = Event(lambda: fired.append(1), "e")
        q.schedule(ev, 10)
        q.deschedule(ev)
        q.run()
        assert fired == []

    def test_deschedule_unscheduled_rejected(self):
        q = EventQueue()
        ev = Event(lambda: None, "e")
        with pytest.raises(RuntimeError):
            q.deschedule(ev)

    def test_reschedule_moves_event(self):
        q = EventQueue()
        seen = []
        ev = Event(lambda: seen.append(q.cur_tick), "e")
        q.schedule(ev, 10)
        q.reschedule(ev, 99)
        q.run()
        assert seen == [99]

    def test_len_counts_only_live_events(self):
        q = EventQueue()
        ev = Event(lambda: None, "e")
        q.schedule(ev, 10)
        q.schedule_fn(lambda: None, 20)
        assert len(q) == 2
        q.deschedule(ev)
        assert len(q) == 1
        assert not q.empty()

    def test_len_tracks_fired_events(self):
        q = EventQueue()
        for t in (10, 20, 30):
            q.schedule_fn(lambda: None, t)
        q.run(until=25)
        assert len(q) == 1
        q.run()
        assert len(q) == 0 and q.empty()


class TestCompaction:
    def test_churn_does_not_grow_heap_unboundedly(self):
        q = EventQueue()
        ev = Event(lambda: None, "churny")
        q.schedule(ev, 1)
        for t in range(2, 5002):
            q.reschedule(ev, t)
        # 5000 reschedules leave one live event; without compaction the
        # heap would hold ~5000 dead entries.
        assert len(q) == 1
        assert len(q._heap) <= 2 * EventQueue.COMPACT_MIN
        assert q.compactions > 0

    def test_events_survive_compaction(self):
        q = EventQueue()
        fired = []
        keepers = [
            q.schedule_fn(lambda t=t: fired.append(t), 10_000 + t)
            for t in range(5)
        ]
        ev = Event(lambda: fired.append(-1), "churny")
        q.schedule(ev, 1)
        for t in range(2, 500):
            q.reschedule(ev, t)
        q.deschedule(ev)
        assert q.compactions > 0
        assert len(q) == len(keepers)
        q.run()
        assert fired == list(range(5))

    def test_small_heaps_never_compact(self):
        q = EventQueue()
        ev = Event(lambda: None, "e")
        q.schedule(ev, 1)
        for t in range(2, EventQueue.COMPACT_MIN // 2):
            q.reschedule(ev, t)
        assert q.compactions == 0

    def test_deschedule_during_callback_keeps_queue_consistent(self):
        # A callback that deschedules enough events to trigger a
        # compaction while run() holds its heap alias.
        q = EventQueue()
        fired = []
        victims = [
            q.schedule_fn(lambda: fired.append("victim"), 1000 + t)
            for t in range(200)
        ]
        survivor = q.schedule_fn(lambda: fired.append("survivor"), 5000)

        def purge():
            for v in victims:
                q.deschedule(v)
            fired.append("purge")

        q.schedule_fn(purge, 10)
        q.run()
        assert fired == ["purge", "survivor"]
        assert q.compactions > 0
        assert q.empty()
        assert not survivor.scheduled


class TestSameTimestampOrdering:
    """Same-tick CLOCK events (the tick events of several RTL models on
    one clock) fire in insertion order under the tuple-heap fast path —
    the order multi-NVDLA results and checkpoint bytes depend on."""

    def test_same_tick_clock_events_fire_in_insertion_order(self):
        q = EventQueue()
        fired = []
        for i in range(4):
            q.schedule_fn(lambda i=i: fired.append(i), 500,
                          EventPriority.CLOCK, name=f"rtl{i}")
        q.run()
        assert fired == [0, 1, 2, 3]

    def test_same_tick_order_survives_reschedule_cycle(self):
        # A tick event that reschedules itself (the RTLObject pattern)
        # keeps firing after every other same-tick member scheduled
        # earlier in that cycle, for every cycle.
        q = EventQueue()
        fired = []
        evs = [Event(None, f"rtl{i}") for i in range(3)]

        def make_cb(i):
            def cb():
                fired.append((q.cur_tick, i))
                if q.cur_tick < 30:
                    q.schedule(evs[i], q.cur_tick + 10, EventPriority.CLOCK)
            return cb

        for i, ev in enumerate(evs):
            ev.callback = make_cb(i)
            q.schedule(ev, 10, EventPriority.CLOCK)
        q.run()
        assert fired == [(t, i) for t in (10, 20, 30) for i in range(3)]

    def test_same_tick_order_survives_compaction(self):
        # Threshold-triggered compaction rebuilds the heap; seq numbers
        # survive, so same-(tick, priority) order must be unchanged.
        q = EventQueue()
        fired = []
        for i in range(5):
            q.schedule_fn(lambda i=i: fired.append(i), 10_000,
                          EventPriority.CLOCK, name=f"rtl{i}")
        churn = Event(lambda: None, "churny")
        q.schedule(churn, 1)
        for t in range(2, 500):
            q.reschedule(churn, t)
        q.deschedule(churn)
        assert q.compactions > 0
        q.run()
        assert fired == [0, 1, 2, 3, 4]


class TestRunUntil:
    def test_until_stops_before_boundary_events(self):
        q = EventQueue()
        fired = []
        q.schedule_fn(lambda: fired.append(10), 10)
        q.schedule_fn(lambda: fired.append(20), 20)
        q.run(until=20)
        assert fired == [10]
        assert q.cur_tick == 20
        q.run()
        assert fired == [10, 20]

    def test_until_advances_time_with_empty_queue(self):
        q = EventQueue()
        q.run(until=500)
        assert q.cur_tick == 500

    def test_max_events_limit(self):
        q = EventQueue()
        fired = []
        for t in range(10):
            q.schedule_fn(lambda t=t: fired.append(t), t + 1)
        q.run(max_events=3)
        assert fired == [0, 1, 2]

    def test_run_resumable(self):
        q = EventQueue()
        fired = []
        for t in (5, 15, 25):
            q.schedule_fn(lambda t=t: fired.append(t), t)
        q.run(until=10)
        q.run(until=20)
        q.run()
        assert fired == [5, 15, 25]

    def test_executed_counter(self):
        q = EventQueue()
        for t in range(4):
            q.schedule_fn(lambda: None, t + 1)
        q.run()
        assert q.executed == 4


class TestExitRequest:
    """``request_exit``: the run ends after the current tick's events."""

    def test_same_tick_events_of_every_priority_run_first(self):
        q = EventQueue()
        fired = []
        q.schedule_fn(lambda: fired.append("clock"), 10, EventPriority.CLOCK)

        def requester():
            fired.append("requester")
            q.request_exit()
            # scheduled *after* the request, for this very tick
            q.schedule_fn(lambda: fired.append("late"), 10,
                          EventPriority.MINIMUM)

        q.schedule_fn(requester, 10, EventPriority.DEFAULT)
        q.schedule_fn(lambda: fired.append("default"), 10)
        q.schedule_fn(lambda: fired.append("stats"), 10, EventPriority.STATS)
        q.schedule_fn(lambda: fired.append("max"), 10, EventPriority.MAXIMUM)
        q.schedule_fn(lambda: fired.append("next"), 11, EventPriority.MINIMUM)
        assert q.run(until=1000) == 10
        assert fired == ["clock", "requester", "late", "default", "stats",
                         "max"]

    def test_cur_tick_is_the_exit_tick_not_until(self):
        q = EventQueue()
        q.schedule_fn(q.request_exit, 40)
        q.schedule_fn(lambda: None, 5000)
        assert q.run(until=1000) == 40
        assert q.cur_tick == 40

    def test_cur_tick_is_the_exit_tick_when_the_queue_drains(self):
        q = EventQueue()
        q.schedule_fn(q.request_exit, 40)
        assert q.run(until=1000) == 40
        # the request was consumed: an empty run advances to until again
        assert q.run(until=1000) == 1000

    def test_later_events_survive_and_the_next_run_continues(self):
        q = EventQueue()
        fired = []
        q.schedule_fn(q.request_exit, 10)
        for t in (20, 30):
            q.schedule_fn(lambda t=t: fired.append(t), t)
        q.run(until=100)
        assert fired == [] and len(q) == 2
        assert q.run(until=100) == 100
        assert fired == [20, 30]

    def test_request_survives_a_max_events_return(self):
        q = EventQueue()
        fired = []
        q.schedule_fn(q.request_exit, 10)
        q.schedule_fn(lambda: fired.append("same"), 10)
        q.schedule_fn(lambda: fired.append("later"), 20)
        q.run(max_events=1)
        assert fired == []
        assert q.run(until=100) == 10
        assert fired == ["same"]

    def test_request_inside_nested_service_one_ends_the_enclosing_run(self):
        # the checkpoint engine steps the queue with service_one from
        # inside an event; a request made there must end the outer run
        q = EventQueue()
        fired = []

        def stepper():
            assert q.service_one()      # runs the requester
            fired.append("stepper")

        q.schedule_fn(stepper, 10)
        q.schedule_fn(q.request_exit, 10)
        q.schedule_fn(lambda: fired.append("same"), 10, EventPriority.STATS)
        q.schedule_fn(lambda: fired.append("later"), 20)
        assert q.run(until=100) == 10
        assert fired == ["stepper", "same"]

    def test_request_from_service_one_outside_run_ends_the_next_run(self):
        q = EventQueue()
        fired = []
        q.schedule_fn(q.request_exit, 10)
        q.schedule_fn(lambda: fired.append("same"), 10)
        q.schedule_fn(lambda: fired.append("later"), 20)
        assert q.service_one()
        assert q.service_one() and fired == ["same"]   # not stopped by it
        assert q.run(until=100) == 10
        assert fired == ["same"]
        assert q.run(until=100) == 100 and fired == ["same", "later"]

    def test_request_leaves_nothing_in_the_queue(self):
        q = EventQueue()
        q.schedule_fn(lambda: None, 20)
        q.request_exit()
        assert len(q) == 1 and [e[3].name for e in q.live_entries()] == ["fn"]

    def test_clear_drops_a_pending_request(self):
        q = EventQueue()
        q.request_exit()
        q.clear()
        q.schedule_fn(lambda: None, 20)
        assert q.run(until=100) == 100

    def test_simulation_delegates(self, sim):
        sim.eventq.schedule_fn(sim.request_exit, 30)
        sim.eventq.schedule_fn(lambda: None, 60)
        assert sim.run(until=1000) == 30
        assert sim.now == 30


class TestTaggedEvents:
    """``SimObject.sched_ckpt``: a tagged one-shot is its heap entry and
    nothing else, so whatever ends it ends every reference to it."""

    class Payload:
        pass

    class Recorder(SimObject):
        def __init__(self, sim, name):
            super().__init__(sim, name)
            self.fired = []

        def ckpt_dispatch(self, kind, payload):
            self.fired.append((kind, payload, self.now))

    def _recorder(self, sim):
        return self.Recorder(sim, "rec")

    @staticmethod
    def _tagged(sim):
        return [(e[3].owner, *e[3].callback.args, e[3].name)
                for e in sim.eventq.live_entries() if e[3].owner is not None]

    def test_refused_schedule_leaves_nothing_pending(self, sim):
        import gc
        import weakref

        from repro.resilience.serialize import checkpoint_blockers

        obj = self._recorder(sim)
        payload = self.Payload()
        gone = weakref.ref(payload)
        sim.eventq.cur_tick = 100
        with pytest.raises(ValueError, match="cannot schedule rec.k at 50"):
            obj.sched_ckpt("k", payload, 50)
        del payload
        gc.collect()
        assert gone() is None, "the refused one-shot is still held somewhere"
        assert len(sim.eventq) == 0 and self._tagged(sim) == []
        assert checkpoint_blockers(sim) == []

    def test_fired_or_cleared_one_shots_are_not_reported(self, sim):
        import gc
        import weakref

        obj = self._recorder(sim)
        first, second = self.Payload(), self.Payload()
        refs = [weakref.ref(first), weakref.ref(second)]
        obj.sched_ckpt("a", first, 10)
        obj.sched_ckpt("b", second, 20, EventPriority.CLOCK, "rec.custom")
        assert self._tagged(sim) == [
            (obj, "a", first, "rec.a"), (obj, "b", second, "rec.custom")]
        sim.eventq.run(until=15)
        assert obj.fired == [("a", first, 10)]
        assert self._tagged(sim) == [(obj, "b", second, "rec.custom")]
        sim.eventq.clear()
        assert self._tagged(sim) == [] and len(sim.eventq) == 0
        sim.eventq.run()
        assert len(obj.fired) == 1
        obj.fired.clear()
        del first, second
        gc.collect()
        assert [r() for r in refs] == [None, None]

    def test_blockers_name_bare_closures_and_claim_every_tagged(self, sim):
        from repro.resilience.serialize import checkpoint_blockers

        obj = self._recorder(sim)
        for tick in (5, 5, 9):
            obj.sched_ckpt("k", tick, tick)
        assert checkpoint_blockers(sim) == []
        sim.eventq.schedule_fn(lambda: None, 7, name="anonymous")
        assert checkpoint_blockers(sim) == [
            "unclaimed event 'anonymous' at tick 7"]

    def test_restored_one_shot_fires_at_its_original_position(self, sim):
        """Same tick, same priority: only ``seq`` orders them, and a
        restored entry keeps the one it was saved with."""
        obj = self._recorder(sim)
        q = sim.eventq

        def named(tag):
            return Event(lambda: obj.fired.append(("named", tag, q.cur_tick)), tag)

        q.restore_entry(named("seq3"), 40, 0, 3)
        q.schedule_tagged(obj, "k", "seq2", 40, 0, "rec.k", seq=2)
        q.restore_entry(named("seq1"), 40, 0, 1)
        q.schedule_tagged(obj, "k", "clock", 40, EventPriority.CLOCK, "rec.k", seq=9)
        q.run()
        assert [p for _kind, p, _tick in obj.fired] == [
            "clock", "seq1", "seq2", "seq3"]
        assert q.cur_tick == 40
        obj.sched_ckpt("k", "next", 50)     # numbering resumes past seq 9
        assert q.live_entries()[0][2] == 10


    def test_no_call_site_builds_an_event_name_per_call(self):
        """Names are serialized and aggregated by: constants, one per
        object and kind, so no ``sched_ckpt(...)`` argument under
        ``src/repro`` may be an f-string."""
        import ast
        import pathlib

        import repro

        root = pathlib.Path(repro.__file__).resolve().parent
        calls = offenders = 0
        for path in sorted(root.rglob("*.py")):
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                if (isinstance(node, ast.Call)
                        and isinstance(node.func, ast.Attribute)
                        and node.func.attr == "sched_ckpt"):
                    calls += 1
                    args = [*node.args, *(k.value for k in node.keywords)]
                    offenders += any(
                        isinstance(sub, ast.JoinedStr)
                        for arg in args for sub in ast.walk(arg))
        assert calls >= 16 and offenders == 0


class TestClockDomain:
    def test_2ghz_period(self):
        assert frequency_to_period(2e9) == 500

    def test_1ghz_period(self):
        assert frequency_to_period(1e9) == 1000

    def test_nonpositive_frequency_rejected(self):
        with pytest.raises(ValueError):
            frequency_to_period(0)

    def test_cycle_tick_roundtrip(self):
        clk = ClockDomain(2e9)
        assert clk.cycles_to_ticks(7) == 3500
        assert clk.ticks_to_cycles(3500) == 7

    def test_next_edge_alignment(self):
        clk = ClockDomain(1e9)
        assert clk.next_edge(0) == 0
        assert clk.next_edge(1) == 1000
        assert clk.next_edge(1000) == 1000
        assert clk.next_edge(1001) == 2000

    @given(st.integers(min_value=0, max_value=10**12))
    def test_next_edge_is_aligned_and_not_before(self, now):
        clk = ClockDomain(2e9)
        edge = clk.next_edge(now)
        assert edge >= now
        assert edge % clk.period == 0
        assert edge - now < clk.period


@given(
    st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=1000),
            st.integers(min_value=-5, max_value=5),
        ),
        min_size=1,
        max_size=50,
    )
)
def test_property_events_fire_in_nondecreasing_order(spec):
    """Whatever is scheduled, callbacks observe non-decreasing time and
    (tick, priority) ordering."""
    q = EventQueue()
    observed = []
    for tick, prio in spec:
        q.schedule_fn(lambda t=tick, p=prio: observed.append((t, p)), tick, prio)
    q.run()
    assert observed == sorted(observed, key=lambda x: (x[0], x[1]))
