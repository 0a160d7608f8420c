"""Discrete-event simulation core.

This is the substrate equivalent of gem5's ``EventQueue``/``EventManager``.
Time is measured in integer *ticks*; by convention 1 tick = 1 picosecond,
so a 2 GHz clock has a period of 500 ticks.  All simulated objects share a
single :class:`EventQueue` owned by the :class:`Simulation`.

Design notes
------------
* Events are plain ``(tick, priority, seq, handle)`` tuple heap entries —
  tuples compare element-wise in C, which is the hottest comparison in the
  whole simulator.  ``seq`` is a monotonically increasing insertion counter
  so that (a) events scheduled for the same tick and priority fire in
  insertion order (gem5 gives the same guarantee), which keeps simulations
  deterministic, and (b) heap comparisons never reach the (uncomparable)
  handle slot.
* Cancellation is *lazy*: :meth:`EventQueue.deschedule` marks the entry's
  :class:`_Handle` dead and the main loop skips it when popped.  This keeps
  scheduling O(log n) without a secondary index.  A live-entry counter
  makes ``len()``/``empty()`` O(1), and when dead entries outnumber live
  ones (heavy ``reschedule`` churn) the heap is compacted in one
  O(n) rebuild so it cannot grow without bound.
* Clock domains translate between cycles and ticks, and tick the objects
  that step every cycle of their clock (single-stepped RTL models) from
  one event per edge, in registration order.
"""

from __future__ import annotations

import heapq
from functools import partial
from time import perf_counter
from typing import Callable, Optional

from ..trace.flags import get_default_profiler

# Tick base: 1 tick == 1 ps.
TICKS_PER_SECOND = 10**12


def frequency_to_period(freq_hz: float) -> int:
    """Return the clock period in ticks for a frequency in Hz.

    >>> frequency_to_period(2e9)
    500
    """
    if freq_hz <= 0:
        raise ValueError(f"frequency must be positive, got {freq_hz}")
    return int(round(TICKS_PER_SECOND / freq_hz))


class EventPriority:
    """Relative ordering of events scheduled for the same tick.

    Mirrors gem5's priority bands: wakeups and dumps straddle the default
    simulation work so that, e.g., a stats dump scheduled "at tick T" sees
    all state produced by normal events at T.
    """

    MINIMUM = -100
    CLOCK = -20          # clock-edge events (RTL ticks, CPU cycles)
    DEFAULT = 0
    STATS = 50           # stat dump / visitors
    MAXIMUM = 100


class _Handle:
    """Mutable cancellation token riding in the last tuple slot.

    The heap orders on (tick, priority, seq); ``seq`` is unique so a
    comparison never falls through to the handle.

    A *tagged* one-shot (:meth:`EventQueue.schedule_tagged`) is nothing
    but its handle: ``owner`` (None for every other event) is the
    SimObject it fires on, and the checkpoint engine reads ``(kind,
    payload)`` back off ``callback.args``.
    """

    __slots__ = ("tick", "callback", "alive", "name", "owner")

    def __init__(
        self, tick: int, callback: Callable[[], None], name: str = "event",
        owner=None,
    ) -> None:
        self.tick = tick
        self.callback = callback
        self.alive = True
        self.name = name
        self.owner = owner


class Event:
    """Handle for a scheduled (or schedulable) callback.

    A handle can be rescheduled after it fires or is descheduled; it cannot
    be scheduled twice concurrently.
    """

    __slots__ = ("callback", "name", "_entry")

    def __init__(self, callback: Callable[[], None], name: str = "event"):
        self.callback = callback
        self.name = name
        self._entry: Optional[_Handle] = None

    @property
    def scheduled(self) -> bool:
        return self._entry is not None and self._entry.alive

    def when(self) -> int:
        if not self.scheduled:
            raise RuntimeError(f"{self.name} is not scheduled")
        assert self._entry is not None
        return self._entry.tick

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = f"@{self._entry.tick}" if self.scheduled else "idle"
        return f"<Event {self.name} {state}>"


class EventQueue:
    """A deterministic binary-heap event queue."""

    #: never compact heaps smaller than this — the O(n) rebuild would
    #: dominate the work it saves
    COMPACT_MIN = 64

    def __init__(self) -> None:
        self._heap: list[tuple[int, int, int, _Handle]] = []
        self._seq = 0
        self._live = 0
        # Tick after which run() returns (see request_exit), else None.
        self._exit_after: Optional[int] = None
        #: read-only to clients: the first tick the run() in progress
        #: will *not* execute (its ``until``); None when it has no bound
        #: and while events are stepped with service_one() outside a
        #: run.  An object that advances its own state past ``cur_tick``
        #: — an RTLObject running ahead, a core stepping over a stall —
        #: stops short of it, so that whoever regains control when the
        #: run returns finds every object at the tick the run ended on.
        self.until: Optional[int] = None
        self.cur_tick = 0
        # Number of callbacks actually executed (dead entries excluded).
        self.executed = 0
        # Number of threshold-triggered heap compactions (observability).
        self.compactions = 0
        # Optional host-time self-profiler (repro.trace): an object with
        # host_event(name, tick, t0_seconds, dur_seconds).  New queues
        # adopt the process-wide default installed by the CLI; None (the
        # default) keeps the dispatch loop's fast path.
        self.profiler = get_default_profiler()

    def __len__(self) -> int:
        return self._live

    def empty(self) -> bool:
        return self._live == 0

    def schedule(
        self,
        event: Event,
        tick: int,
        priority: int = EventPriority.DEFAULT,
    ) -> Event:
        """Schedule *event* at absolute time *tick*."""
        if tick < self.cur_tick:
            raise ValueError(
                f"cannot schedule {event.name} at {tick} "
                f"(current tick {self.cur_tick})"
            )
        entry = event._entry
        if entry is not None and entry.alive:
            raise RuntimeError(f"{event.name} is already scheduled")
        handle = event._entry = _Handle(tick, event.callback, event.name)
        self._live += 1
        seq = self._seq
        self._seq = seq + 1
        heapq.heappush(self._heap, (tick, priority, seq, handle))
        return event

    def schedule_fn(
        self,
        callback: Callable[[], None],
        tick: int,
        priority: int = EventPriority.DEFAULT,
        name: str = "fn",
    ) -> Event:
        """Convenience: wrap *callback* in a fresh :class:`Event`."""
        return self.schedule(Event(callback, name), tick, priority)

    def schedule_tagged(
        self, owner, kind: str, payload, tick: int, priority: int, name: str,
        seq: Optional[int] = None,
    ) -> None:
        """Push a one-shot firing ``owner.ckpt_dispatch(kind, payload)``.

        There is no :class:`Event`: the heap entry is the only place the
        one-shot lives, so once it fired or :meth:`clear` dropped it
        nothing refers to it.  With *seq* (checkpoint restore) the entry
        takes its checkpointed position, as in :meth:`restore_entry`.
        """
        if seq is None:
            if tick < self.cur_tick:
                raise ValueError(
                    f"cannot schedule {name} at {tick} "
                    f"(current tick {self.cur_tick})"
                )
            seq = self._seq
        if seq >= self._seq:
            self._seq = seq + 1
        self._live += 1
        callback = partial(owner.ckpt_dispatch, kind, payload)
        heapq.heappush(
            self._heap, (tick, priority, seq, _Handle(tick, callback, name, owner))
        )

    def deschedule(self, event: Event) -> None:
        if not event.scheduled:
            raise RuntimeError(f"{event.name} is not scheduled")
        assert event._entry is not None
        event._entry.alive = False
        event._entry = None
        self._live -= 1
        dead = len(self._heap) - self._live
        if dead >= self.COMPACT_MIN and dead * 2 > len(self._heap):
            self._compact()

    def _compact(self) -> None:
        """Drop dead entries and re-heapify (stable: seq survives).

        Mutates the heap list in place — ``run``/``service_one`` hold a
        local alias across callbacks, and a callback may deschedule its
        way into a compaction.
        """
        self._heap[:] = [entry for entry in self._heap if entry[3].alive]
        heapq.heapify(self._heap)
        self.compactions += 1

    def reschedule(
        self,
        event: Event,
        tick: int,
        priority: int = EventPriority.DEFAULT,
    ) -> Event:
        if event.scheduled:
            self.deschedule(event)
        return self.schedule(event, tick, priority)

    # -- checkpointing ---------------------------------------------------

    def live_entries(self) -> list[tuple[int, int, int, _Handle]]:
        """Live heap entries in firing order (checkpoint engine use)."""
        return sorted(
            (entry for entry in self._heap if entry[3].alive),
            key=lambda e: e[:3],
        )

    def clear(self) -> None:
        """Drop every pending event (checkpoint restore).

        Each handle is explicitly killed: Event objects out in component
        state still point at their handles, and a stale live handle would
        leave ``Event.scheduled`` True, making a later re-schedule raise.
        """
        for entry in self._heap:
            entry[3].alive = False
        self._heap.clear()
        self._live = 0
        self._exit_after = None

    def restore_entry(
        self, event: Event, tick: int, priority: int, seq: int
    ) -> Event:
        """Re-insert *event* with its original (tick, priority, seq).

        Unlike :meth:`schedule` this preserves the checkpointed sequence
        number, so same-tick/same-priority events fire in exactly the
        order they would have in the uninterrupted run.
        """
        if event.scheduled:
            raise RuntimeError(f"{event.name} is already scheduled")
        handle = _Handle(tick, event.callback, event.name)
        event._entry = handle
        heapq.heappush(self._heap, (tick, priority, seq, handle))
        if seq >= self._seq:
            self._seq = seq + 1
        self._live += 1
        return event

    def peek(self) -> Optional[tuple[int, str]]:
        """(tick, name) of the earliest live event, or None (diagnostics)."""
        heap = self._heap
        while heap and not heap[0][3].alive:
            heapq.heappop(heap)
        if not heap:
            return None
        return (heap[0][0], heap[0][3].name)

    def next_event_tick(self) -> Optional[int]:
        """Tick of the earliest live event, or None if the queue is empty.

        Used by batching clients (e.g. an RTLObject advancing many RTL
        cycles per event-queue pop): the earliest live entry bounds how
        far simulated state can be advanced without missing an
        interaction.  Dead (lazily-cancelled) entries at the top are
        discarded on the way.
        """
        heap = self._heap
        while heap and not heap[0][3].alive:
            heapq.heappop(heap)
        return heap[0][0] if heap else None

    def next_clock_tick(self, after: int) -> Optional[int]:
        """Tick of the earliest live event later than *after* that fires
        no later in its tick than a clock edge (priority ``CLOCK`` or
        earlier), or None.

        For a clocked object stepping over its own edges: such an event
        is already queued, so it precedes any edge event the object arms
        now for that tick — as it precedes the one the object would arm
        a cycle before — and it may read the object's state.  The object
        therefore dispatches that edge for real.  A scan of the heap,
        O(n): call it once per window, not per cycle.
        """
        best = None
        clock = EventPriority.CLOCK
        for tick, priority, _seq, handle in self._heap:
            if (priority <= clock and tick > after and handle.alive
                    and (best is None or tick < best)):
                best = tick
        return best

    # -- main loop -------------------------------------------------------

    def request_exit(self) -> None:
        """End the run at the current tick (gem5's ``exitSimLoop``).

        :meth:`run` returns once every event of the current tick, at
        every priority, has fired, with ``cur_tick`` left at this tick,
        not at ``until``.  Later events stay queued and the next
        :meth:`run` resumes with them.  The request is a value the loop
        compares with, not an event: there is nothing in the queue for a
        checkpoint to serialize, and :meth:`service_one` (the checkpoint
        engine's stepping) neither consumes it nor stops for it, so a
        request made there ends the enclosing or the next :meth:`run`.
        """
        self._exit_after = self.cur_tick

    def service_one(self) -> bool:
        """Pop and run the next live event.  Returns False if none remain."""
        heap = self._heap
        while heap:
            tick, _priority, _seq, handle = heapq.heappop(heap)
            if not handle.alive:
                continue
            handle.alive = False
            self._live -= 1
            self.cur_tick = tick
            self.executed += 1
            prof = self.profiler
            if prof is None:
                handle.callback()
            else:
                t0 = perf_counter()
                handle.callback()
                prof.host_event(handle.name, tick, t0, perf_counter() - t0)
            return True
        return False

    def run(self, until: Optional[int] = None, max_events: Optional[int] = None) -> int:
        """Run events until the queue drains, *until* is reached, an
        event calls :meth:`request_exit`, or *max_events* callbacks have
        executed.  Returns the current tick.

        When ``until`` is given, events scheduled exactly at ``until`` are
        *not* executed; the queue is left positioned at ``until`` so the
        simulation can be resumed (gem5's ``simulate(n)`` semantics).
        """
        outer = self.until
        self.until = until
        try:
            return self._run(until, max_events)
        finally:
            self.until = outer

    def _run(self, until: Optional[int], max_events: Optional[int]) -> int:
        executed = 0
        heap = self._heap
        while heap:
            tick, _priority, _seq, handle = heap[0]
            if not handle.alive:
                heapq.heappop(heap)
                continue
            exit_after = self._exit_after
            if exit_after is not None and tick > exit_after:
                self._exit_after = None
                return self.cur_tick
            if until is not None and tick >= until:
                self.cur_tick = until
                return self.cur_tick
            if max_events is not None and executed >= max_events:
                return self.cur_tick
            heapq.heappop(heap)
            handle.alive = False
            self._live -= 1
            self.cur_tick = tick
            self.executed += 1
            executed += 1
            prof = self.profiler
            if prof is None:
                handle.callback()
            else:
                t0 = perf_counter()
                handle.callback()
                prof.host_event(handle.name, tick, t0, perf_counter() - t0)
        if self._exit_after is not None:
            self._exit_after = None
        elif until is not None and until > self.cur_tick:
            self.cur_tick = until
        return self.cur_tick


class ClockDomain:
    """Converts between cycles and ticks for one clock, and ticks the
    objects that step every cycle of it from one event per edge.

    gem5 analogue: ``ClockDomain`` + ``ClockedObject`` helpers.

    A *member* (:meth:`add_member`) has a ``running`` flag and a
    ``clock_edge()`` method.  At every edge the domain's :attr:`event`
    calls ``clock_edge()`` on each member whose flag is set, in
    registration order, then re-arms itself for the next edge if any
    flag is still set.  A member clears its flag when it stops; when
    the last one has, the event is disarmed (:meth:`release`).
    """

    def __init__(self, freq_hz: float, name: str = "clk") -> None:
        self.name = name
        self.freq_hz = freq_hz
        self.period = frequency_to_period(freq_hz)
        #: objects ticked by :attr:`event`, in registration order
        self.members: list = []
        #: the edge event, created by the first member and named after it
        self.event: Optional[Event] = None
        self._eventq: Optional[EventQueue] = None

    def add_member(self, obj) -> Event:
        """Tick *obj* (a SimObject) at this clock's edges; returns the
        domain's event."""
        eventq = obj.sim.eventq
        if self.event is None:
            self._eventq = eventq
            self.event = Event(self._edge, f"{obj.name}.tick")
        elif eventq is not self._eventq:
            raise ValueError(
                f"clock domain {self.name!r} already ticks objects of "
                f"another simulation; give {obj.name} its own"
            )
        self.members.append(obj)
        return self.event

    def _edge(self) -> None:
        live = False
        for obj in self.members:
            if obj.running:
                obj.clock_edge()
                live = live or obj.running
        if live:
            eventq = self._eventq
            eventq.schedule(
                self.event, eventq.cur_tick + self.period, EventPriority.CLOCK
            )

    def start(self) -> None:
        """Arm the event for the first edge after now, unless it is armed."""
        if not self.event.scheduled:
            eventq = self._eventq
            eventq.schedule(
                self.event, self.next_edge(eventq.cur_tick) + self.period,
                EventPriority.CLOCK,
            )

    def release(self) -> None:
        """Disarm the event if no member is left to tick (a member
        stopped)."""
        event = self.event
        if event.scheduled and not any(obj.running for obj in self.members):
            self._eventq.deschedule(event)

    def cycles_to_ticks(self, cycles: int) -> int:
        return cycles * self.period

    def ticks_to_cycles(self, ticks: int) -> int:
        return ticks // self.period

    def next_edge(self, now: int) -> int:
        """First tick >= *now* aligned to a rising edge of this clock."""
        rem = now % self.period
        return now if rem == 0 else now + (self.period - rem)

    def __repr__(self) -> str:  # pragma: no cover
        return f"<ClockDomain {self.name} {self.freq_hz / 1e9:.3f} GHz>"
