"""SimObject base class and the Simulation container.

The gem5 analogue of ``SimObject`` + ``Root`` + ``simulate()``.  A
:class:`Simulation` owns the event queue, the root stat group, and the
object hierarchy; :class:`SimObject` provides naming, clock domain access,
stat registration and the two-phase ``init``/``startup`` protocol that
components use to schedule their first events.
"""

from __future__ import annotations

import time
from collections import deque
from functools import partial
from heapq import heappush
from operator import attrgetter
from typing import Callable, NamedTuple, Optional

from .event import ClockDomain, Event, EventPriority, EventQueue, new_handle
from .stats import StatGroup

#: ``hook(sim)`` callables parked by code that cannot reach the
#: :class:`Simulation` an experiment builds internally (the CLI's trace
#: window and resilience flags).  The first simulation that starts runs
#: them in order, after every object's ``startup()``, and empties the
#: list; forked pool workers inherit whatever is left in it.
startup_hooks: list = []


class CycleBudgetExceeded(TimeoutError):
    """A run's simulated-cycle budget ran out (livelock)."""


class WallClockExceeded(TimeoutError):
    """A run's host wall-clock backstop ran out."""


class Simulation:
    """Top-level container: event queue + object tree + root stats."""

    def __init__(self, name: str = "system") -> None:
        self.name = name
        self.eventq = EventQueue()
        self.root_stats = StatGroup(name)
        self.objects: list[SimObject] = []
        self._started = False
        self.default_clock = ClockDomain(2e9, "cpu_clk")
        # Non-SimObject checkpoint participants (physmem, page tables,
        # host applications) keyed by a stable name.
        self.extras: dict[str, object] = {}

    # -- object registry --------------------------------------------------

    def register(self, obj: "SimObject") -> None:
        self.objects.append(obj)

    def register_extra(self, name: str, obj: object) -> None:
        """Register a non-SimObject checkpoint participant.

        *obj* is a :class:`Checkpointed`, or exposes the same
        ``serialize(ctx)``/``unserialize(state, ctx)``.  Registration
        order (like the SimObject list) must be identical in the saving
        and restoring process.
        """
        if name in self.extras:
            raise ValueError(f"duplicate checkpoint extra {name!r}")
        self.extras[name] = obj

    def find(self, path: str) -> "SimObject":
        for obj in self.objects:
            if obj.path() == path:
                return obj
        raise KeyError(path)

    # -- time --------------------------------------------------------------

    @property
    def now(self) -> int:
        return self.eventq.cur_tick

    # -- run protocol -------------------------------------------------------

    def startup(self) -> None:
        """Run init() then startup() across the tree (idempotent)."""
        if self._started:
            return
        for obj in self.objects:
            obj.init()
        for obj in self.objects:
            obj.startup()
        self._started = True
        hooks = startup_hooks[:]
        startup_hooks.clear()
        for hook in hooks:
            hook(self)

    def run(self, until: Optional[int] = None) -> int:
        self.startup()
        return self.eventq.run(until=until)

    def run_on_grid(self, done: Callable[[], bool], step_cycles: int,
                    max_cycles: int, wall_deadline: Optional[float] = None,
                    on_step: Optional[Callable[[], None]] = None) -> int:
        """Run until ``done()``, polled every *step_cycles*; returns the
        end tick.  The polls sit on absolute multiples of *step_cycles*
        and the budget counts from reset, so a restored run sees the
        uninterrupted run's boundaries.  ``on_step()`` runs after startup
        and at each boundary, before ``done()`` is asked.  A grid, not
        :meth:`request_exit`, on purpose: DESIGN.md "Ending a run"."""
        self.startup()
        clock = self.default_clock
        step = clock.cycles_to_ticks(step_cycles)
        end = clock.cycles_to_ticks(max_cycles)
        eventq = self.eventq
        while True:
            if on_step is not None:
                on_step()
            if done():
                return eventq.cur_tick
            now = eventq.cur_tick
            if now >= end:
                raise CycleBudgetExceeded(
                    f"no completion within {max_cycles} cycles")
            if wall_deadline is not None and time.monotonic() >= wall_deadline:
                raise WallClockExceeded("wall-clock budget exhausted")
            eventq.run(until=min((now // step + 1) * step, end))

    def request_exit(self) -> None:
        """Let the workload end the run: :meth:`run` returns once the
        current tick's events have all fired (see
        :meth:`EventQueue.request_exit`)."""
        self.eventq.request_exit()

    def run_cycles(self, cycles: int, clock: Optional[ClockDomain] = None) -> int:
        clk = clock or self.default_clock
        return self.run(until=self.now + clk.cycles_to_ticks(cycles))

    def stats_dump(self) -> dict:
        return self.root_stats.dump()

    # -- checkpointing ----------------------------------------------------

    def save_checkpoint(self, path, max_wait: int = 10**9) -> int:
        """Write a full-system checkpoint to *path*; returns the tick it
        was taken at (may be later than ``now`` — see the engine docs)."""
        from ..resilience.serialize import save_checkpoint

        return save_checkpoint(self, path, max_wait=max_wait)

    def restore(self, path) -> None:
        """Overwrite this (identically built) simulation's state from a
        checkpoint file."""
        from ..resilience.serialize import restore_checkpoint

        restore_checkpoint(self, path)


# -- declared checkpoint state ------------------------------------------------


class Codec(NamedTuple):
    """How a declared field is written, ``save(value, ctx)`` to a JSON
    value, and read back, ``load(data, ctx, old)`` to the attribute's
    new value (*old*: its value in the object being restored)."""

    save: Callable
    load: Callable


def _load_queues(data, ctx, ports):
    for port, queued in zip(ports, data):
        port.queue = DEQUE.load(queued, ctx, None)
    return ports


def _pairs(sort: bool = False, rows: bool = False) -> Codec:
    def save(value, ctx):
        items = sorted(value.items()) if sort else value.items()
        if rows:
            return [[k, *map(ctx.pack, v)] for k, v in items]
        return [[k, ctx.pack(v)] for k, v in items]

    def load(data, ctx, old):
        if rows:
            return type(old)((k, list(map(ctx.unpack, v))) for k, *v in data)
        return type(old)((k, ctx.unpack(v)) for k, v in data)

    return Codec(save, load)


def named(enum_cls) -> Codec:
    """An enum member, by name."""
    return Codec(lambda v, ctx: v.name, lambda d, ctx, old: enum_cls[d])


#: a JSON value: int, bool, None, str, or a list of them (copied)
VALUE = Codec(lambda v, ctx: list(v) if type(v) is list else v,
              lambda d, ctx, old: d)
#: anything ``ctx.pack`` takes: Packet references, tuples, bytes
PACKED = Codec(lambda v, ctx: ctx.pack(v), lambda d, ctx, old: ctx.unpack(d))
#: a deque of packed values
DEQUE = Codec(lambda v, ctx: list(map(ctx.pack, v)),
              lambda d, ctx, old: deque(map(ctx.unpack, d)))
#: a list of deques of packed values
DEQUES = Codec(lambda v, ctx: [DEQUE.save(q, ctx) for q in v],
               lambda d, ctx, old: [DEQUE.load(q, ctx, None) for q in d])
#: a list of ports: the queue of packets each holds for its peer
PORT_QUEUES = Codec(lambda v, ctx: [DEQUE.save(p.queue, ctx) for p in v],
                    _load_queues)
#: a dict as ``[key, packed value]`` pairs, in insertion order
PAIRS = _pairs()
#: the same, sorted by key: only for a dict that is never iterated
SORTED_PAIRS = _pairs(sort=True)
#: a dict of lists as sorted ``[key, *packed values]`` rows (ditto)
SORTED_ROWS = _pairs(sort=True, rows=True)
#: a set, sorted: only for one used for membership, never iterated or
#: popped (its order is history a file cannot hold)
SORTED_SET = Codec(lambda v, ctx: sorted(v), lambda d, ctx, old: set(d))
#: a list of dicts of packed values
RECORDS = Codec(
    lambda v, ctx: [{k: ctx.pack(x) for k, x in r.items()} for r in v],
    lambda d, ctx, old: [{k: ctx.unpack(x) for k, x in r.items()}
                         for r in d])
#: an owned :class:`Checkpointed` object, as its own state; None: no key
OWNED = Codec(lambda v, ctx: None if v is None else v.serialize(ctx),
              lambda d, ctx, old: old.unserialize(d, ctx) or old)


def fields(table) -> tuple:
    """A table's ``(attribute, codec)`` or ``(key, attribute, codec)``
    entries (the key defaults to the attribute without its leading
    underscore), compiled for :func:`save_fields`/:func:`load_fields`."""
    out = []
    for entry in table:
        key, attr, codec = entry if len(entry) == 3 else (
            entry[0].lstrip("_"), *entry)
        section, _, key = key.rpartition(".")
        owner, _, name = attr.rpartition(".")
        out.append((section, key, attrgetter(attr),
                    attrgetter(owner) if owner else None, name, codec))
    return tuple(out)


def save_fields(obj, compiled, ctx, state: dict) -> dict:
    for section, key, get, _owner, _name, codec in compiled:
        data = codec.save(get(obj), ctx)
        if data is not None or codec is not OWNED:
            (state.setdefault(section, {}) if section else state)[key] = data
    return state


def load_fields(obj, compiled, state: dict, ctx) -> None:
    # decode every field before setting any: a codec that refuses its
    # data (an RTL kernel of another shape) leaves the fields as they were
    loaded = [(owner(obj) if owner else obj, name,
               codec.load(saved[key], ctx, get(obj)))
              for section, key, get, owner, name, codec in compiled
              for saved in (state[section] if section else state,)
              if key in saved or codec is not OWNED]
    for target, name, value in loaded:
        setattr(target, name, value)


class Checkpointed:
    """gem5's ``serialize``/``unserialize``, derived from declared state.

    A class declares its whole checkpoint at class level, each table
    adding to its bases':

    * ``ckpt_state`` lists its fields in the order they are packed
      (``ctx.pack`` numbers each packet it meets first); the file's keys
      are sorted, so their order is not part of the format.  A key with
      a dot is one level down (``"coh.current"``), an attribute with one
      reaches into an owned object (``"mem_side.queue"``), and an
      ``OWNED`` entry is an owned :class:`Checkpointed` saved as its own
      state (an RTL object's shared library, the NVDLA library's core);
    * ``ckpt_events`` names the long-lived re-armable events, name ->
      attribute; an event two objects declare (a clock domain's, by
      every member) is saved once, under the first in registration
      order;
    * ``ckpt_kinds`` maps each kind of :meth:`SimObject.sched_ckpt`
      one-shot to the attribute path that runs it
      (``"fill_req": "mem_side.send"``), resolved on the kind's first
      use.

    What no codec can say (objects that share entries, a stream to
    fast-forward) goes in the :meth:`ckpt_save`/:meth:`ckpt_load` hook,
    on the attributes that ``ckpt_hooked`` names, and a check in
    :meth:`SimObject.ckpt_veto`.  Anything else an object changes is a
    memo rebuilt on load, owed edges (:meth:`SimObject.catch_up` settles
    them, and ends a lag, before every save), transient state a veto
    guards, or a statistic: the engine saves statistics, not their
    owners, so a :class:`~repro.soc.stats.Stat` keeps its own
    ``state_dict``/``load_state``.
    ``tests/resilience/test_ckpt_complete.py`` checks that nothing else
    changes.
    """

    ckpt_state: tuple = ()
    ckpt_hooked: tuple = ()
    ckpt_events: dict = {}
    ckpt_kinds: dict = {}

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        mro = cls.__mro__[::-1]
        cls._ckpt_fields = fields(
            entry for klass in mro
            for entry in klass.__dict__.get("ckpt_state", ()))
        cls._ckpt_events = {
            name: attrgetter(attr) for klass in mro
            for name, attr in klass.__dict__.get("ckpt_events", {}).items()}
        cls._ckpt_handlers = {
            kind: attrgetter(path) for klass in mro
            for kind, path in klass.__dict__.get("ckpt_kinds", {}).items()}

    def ckpt_save(self, state: dict, ctx) -> None:
        """Save what no table declares; runs first, so what it packs is
        numbered before the tables' fields."""

    def ckpt_load(self, state: dict, ctx) -> None:
        """Load what :meth:`ckpt_save` saved; runs last, so it can
        rebuild memos from the tables' fields."""

    def serialize(self, ctx) -> dict:
        """JSON-able snapshot of this object's dynamic state (*ctx*: a
        :class:`~repro.resilience.serialize.SerializationContext`)."""
        state: dict = {}
        self.ckpt_save(state, ctx)
        save_fields(self, self._ckpt_fields, ctx, state)
        return state

    def unserialize(self, state: dict, ctx) -> None:
        """Restore a :meth:`serialize` snapshot."""
        load_fields(self, self._ckpt_fields, state, ctx)
        self.ckpt_load(state, ctx)


class SimObject(Checkpointed):
    """Base class for every simulated component.

    Subclasses register statistics in ``__init__`` via ``self.stats`` and
    schedule their initial events in :meth:`startup`.
    """

    def __init__(
        self,
        sim: Simulation,
        name: str,
        parent: Optional["SimObject"] = None,
        clock: Optional[ClockDomain] = None,
    ) -> None:
        self.sim = sim
        self.name = name
        self.parent = parent
        # name and parent are fixed here, and so is the dotted path
        self._path = f"{parent.path()}.{name}" if parent else name
        self.clock = clock or (parent.clock if parent else sim.default_clock)
        parent_group = parent.stats if parent else sim.root_stats
        self.stats = StatGroup(name, parent_group)
        # kind -> (event name, handler) of this object's tagged
        # one-shots (see sched_ckpt): constants, built on a kind's first
        # use
        self._ckpt_kinds: dict[str, tuple[str, Callable]] = {}
        sim.register(self)

    # -- naming ------------------------------------------------------------

    def path(self) -> str:
        return self._path

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<{type(self).__name__} {self.path()}>"

    # -- lifecycle ----------------------------------------------------------

    def init(self) -> None:
        """Phase 1: structural checks after all connections are made."""

    def startup(self) -> None:
        """Phase 2: schedule initial events."""

    # -- event helpers -------------------------------------------------------

    @property
    def now(self) -> int:
        return self.sim.eventq.cur_tick

    def schedule(
        self, event: Event, when: int, priority: int = EventPriority.DEFAULT
    ) -> Event:
        return self.sim.eventq.schedule(event, when, priority)

    def schedule_cycles(
        self, event: Event, cycles: int, priority: int = EventPriority.DEFAULT
    ) -> Event:
        """Schedule *cycles* clock edges from now (aligned to this clock)."""
        edge = self.clock.next_edge(self.now)
        return self.sim.eventq.schedule(
            event, edge + self.clock.cycles_to_ticks(cycles), priority
        )

    # -- checkpointing -----------------------------------------------------
    #
    # Two kinds of events survive a checkpoint:
    #
    # * *named* events — long-lived Event objects the component re-arms
    #   itself (a core's cycle event, an RTL tick), declared in
    #   ``ckpt_events``; the engine records tick/priority/seq and
    #   re-schedules the same objects on restore.
    # * *tagged* one-shots — transient callbacks that would otherwise be
    #   closures (a cache fill completing, a DRAM read returning).
    #   Schedule them with :meth:`sched_ckpt`, naming a kind that
    #   ``ckpt_kinds`` maps to the method that runs it; the engine
    #   reads the (owner, kind, payload) of each off the event queue's
    #   live entries, and restore pushes the same entry back.
    #
    # Anything still scheduled through a bare closure is invisible to the
    # engine, which then refuses to checkpoint (NotCheckpointable).

    def sched_ckpt(
        self,
        kind: str,
        payload,
        when: int,
        priority: int = EventPriority.DEFAULT,
        name: Optional[str] = None,
        seq: Optional[int] = None,
    ) -> None:
        """Schedule a checkpoint-aware one-shot event.

        At *when* it calls the handler ``ckpt_kinds`` names for *kind*
        with *payload*, which must be serializable by the checkpoint
        engine (JSON scalars, lists, dicts, and Packet references).
        *name* (default ``<self.name>.<kind>``) is serialized and is what
        host-time profilers aggregate by: pass a constant, not one built
        per call.
        With *seq* (checkpoint restore) the entry takes its checkpointed
        position, as :meth:`EventQueue.restore_entry` does for a named
        event.

        The heap entry is the only place the one-shot lives, so once it
        fired or :meth:`EventQueue.clear` dropped it nothing refers to
        it.  This is the event queue's own push, inlined: a DSE body
        schedules a one-shot for every two events it runs.
        """
        eventq = self.sim.eventq
        try:
            default, handler = self._ckpt_kinds[kind]
        except KeyError:
            default, handler = self._ckpt_kind(kind)
        if seq is None:
            if when < eventq.cur_tick:
                raise ValueError(
                    f"cannot schedule {name or default} at {when} "
                    f"(current tick {eventq.cur_tick})"
                )
            seq = eventq._seq
            eventq._seq = seq + 1
        elif seq >= eventq._seq:
            eventq._seq = seq + 1
        handle = new_handle()
        handle.tick = when
        handle.callback = partial(handler, payload)
        handle.alive = True
        handle.name = name or default
        handle.owner = self
        handle.kind = kind
        eventq._live += 1
        heappush(eventq._heap, (when, priority, seq, handle))

    def _ckpt_kind(self, kind: str) -> tuple[str, Callable]:
        """Resolve *kind* on its first use (see :meth:`sched_ckpt`)."""
        get = self._ckpt_handlers.get(kind)
        if get is None:
            raise KeyError(
                f"{type(self).__name__} {self.name} has no handler for "
                f"tagged event kind {kind!r} (see ckpt_kinds)"
            )
        entry = self._ckpt_kinds[kind] = (f"{self.name}.{kind}", get(self))
        return entry

    # -- owed edges ---------------------------------------------------------
    #
    # An object that steps over edges of its clock arms ``_owed_event``
    # for the edge after them and owes the rest (a core its counters, an
    # RTL model the replayed edges); :meth:`catch_up` settles them.

    #: the first edge owed and not settled (0: none)
    _owed = 0
    _owed_event: Optional[Event] = None
    #: at a shared tick, clock-priority events older than this ``seq``
    #: precede our edge; with ``_owed_late`` every one does
    _owed_seq = 0
    _owed_late = False

    def open_edge(self) -> int:
        """The first owed edge not fired yet in the single-stepped
        schedule, as seen by the event being dispatched: an event after
        the clock band comes after our edge at its tick, one before it
        before, a clock-priority one as ``_owed_seq`` says.  No owed edge
        lies at or past the armed one."""
        eventq = self.sim.eventq
        now = eventq.cur_tick
        period = self.clock.period
        edge = now + (-now) % period
        if edge == now:
            cur = eventq.current
            if cur is not None:
                priority = cur[1]
                if priority != EventPriority.CLOCK:
                    passed = priority > EventPriority.CLOCK
                else:
                    passed = not self._owed_late and cur[2] > self._owed_seq
                if passed:
                    edge += period
        first = self._owed
        if edge <= first:
            return first
        armed = self._owed_event._entry.tick
        return edge if edge < armed else armed

    def catch_up(self, end: bool = False) -> None:
        """Settle the owed edges the event being dispatched has passed,
        before something reads this object or looks at each edge (a
        stats read, a trace window); with *end*, before something
        changes its inputs or saves it (a delivery, a flip, a
        checkpoint), end the owing where it can (:meth:`end_owing`).
        gem5's ``updateCycleCounters``."""
        first = self._owed
        if not first:
            return
        edge = self.open_edge()
        if edge > first:
            self.settle_owed(first, edge)
            self._owed = edge
        if end:
            self.end_owing(edge)

    def settle_owed(self, first: int, edge: int) -> None:
        """Account for the owed edges from *first* to before *edge*."""

    def end_owing(self, edge: int) -> None:
        """End the owing and step from *edge*; by default it goes on."""

    def edge_armed(self, edge: int) -> None:
        """Another object ended its owing for an input and armed its edge
        event at tick *edge*, maybe among the edges this one owes; by
        default the same-tick rule of :meth:`open_edge` orders the two."""

    def input_changes(self) -> None:
        """Before a delivery or a flip changes this object's inputs: end
        the owing where it can (:meth:`catch_up`)."""
        self.catch_up(end=True)

    def ends_owing(self, handler: Callable) -> Callable:
        """*handler*, a timing receive, behind the catch-up that ends an
        owing first: what a port delivers feeds an edge to come."""
        def deliver(pkt) -> bool:
            if self._owed:
                self.input_changes()
            return handler(pkt)

        return deliver

    def ckpt_veto(self) -> Optional[str]:
        """Reason this object cannot be checkpointed right now, or None.

        Used for transient state that cannot be serialized (e.g. a
        pending host callback); the engine steps the simulation forward
        until every veto clears.
        """
        return None
