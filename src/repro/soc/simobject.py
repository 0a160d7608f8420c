"""SimObject base class and the Simulation container.

The gem5 analogue of ``SimObject`` + ``Root`` + ``simulate()``.  A
:class:`Simulation` owns the event queue, the root stat group, and the
object hierarchy; :class:`SimObject` provides naming, clock domain access,
stat registration and the two-phase ``init``/``startup`` protocol that
components use to schedule their first events.
"""

from __future__ import annotations

from functools import partial
from heapq import heappush
from typing import Callable, Optional

from .event import ClockDomain, Event, EventPriority, EventQueue, new_handle
from .stats import StatGroup

#: ``hook(sim)`` callables parked by code that cannot reach the
#: :class:`Simulation` an experiment builds internally (the CLI's trace
#: window and resilience flags).  The first simulation that starts runs
#: them in order, after every object's ``startup()``, and empties the
#: list; forked pool workers inherit whatever is left in it.
startup_hooks: list = []


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

        *obj* must expose ``serialize(ctx)``/``unserialize(state, ctx)``.
        Registration order (like the SimObject list) must be identical in
        the saving and restoring process.
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

    def run(self, until: Optional[int] = None, max_events: Optional[int] = None) -> int:
        self.startup()
        return self.eventq.run(until=until, max_events=max_events)

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


class SimObject:
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
    #   itself (a core's cycle event, an RTL tick).  Expose them via
    #   :meth:`ckpt_named_events`; the engine records tick/priority/seq
    #   and re-schedules the same objects on restore.
    # * *tagged* one-shots — transient callbacks that would otherwise be
    #   closures (a cache fill completing, a DRAM read returning).
    #   Schedule them with :meth:`sched_ckpt`, naming a kind that
    #   :meth:`ckpt_handlers` maps to the method that runs it; the engine
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

        At *when* it calls ``self.ckpt_handlers()[kind](payload)``;
        *payload* must be serializable by the checkpoint engine (JSON
        scalars, lists, dicts, and Packet references).  *name* (default
        ``<self.name>.<kind>``) is serialized and is what host-time
        profilers aggregate by: pass a constant, not one built per call.
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
        handler = self.ckpt_handlers().get(kind)
        if handler is None:
            raise KeyError(
                f"{type(self).__name__} {self.name} has no handler for "
                f"tagged event kind {kind!r} (see ckpt_handlers)"
            )
        entry = self._ckpt_kinds[kind] = (f"{self.name}.{kind}", handler)
        return entry

    def ckpt_handlers(self) -> dict[str, Callable]:
        """Kind -> the callable that runs a :meth:`sched_ckpt` one-shot
        of that kind, called with its payload.  Read once per kind, on
        its first use."""
        return {}

    def ckpt_named_events(self) -> dict[str, Event]:
        """Long-lived re-armable events, keyed by a stable name."""
        return {}

    def catch_up(self, end: bool = False) -> None:
        """Bring whatever this object defers up to the event being
        dispatched, before something looks at every edge of it (a trace
        window opening or closing) or saves it (a checkpoint, with
        *end*: defer nothing across it).  Nothing is deferred here; an
        RTL model that lags behind the queue overrides it."""

    def ckpt_veto(self) -> Optional[str]:
        """Reason this object cannot be checkpointed right now, or None.

        Used for transient state that cannot be serialized (e.g. a
        pending host callback); the engine steps the simulation forward
        until every veto clears.
        """
        return None

    def serialize(self, ctx) -> dict:
        """JSON-able snapshot of this object's dynamic state.

        *ctx* is a :class:`~repro.resilience.serialize.SerializationContext`
        — use ``ctx.pack(value)`` for anything that may contain Packets.
        Stats are handled generically by the engine; stateless objects
        keep this default.
        """
        return {}

    def unserialize(self, state: dict, ctx) -> None:
        """Restore a :meth:`serialize` snapshot."""
        if state:
            raise NotImplementedError(
                f"{type(self).__name__} checkpointed state but does not "
                "implement unserialize"
            )
