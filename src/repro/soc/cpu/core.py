"""Out-of-order-style timing core (Table 1's core model).

Parameters follow the paper: 3-wide issue/retire, 192-entry ROB, 48-entry
load and store queues, commit of up to 4 instructions per cycle, 2 GHz.
The model is a structural approximation in the spirit of interval
simulation: µops enter the ROB in order, complete out of order (ALU after
a fixed latency, memory ops when the cache responds), and commit in
order.  Branch mispredicts stall the front end for a restart penalty.

The core exposes *event wires* — per-cycle pulse counts for committed
instructions and (via the cache's miss listener) L1D misses — which is
what the paper's PMU use case taps.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Optional

from ...trace import packets as pkttrace
from ...trace.flags import debug_flag, tracepoint
from ..event import Event, EventPriority
from ..packet import MemCmd, Packet
from ..ports import RequestPort
from ..simobject import DEQUE, PACKED, VALUE, SimObject, Simulation
from ..stats import SettledScalar
from . import uop as U
from .uop import UopStream

FLAG_CPU = debug_flag(
    "CPU", "core pipeline: memory issue/completion, sleep, interrupts"
)


class EventWire:
    """An accumulating pulse counter connecting producers to the PMU.

    While a consumer lags behind the event queue it sets :attr:`lag` to
    a callable that takes each pulse as ``lag(wire, n)`` and logs it
    against the edge that will consume it; otherwise pulses add to
    :attr:`count`, the ones not consumed yet."""

    __slots__ = ("name", "count", "lag")

    def __init__(self, name: str) -> None:
        self.name = name
        self.count = 0
        self.lag: Optional[Callable[["EventWire", int], None]] = None

    def pulse(self, n: int = 1) -> None:
        if self.lag is None:
            self.count += n
        else:
            self.lag(self, n)

    def drain(self, limit: Optional[int] = None) -> int:
        """Take up to *limit* pulses (all if None)."""
        if limit is None or self.count <= limit:
            taken, self.count = self.count, 0
        else:
            taken = limit
            self.count -= limit
        return taken


class _RobEntry:
    __slots__ = ("kind", "done")

    def __init__(self, kind: int, done: bool = False) -> None:
        self.kind = kind
        self.done = done


class OoOCore(SimObject):
    """One out-of-order core consuming a µop stream."""

    ckpt_state = (
        ("_ldq_used", VALUE), ("_stq_used", VALUE), ("_stall_until", VALUE),
        ("_mem_blocked_pkt", PACKED), ("_fetch_outstanding", PACKED),
        ("_fetch_blocked", VALUE), ("_sleeping", VALUE), ("done", VALUE),
        ("_cycle", VALUE), ("_draining_for_irq", VALUE),
        ("_pending_irqs", DEQUE), ("commit_wire", "commit_wire.count", VALUE),
        ("skip", "_owed", VALUE),  # an owed window crosses a checkpoint
    )
    #: the hook: ROB entries that three containers share, saved once as
    #: indices, and the µop stream, which a load fast-forwards
    ckpt_hooked = ("_rob", "_inflight", "_alu_done", "stream")
    ckpt_events = {"cycle": "_cycle_event"}
    ckpt_kinds = {"wake": "_wake"}

    def __init__(
        self,
        sim: Simulation,
        name: str,
        issue_width: int = 3,
        commit_width: int = 4,
        rob_size: int = 192,
        ldq_size: int = 48,
        stq_size: int = 48,
        mispredict_penalty: int = 12,
        parent: Optional[SimObject] = None,
    ) -> None:
        super().__init__(sim, name, parent)
        self.issue_width = issue_width
        self.commit_width = commit_width
        self.rob_size = rob_size
        self.ldq_size = ldq_size
        self.stq_size = stq_size
        self.mispredict_penalty = mispredict_penalty

        self.dcache_port = RequestPort(
            f"{name}.dcache_port",
            recv_timing_resp=self._recv_mem_resp,
            recv_req_retry=self._mem_retry,
        )
        # Instruction fetches (FETCH µops) go to the L1I when connected;
        # an unconnected port makes fetches free (µop-stream workloads).
        self.icache_port = RequestPort(
            f"{name}.icache_port",
            recv_timing_resp=self._recv_fetch_resp,
            recv_req_retry=self._fetch_retry,
        )
        self.dcache_port.reads_data = self.icache_port.reads_data = False
        self._fetch_outstanding: Optional[Packet] = None
        self._fetch_blocked = False

        self.stream: Optional[UopStream] = None
        # interrupt support: nested streams + pending handler queue
        self._stream_stack: list[UopStream] = []
        self._pending_irqs: deque = deque()
        self._draining_for_irq = False
        self.irq_entry_penalty = 20   # precise-state save / vector fetch
        self.irq_exit_penalty = 12    # restore + pipeline refill
        self._rob: deque[_RobEntry] = deque()
        self._ldq_used = 0
        self._stq_used = 0
        self._inflight: dict[int, _RobEntry] = {}  # pkt_id -> entry
        self._alu_done: list[tuple[int, _RobEntry]] = []  # (cycle, entry) heap-free
        self._stall_until = 0           # front-end restart after mispredict
        self._mem_blocked_pkt: Optional[Packet] = None
        self._sleeping = False
        self.done = False
        self.on_done: Optional[Callable[[], None]] = None

        # event wires (PMU taps)
        self.commit_wire = EventWire(f"{name}.commits")

        self._cycle = 0
        self._cycle_event = self._owed_event = Event(self._do_cycle,
                                                     f"{name}.cycle")

        s = self.stats
        self.st_cycles = s.add(SettledScalar(
            "cycles", "core cycles (including sleep)", self))
        self.st_committed = s.scalar("committed", "committed instructions")
        self.st_loads = s.scalar("loads", "load µops issued")
        self.st_stores = s.scalar("stores", "store µops issued")
        self.st_branches = s.scalar("branches", "branch µops")
        self.st_mispredicts = s.scalar("mispredicts", "mispredicted branches")
        self.st_sleep_cycles = s.scalar("sleep_cycles", "cycles spent sleeping")
        self.st_issue_stalls = s.add(SettledScalar(
            "issue_stalls", "cycles with zero issue while runnable", self))
        self.st_interrupts = s.scalar(
            "interrupts", "interrupts taken (handler activations)"
        )
        self.st_fetches = s.scalar(
            "ifetches", "instruction-line fetches sent to the L1I"
        )

    # -- control -----------------------------------------------------------

    def run_stream(self, stream) -> None:
        """Attach a workload.

        If the simulation is already running (e.g. a second program is
        launched after boot), the core starts on the next cycle.
        """
        self.stream = UopStream(stream) if not isinstance(stream, UopStream) else stream
        self.done = False
        if (
            self.sim._started
            and not self._cycle_event.scheduled
            and not self._sleeping
        ):
            self.schedule_cycles(self._cycle_event, 1, EventPriority.CLOCK)

    def startup(self) -> None:
        if self.stream is not None and not self._cycle_event.scheduled:
            self.schedule_cycles(self._cycle_event, 1, EventPriority.CLOCK)

    @property
    def cycle(self) -> int:
        self.catch_up()
        return self._cycle

    # -- pipeline ------------------------------------------------------------

    def _do_cycle(self) -> None:
        if self._owed:
            self.catch_up()  # what is left of the window: all < now
            self._owed = 0
        self._cycle += 1
        self.st_cycles.inc()
        self._commit()
        issued = self._issue()
        if (
            issued == 0
            and not self._sleeping
            and not self.done
            and self._rob
        ):
            self.st_issue_stalls.inc()
        if self.done:
            return
        if self._sleeping:
            return  # wake event will restart cycling
        eventq = self.sim.eventq  # this runs on an edge: no alignment
        skip = 0
        if self._cycle + 1 < self._stall_until:
            skip = self._stall_window()
            if skip:
                self._owed = eventq.cur_tick + self.clock.period
        eventq.schedule(self._cycle_event, eventq.cur_tick
                        + (1 + skip) * self.clock.period, EventPriority.CLOCK)

    def _stall_window(self) -> int:
        """Edges after this one at which nothing can happen: the cycle
        event is armed past them, and they are owed, not dispatched.

        Inside a front-end stall (``_cycle < _stall_until``) with
        nothing in flight and no finished ROB head, a cycle commits
        nothing, issues nothing and looks at no interrupt; it adds one
        to ``cycles`` and, over a non-empty ROB, to ``issue_stalls``.
        That lasts until the stall ends or an ALU µop completes.  The
        window also ends at the first edge a queued clock-priority event
        could share (:meth:`EventQueue.next_clock_tick`) and before the
        ``until`` of the run in progress, so no clock-priority event
        queued when it begins lands inside it (``_owed_seq`` is 0).
        """
        if (
            self._inflight
            or self._fetch_outstanding is not None
            or self._mem_blocked_pkt is not None
            or (self._rob and self._rob[0].done)
        ):
            return 0
        wake = self._stall_until
        for cyc, _entry in self._alu_done:
            if cyc < wake:
                wake = cyc
        cycles = wake - self._cycle
        if cycles < 2:
            return 0  # the very next edge: nothing to scan the queue for
        eventq = self.sim.eventq
        now = eventq.cur_tick
        horizon = eventq.next_clock_tick(now)
        until = eventq.until
        if until is not None and (horizon is None or until < horizon):
            horizon = until
        if horizon is not None:
            cycles = min(cycles, (horizon - now) // self.clock.period)
        return max(0, cycles - 1)

    def edge_armed(self, edge: int) -> None:
        """A window holds no clock-priority event queued when it began;
        one armed inside it since — a slower RTL model stepping again —
        would meet edges the window owes in an order the single-stepped
        core does not: the core settles the edges before the open one
        (:meth:`catch_up`) and dispatches its edges from there."""
        event = self._cycle_event
        if not self._owed or event.when() <= edge:
            return
        self.catch_up()
        if self._owed < event.when():
            eventq = self.sim.eventq
            eventq.deschedule(event)
            eventq.schedule(event, self._owed, EventPriority.CLOCK)
            self._owed = 0

    def settle_owed(self, first: int, edge: int) -> None:
        """The owed edges of a stall window: each adds one to
        ``cycles`` and, over a non-empty ROB, to ``issue_stalls``.  The
        window has no inputs, so nothing ends it but its own edge."""
        passed = (edge - first) // self.clock.period
        self._cycle += passed
        self.st_cycles.inc(passed)
        if self._rob:
            self.st_issue_stalls.inc(passed)

    def _commit(self) -> None:
        rob = self._rob
        committed = 0
        while rob and committed < self.commit_width:
            entry = rob[0]
            if not entry.done:
                break
            rob.popleft()
            committed += 1
            if entry.kind == U.LOAD:
                self._ldq_used -= 1
            elif entry.kind == U.STORE:
                self._stq_used -= 1
        if committed:
            self.st_committed.inc(committed)
            self.commit_wire.pulse(committed)
        # ALU completion bookkeeping (mark entries whose latency elapsed)
        alu_done = self._alu_done
        if alu_done:
            cycle = self._cycle
            due = 0
            for cyc, entry in alu_done:
                if cyc <= cycle:
                    entry.done = True
                    due += 1
            if due == len(alu_done):
                alu_done.clear()
            elif due:
                alu_done[:] = [item for item in alu_done if item[0] > cycle]

    def raise_interrupt(self, handler_uops) -> None:
        """Deliver an interrupt: once the ROB drains (precise state), the
        core switches to *handler_uops* and returns to the interrupted
        stream when the handler completes.  Entry/exit penalties model
        the state save/restore and pipeline refill."""
        self._pending_irqs.append(handler_uops)

    def _enter_irq_if_ready(self) -> bool:
        """Returns True while an interrupt entry is in progress."""
        if not self._pending_irqs:
            return False
        if self._rob:
            self._draining_for_irq = True
            return True  # drain before vectoring (precise interrupts)
        handler = self._pending_irqs.popleft()
        if FLAG_CPU.enabled:
            tracepoint(
                FLAG_CPU, self.name, "vector to interrupt handler (cycle %d)",
                self._cycle, tick=self.now,
            )
        self._draining_for_irq = False
        assert self.stream is not None
        self._stream_stack.append(self.stream)
        self.stream = UopStream(iter(handler))
        self._stall_until = self._cycle + self.irq_entry_penalty
        self.st_interrupts.inc()
        return True

    def _issue(self) -> int:
        if self.stream is None or self._cycle < self._stall_until:
            return 0
        if self._mem_blocked_pkt is not None:
            return 0  # waiting for cache retry
        if self._fetch_outstanding is not None:
            return 0  # front-end starved until the i-line arrives
        if self._pending_irqs and self._enter_irq_if_ready():
            return 0
        stream = self.stream  # its block is read in place
        block, pos = stream.block, stream.pos
        issued = 0
        while issued < self.issue_width:
            if pos == len(block):
                block, pos = stream.refill(), 0
            kind, arg = block[pos]
            if kind == U.END:
                if not self._rob and not self.done:
                    if self._stream_stack:
                        # interrupt handler finished: return from trap
                        self.stream = self._stream_stack.pop()
                        self._stall_until = (
                            self._cycle + self.irq_exit_penalty
                        )
                    else:
                        self._finish()
                break
            if kind == U.FETCH:
                # front-end: block until the i-line arrives (the stream
                # emits a FETCH only for a line it wants timed)
                if self._fetch_outstanding is not None:
                    break
                pos += 1
                if self.icache_port.connected:
                    self.st_fetches.inc()
                    pkt = Packet(MemCmd.ReadReq, arg, 8,
                                 requestor=self.name)
                    self._fetch_outstanding = pkt
                    if not self.icache_port.send_timing_req(pkt):
                        self._fetch_blocked = True
                    break
                continue
            if kind == U.SLEEP:
                if self._rob:
                    break  # drain before sleeping
                pos += 1
                self._enter_sleep(arg)
                break
            if len(self._rob) >= self.rob_size:
                break
            if kind == U.LOAD and self._ldq_used >= self.ldq_size:
                break
            if kind == U.STORE and self._stq_used >= self.stq_size:
                break
            pos += 1
            entry = _RobEntry(kind)
            self._rob.append(entry)
            issued += 1
            if kind == U.ALU:
                self._alu_done.append((self._cycle + arg, entry))
            elif kind == U.BRANCH:
                entry.done = True
                self.st_branches.inc()
                if arg:
                    self.st_mispredicts.inc()
                    self._stall_until = self._cycle + self.mispredict_penalty
                    break
            elif kind == U.LOAD:
                self.st_loads.inc()
                self._ldq_used += 1
                if not self._send_mem(entry, MemCmd.ReadReq, arg):
                    break
            elif kind == U.STORE:
                self.st_stores.inc()
                self._stq_used += 1
                if not self._send_mem(entry, MemCmd.WriteReq, arg):
                    break
        stream.pos = pos
        return issued

    def _send_mem(self, entry: _RobEntry, cmd: MemCmd, addr: int) -> bool:
        size = 8
        # keep accesses inside one cache line
        if addr % 64 > 56:
            addr -= addr % 8
        # µop accesses are timing-only: a store carries no payload and
        # no load or fetch response's bytes are read (the ports declare
        # ``reads_data = False``), because functional memory state
        # belongs to the workload layer (generators, host apps), which
        # has already applied the architectural effect.
        pkt = Packet(cmd, addr, size, requestor=self.name)
        if FLAG_CPU.enabled:
            tracepoint(
                FLAG_CPU, self.name, "issue %s #%d addr=%#x (cycle %d)",
                cmd.name, pkt.pkt_id, addr, self._cycle, tick=self.now,
            )
        if pkttrace.FLAG_PACKET.enabled:
            pkt.record_hop(self.name, self.now)
        self._inflight[pkt.pkt_id] = entry
        if not self.dcache_port.send_timing_req(pkt):
            self._mem_blocked_pkt = pkt
            return False
        return True

    def _mem_retry(self) -> None:
        pkt = self._mem_blocked_pkt
        if pkt is None:
            return
        self._mem_blocked_pkt = None
        if not self.dcache_port.send_timing_req(pkt):
            self._mem_blocked_pkt = pkt

    def _recv_fetch_resp(self, pkt: Packet) -> bool:
        if (self._fetch_outstanding is not None
                and pkt.pkt_id == self._fetch_outstanding.pkt_id):
            self._fetch_outstanding = None
        return True

    def _fetch_retry(self) -> None:
        if self._fetch_blocked and self._fetch_outstanding is not None:
            self._fetch_blocked = False
            if not self.icache_port.send_timing_req(self._fetch_outstanding):
                self._fetch_blocked = True

    def _recv_mem_resp(self, pkt: Packet) -> bool:
        entry = self._inflight.pop(pkt.pkt_id, None)
        if entry is not None:
            entry.done = True
        if FLAG_CPU.enabled:
            tracepoint(
                FLAG_CPU, self.name, "complete %s #%d addr=%#x",
                pkt.cmd.name, pkt.pkt_id, pkt.addr, tick=self.now,
            )
        if pkttrace.FLAG_PACKET.enabled and pkt.hops:
            pkttrace.finish(pkt, self.sim, self.now, self.name)
        return True

    # -- sleep / finish -----------------------------------------------------------

    def _enter_sleep(self, cycles: int) -> None:
        if FLAG_CPU.enabled:
            tracepoint(
                FLAG_CPU, self.name, "sleep %d cycles", cycles, tick=self.now,
            )
        self._sleeping = True
        self.st_sleep_cycles.inc(cycles)
        self.st_cycles.inc(cycles)
        self._cycle += cycles
        self.sched_ckpt(
            "wake",
            None,
            self.now + self.clock.cycles_to_ticks(cycles),
            EventPriority.CLOCK,
        )

    def _finish(self) -> None:
        self.done = True
        if self.on_done is not None:
            self.on_done()

    def ipc(self) -> float:
        cycles = self.st_cycles.value()
        return self.st_committed.value() / cycles if cycles else 0.0

    # -- checkpointing -----------------------------------------------------

    def _wake(self, _payload) -> None:
        self._sleeping = False
        self.schedule_cycles(self._cycle_event, 1, EventPriority.CLOCK)

    def ckpt_veto(self):
        if self._stream_stack:
            return "mid-interrupt handler (nested µop stream)"
        return None

    def ckpt_save(self, state: dict, ctx) -> None:
        # ROB entries are shared between _rob, _inflight and _alu_done;
        # the index into _rob is the canonical reference.
        rob = list(self._rob)
        index = {id(entry): i for i, entry in enumerate(rob)}
        state["rob"] = [[e.kind, e.done] for e in rob]
        state["inflight"] = {str(pkt_id): index[id(entry)]
                             for pkt_id, entry in self._inflight.items()}
        state["alu_done"] = [[cyc, index[id(entry)]]
                             for cyc, entry in self._alu_done]
        state["has_stream"] = self.stream is not None
        state["stream_consumed"] = self.stream.consumed if self.stream else 0

    def ckpt_load(self, state: dict, ctx) -> None:
        rob = [_RobEntry(kind, done) for kind, done in state["rob"]]
        self._rob = deque(rob)
        self._inflight = {int(pkt_id): rob[i]
                          for pkt_id, i in state["inflight"].items()}
        self._alu_done = [(cyc, rob[i]) for cyc, i in state["alu_done"]]
        self._stream_stack = []
        if state["has_stream"]:
            if self.stream is None:
                raise RuntimeError(
                    f"{self.name}: checkpoint has an attached µop stream "
                    "but none was re-attached before restore"
                )
            # The builder re-attached the same deterministic stream;
            # fast-forward it to the checkpointed position.
            self.stream.skip(state["stream_consumed"])
        else:
            self.stream = None
