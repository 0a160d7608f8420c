"""RTLObject: the gem5-side half of the bridge (paper §3.4).

An :class:`RTLObject` is a SimObject that owns a shared library and
exposes the paper's connectivity surface:

* **four timing ports** — two CPU-side response ports (the SoC sends
  requests *to* the RTL block: configuration writes, counter reads) and
  two memory-side request ports (the RTL block masters the memory
  system: NVDLA's DBBIF and SRAMIF);
* **optional TLB hookup** for address translation of memory-side
  requests;
* **a tick** at the RTL model's own clock frequency, which may differ
  from the cores' (the PMU runs at 1 GHz under 2 GHz cores in the
  paper's Table 1): a single-stepped model is a member of its
  :class:`~repro.soc.event.ClockDomain`, ticked by the domain's one
  event per edge; a model that lags behind the event queue
  (:meth:`RTLObject.lag_cycles`) keeps its own event;
* the **struct exchange**: every tick the object packs an input struct,
  calls ``library.tick``, and consumes the output struct.

Model-specific subclasses implement :meth:`build_input` and
:meth:`consume_output` — exactly the paper's "the gem5 RTLObject and the
shared library need to define these data structures and have the
necessary code to populate and consume their fields".
"""

from __future__ import annotations

from collections import deque
from typing import Optional

from ..soc.event import ClockDomain, Event, EventPriority
from ..soc.packet import MemCmd, Packet
from ..soc.ports import RequestPort, ResponsePort
from ..soc.simobject import SimObject, Simulation
from ..soc.stats import SettledScalar
from ..soc.tlb import TLB
from ..trace import flags as trace_flags
from ..trace import packets as pkttrace
from ..trace.flags import debug_flag, get_chrome_tracer, tracepoint
from .shared_library import SharedLibrary

#: most edges one lag spans, whatever the model proves: a bound on the
#: cycles and the log one catch-up holds
LAG_LIMIT = 1 << 14

#: number of ports on each side, per the paper
CPU_SIDE_PORTS = 2
MEM_SIDE_PORTS = 2

FLAG_RTL = debug_flag(
    "RTL", "RTLObject: CPU-side traffic, memory-side requests, struct exchange"
)
FLAG_RTL_BATCH = debug_flag(
    "RTL.Batch", "RTLObject lags: the quiet edges proven and skipped"
)


class RTLObject(SimObject):
    """Bridges one shared-library RTL model into the simulated SoC."""

    def __init__(
        self,
        sim: Simulation,
        name: str,
        library: SharedLibrary,
        clock: Optional[ClockDomain] = None,
        tlb: Optional[TLB] = None,
        max_inflight: Optional[int] = None,
        parent: Optional[SimObject] = None,
    ) -> None:
        super().__init__(sim, name, parent, clock=clock)
        self.library = library
        self.tlb = tlb
        self.max_inflight = max_inflight

        # CPU-side: the SoC masters us (config writes, register reads).
        self.cpu_side = [
            ResponsePort(
                f"{name}.cpu_side{i}",
                recv_timing_req=self._make_cpu_req_handler(i),
                recv_functional=self._recv_functional,
            )
            for i in range(CPU_SIDE_PORTS)
        ]
        # Memory-side: we master the SoC memory system.
        self.mem_side = [
            RequestPort(
                f"{name}.mem_side{i}",
                recv_timing_resp=self._recv_mem_resp,
                recv_snoop=self.recv_snoop_mem,
            )
            for i in range(MEM_SIDE_PORTS)
        ]

        # Inbound CPU-side requests awaiting processing by the RTL model.
        self.cpu_req_queue: deque[Packet] = deque()
        # Responses from memory, delivered into the next input struct.
        self.mem_resp_queue: deque[Packet] = deque()
        self.inflight = 0

        # A model that can lag keeps its own event, to arm for the edge
        # that ends a lag; every other is ticked by its clock domain's.
        self._domain_member = type(self).lag_cycles is RTLObject.lag_cycles
        if self._domain_member:
            self._tick_event = self.clock.add_member(self)
        else:
            self._tick_event = Event(self._tick, f"{name}.tick")
        #: ticked at its clock's edges until :meth:`stop`
        self.running = True
        # Last output struct consumed, packed and decoded: what a lag
        # holds the pins against.  All-zero (nothing valid, nothing
        # raised) until the first one is.
        self._last_bytes = self._zero_bytes = library.output_spec.zeros()
        #: the output struct consumed last, as :meth:`decode_output`
        #: decodes it; read-only, as in :meth:`consume_output`
        self.last_output = self._zero_output = self.decode_output(
            self._last_bytes)
        # A lag (see :meth:`lag_cycles`): the last edge consumed, the
        # seq of the event armed for the edge that ends it, and whether
        # clock-priority events precede our edges at a shared tick.
        self._lagging = False
        self._lag_edge = 0
        self._lag_seq = 0
        self._lag_after_clock = False

        s = self.stats
        self.st_ticks = s.add(SettledScalar(
            "ticks", "RTL model clock ticks executed", self.catch_up))
        self.st_mem_reads = s.scalar("mem_reads", "memory-side read requests")
        self.st_mem_writes = s.scalar("mem_writes", "memory-side write requests")
        self.st_mem_resps = s.scalar("mem_resps", "memory-side responses")
        self.st_cpu_reqs = s.scalar("cpu_reqs", "CPU-side requests received")
        self.st_stalled_reqs = s.scalar(
            "stalled_reqs", "memory-side requests delayed by port backpressure"
        )
        self.st_inflight_peak = s.scalar("inflight_peak", "max in-flight mem reqs")

    # -- lifecycle --------------------------------------------------------

    def startup(self) -> None:
        self.library.reset()
        if self._domain_member:
            self.clock.start()
        else:
            self.schedule_cycles(self._tick_event, 1, EventPriority.CLOCK)

    def stop(self) -> None:
        """Stop ticking (end of workload)."""
        self.catch_up(end=True)
        self.running = False
        if self._domain_member:
            self.clock.release()
        elif self._tick_event.scheduled:
            self.sim.eventq.deschedule(self._tick_event)

    # -- the tick ----------------------------------------------------------

    def clock_edge(self) -> None:
        """One cycle of the model, at an edge of its clock: pack the
        inputs, tick the library, consume the outputs."""
        out_bytes = self.library.tick(self.build_input())
        self.st_ticks.inc()
        # the tracer as get_chrome_tracer() returns it, read, not called
        tracer = trace_flags._chrome
        if tracer is not None and tracer.enabled:
            now, period = self.now, self.clock.period
            tracer.window("rtl busy", f"rtl:{self.name}", now, now + period,
                          period)
        # Decoding is a pure function of the bytes, and a quiet model
        # returns the same struct for thousands of ticks: keep the last
        # bytes and fields.  Consumers must not modify the fields.
        if out_bytes != self._last_bytes:
            self._last_bytes = out_bytes
            # a quiet cycle's struct was decoded once, at construction
            self.last_output = (
                self._zero_output if out_bytes == self._zero_bytes
                else self.decode_output(out_bytes))
        self.consume_output(self.last_output)

    def _tick(self) -> None:
        """The own event of a model that can lag: the edges a lag owes,
        this edge, then the next edge or a new lag."""
        eventq = self.sim.eventq
        period = self.clock.period
        if self._lagging:
            # The edge a lag was armed for: run the edges it owes first.
            self._lag_to(eventq.cur_tick - period)
            self._end_lag()
        self.clock_edge()
        if self.running:
            edge = eventq.cur_tick
            if edge % period:
                edge += period - edge % period
            if not self._start_lag(edge):
                eventq.schedule(self._tick_event, edge + period,
                                EventPriority.CLOCK)

    # -- lagging behind the queue ---------------------------------------------

    def _start_lag(self, last: int) -> bool:
        """After the edge at tick *last* was consumed: lag, if the model
        proves edges it can skip (:meth:`lag_cycles`), with the event
        armed for the first edge whose outputs could move, or the last
        edge before the ``until`` of the run in progress, whichever
        comes first.  False: step as before."""
        h = self.lag_cycles()
        if h < 1:
            return False
        eventq = self.sim.eventq
        period = self.clock.period
        arm = last + (min(h, LAG_LIMIT) + 1) * period
        until = eventq.until
        if until is not None:
            arm = min(arm, (until - 1) // period * period)
        if arm <= last + period:
            return False
        self._lagging = True
        self._lag_edge = last
        # A clock-priority event at one of our edges is a core's cycle.
        # Single-stepped, we re-arm one period of ours ahead and the core
        # one of its own: at our clock or faster the core's event is
        # older and fires first, on a slower clock ours does.
        self._lag_after_clock = period <= self.sim.default_clock.period
        self._lag_seq = eventq.next_seq
        eventq.schedule(self._tick_event, arm, self._lag_priority())
        self.begin_lag()
        if FLAG_RTL_BATCH.enabled:
            tracepoint(
                FLAG_RTL_BATCH, self.name,
                "outputs proven still for %d edges: lagging to tick %d",
                (arm - last) // period - 1, arm, tick=self.now,
            )
        return True

    def _lag_priority(self) -> int:
        # just after the clock band, or in it, ahead of every clock event
        # armed since the lag began
        if self._lag_after_clock:
            return EventPriority.CLOCK + 1
        return EventPriority.CLOCK

    def lag_open_edge(self) -> int:
        """While lagging: the first of our edges that has not fired yet
        in the single-stepped schedule, as seen by the event being
        dispatched — the edge an input arriving now is sampled at."""
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
                    passed = (not self._lag_after_clock
                              and cur[2] > self._lag_seq)
                if passed:
                    edge += period
        return max(edge, self._lag_edge + period)

    def catch_up(self, end: bool = False) -> None:
        """Run the edges a lagging model owes the caller: every edge
        that precedes the event being dispatched.  With *end*, the lag
        ends too, and the tick is armed for the next edge, where the
        model steps as before; the entry point for whatever changes
        the model's inputs or state mid-lag (a CPU-side request, a
        memory-side response, a fault flip, a checkpoint, :meth:`stop`)
        or must see every edge before it (a trace window).  Does nothing
        while not lagging."""
        if not self._lagging:
            return
        edge = self.lag_open_edge()
        self._lag_to(edge - self.clock.period)
        if not end:
            return
        self._end_lag()
        event = self._tick_event
        if event.when() != edge:
            eventq = self.sim.eventq
            eventq.deschedule(event)
            if self._lag_after_clock:
                eventq.schedule(event, edge, self._lag_priority())
            else:
                eventq.restore_entry(event, edge, EventPriority.CLOCK,
                                     self._lag_seq)

    def _lag_to(self, last: int) -> None:
        """Run the lagged edges up to and including *last*."""
        cycles = (last - self._lag_edge) // self.clock.period
        if cycles <= 0:
            return
        in_bytes, field, values = self.lagged_inputs(last)
        library = self.library
        before = library.ticks
        out = library.tick_varying(in_bytes, field, values, self._last_bytes)
        ran = library.ticks - before
        if ran != cycles or out != self._last_bytes:
            raise RuntimeError(
                f"{self.name}: an output moved at lagged edge {ran} of "
                f"{cycles} after tick {self._lag_edge}, inside the horizon "
                "lag_cycles() proved"
            )
        self.st_ticks.inc(ran)
        tracer = get_chrome_tracer()
        if tracer is not None and tracer.enabled:
            period = self.clock.period
            tracer.window("rtl lagged", f"rtl:{self.name}",
                          self._lag_edge + period, last + period, period)
        self._lag_edge = last

    def _end_lag(self) -> None:
        self._lagging = False
        self.end_lag()

    # -- hooks for model-specific subclasses ----------------------------------

    def build_input(self) -> bytes:
        """Pack the input struct for this tick (override per model)."""
        return self.library.input_spec.zeros()

    def decode_output(self, out_bytes: bytes):
        """Decode an output struct for :meth:`consume_output`: the field
        dict, unless the model overrides both with its own form."""
        return self.library.output_spec.unpack(out_bytes)

    def consume_output(self, outputs) -> None:
        """Act on the output struct from this tick (override per model).

        *outputs* is read-only: while the model's output bytes do not
        change, every tick is handed the same decoded object.
        """

    def lag_cycles(self) -> int:
        """Edges after the one just consumed at which provably no output
        moves, given that the only inputs that change meanwhile are the
        ones :meth:`begin_lag` taps (0: none, do not lag).

        A model that overrides this lags; every other is a member of its
        clock domain.  The bridge arms the model's own tick for the edge
        after the horizon and lets it lag behind the event queue until
        then: nothing is dispatched for the edges in between, and
        whatever must see the model at an edge in between calls
        :meth:`catch_up` first.  The lagged edges run at once on
        :meth:`lagged_inputs` through
        :meth:`RTLSharedLibrary.tick_varying`, and an output that moves
        in them raises: the horizon is checked, not assumed.
        """
        return 0

    def begin_lag(self) -> None:
        """Start logging the tapped inputs against the edges that will
        consume them (:meth:`lag_open_edge`); by default none are."""

    def end_lag(self) -> None:
        """Stop logging; what is still logged belongs to the next edge."""

    def lagged_inputs(self, last: int):
        """``(input_bytes, field, values)`` for the lagged edges up to
        *last*: one value of *field* per edge, as
        :meth:`RTLSharedLibrary.tick_varying` takes them.  By default no
        input is tapped, and every lagged edge sees the all-zero struct
        (*field* None): a model whose horizon holds only while nothing
        drives its pins."""
        cycles = (last - self._lag_edge) // self.clock.period
        return self.library.input_spec.zeros(), None, range(cycles)

    # -- CPU-side plumbing ------------------------------------------------------

    def _make_cpu_req_handler(self, port_idx: int):
        def handler(pkt: Packet) -> bool:
            if self._lagging:
                self.catch_up(end=True)
            pkt.dest_port = port_idx
            if FLAG_RTL.enabled:
                tracepoint(
                    FLAG_RTL, self.name,
                    "cpu_side%d %s #%d addr=%#x queued (%d pending)",
                    port_idx, pkt.cmd.name, pkt.pkt_id, pkt.addr,
                    len(self.cpu_req_queue) + 1, tick=self.now,
                )
            self.cpu_req_queue.append(pkt)
            self.st_cpu_reqs.inc()
            return True  # the RTL object always sinks config traffic

        return handler

    def _recv_functional(self, pkt: Packet) -> None:
        raise NotImplementedError(
            f"{self.name}: functional access to RTL state is model-specific"
        )

    def respond_cpu(self, pkt: Packet, data: Optional[bytes] = None) -> None:
        """Turn an inbound CPU-side request around and send the response."""
        port_idx = pkt.dest_port
        if port_idx is None:
            raise RuntimeError("packet did not arrive via a cpu_side port")
        pkt.make_response(data)
        pkt.resp_tick = self.now
        if FLAG_RTL.enabled:
            tracepoint(
                FLAG_RTL, self.name,
                "cpu_side%d respond %s #%d addr=%#x",
                port_idx, pkt.cmd.name, pkt.pkt_id, pkt.addr, tick=self.now,
            )
        self.cpu_side[port_idx].send(pkt)

    # -- memory-side plumbing -------------------------------------------------------

    def can_issue_mem(self) -> bool:
        return self.max_inflight is None or self.inflight < self.max_inflight

    def send_mem_read(
        self, addr: int, size: int, port_idx: int = 0, translate: bool = False,
        meta: Optional[dict] = None,
    ) -> bool:
        pkt = Packet(MemCmd.ReadReq, addr, size, requestor=self.name)
        if meta:
            pkt.meta.update(meta)
        return self._issue_mem(pkt, port_idx, translate)

    def send_mem_write(
        self,
        addr: int,
        size: int,
        data: Optional[bytes] = None,
        port_idx: int = 0,
        translate: bool = False,
        meta: Optional[dict] = None,
    ) -> bool:
        pkt = Packet(MemCmd.WriteReq, addr, size, data=data, requestor=self.name)
        if meta:
            pkt.meta.update(meta)
        return self._issue_mem(pkt, port_idx, translate)

    def _issue_mem(self, pkt: Packet, port_idx: int, translate: bool) -> bool:
        """Issue a memory-side request; False iff the in-flight cap is hit."""
        if not self.can_issue_mem():
            return False
        if translate:
            if self.tlb is None:
                raise RuntimeError(f"{self.name}: no TLB configured")
            pkt.vaddr = pkt.addr
            pkt.addr, _walk = self.tlb.translate(pkt.addr)
        self.inflight = inflight = self.inflight + 1
        if inflight > self.st_inflight_peak.value():
            self.st_inflight_peak.set(inflight)
        if pkt.cmd.is_read:
            self.st_mem_reads.inc()
        else:
            self.st_mem_writes.inc()
        now = pkt.req_tick = self.sim.eventq.cur_tick
        if FLAG_RTL.enabled:
            tracepoint(
                FLAG_RTL, self.name,
                "mem_side%d issue %s #%d addr=%#x (inflight %d)",
                port_idx, pkt.cmd.name, pkt.pkt_id, pkt.addr,
                inflight, tick=now,
            )
        if pkttrace.FLAG_PACKET.enabled:
            pkt.record_hop(self.name, now)
        if not self.mem_side[port_idx].send(pkt):
            self.st_stalled_reqs.inc()
        return True

    def recv_snoop_mem(self, pkt: Packet) -> None:
        """Express coherence probe arriving on a mem-side port.

        Base RTLObjects are not coherence participants; subclasses that
        join a :class:`~repro.soc.interconnect.coherent.CoherentXbar` (e.g. the
        coherent RTL cache bridge) override this with their snoop
        translation.  Reaching it otherwise means a non-participant was
        wired to a coherent crossbar.
        """
        raise RuntimeError(
            f"{self.name}: received coherence snoop {pkt!r} but this "
            "RTLObject is not a coherence participant"
        )

    def _recv_mem_resp(self, pkt: Packet) -> bool:
        if self._lagging:
            # the response feeds the input struct of an edge to come
            self.catch_up(end=True)
        now = pkt.resp_tick = self.sim.eventq.cur_tick
        self.inflight -= 1
        self.st_mem_resps.inc()
        if FLAG_RTL.enabled:
            tracepoint(
                FLAG_RTL, self.name,
                "mem resp %s #%d addr=%#x (inflight %d)",
                pkt.cmd.name, pkt.pkt_id, pkt.addr, self.inflight,
                tick=now,
            )
        if pkttrace.FLAG_PACKET.enabled and pkt.hops:
            pkttrace.finish(pkt, self.sim, now, self.name)
        self.mem_resp_queue.append(pkt)
        return True

    # -- checkpointing ----------------------------------------------------

    def ckpt_named_events(self):
        # a domain's event is saved once, under its first member
        if self._domain_member and self.clock.members[0] is not self:
            return {}
        return {"tick": self._tick_event}

    def serialize(self, ctx) -> dict:
        return {
            "last_output": ctx.pack(self._last_bytes),
            "cpu_req_queue": [ctx.pack(p) for p in self.cpu_req_queue],
            "blocked_resps": [p.queue_state(ctx) for p in self.cpu_side],
            "mem_req_queue": [p.queue_state(ctx) for p in self.mem_side],
            "mem_resp_queue": [ctx.pack(p) for p in self.mem_resp_queue],
            "inflight": self.inflight,
            "running": self.running,
            "library": self.library.checkpoint_state(),
        }

    def unserialize(self, state: dict, ctx) -> None:
        self.cpu_req_queue = deque(
            ctx.unpack(p) for p in state["cpu_req_queue"]
        )
        for port, queued in zip(self.cpu_side, state["blocked_resps"]):
            port.load_queue(queued, ctx)
        for port, queued in zip(self.mem_side, state["mem_req_queue"]):
            port.load_queue(queued, ctx)
        self.mem_resp_queue = deque(
            ctx.unpack(p) for p in state["mem_resp_queue"]
        )
        self.inflight = state["inflight"]
        self.running = state["running"]
        self.library.load_checkpoint_state(state["library"])
        self._last_bytes = ctx.unpack(state["last_output"])
        self.last_output = self.decode_output(self._last_bytes)
        # a checkpoint ends every lag before it is taken
        if self._lagging:
            self._end_lag()
