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
* the **struct exchange**: every tick the object builds an input
  struct, calls ``library.tick``, and consumes the output struct.

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
from ..soc.simobject import (DEQUE, OWNED, PORT_QUEUES, VALUE,
                             SimObject, Simulation)
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

    ckpt_state = (
        ("cpu_req_queue", DEQUE),
        ("mem_req_queue", "mem_side", PORT_QUEUES),
        ("mem_resp_queue", DEQUE),
        ("inflight", VALUE), ("running", VALUE), ("library", OWNED),
    )
    #: the hook: the last output struct is in the library's form, saved
    #: as its bytes, and loading it rebuilds its decoded memo
    ckpt_hooked = ("_last_out",)
    ckpt_events = {"tick": "_tick_event"}

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

        # A model that can lag keeps its own event, to arm for the edge
        # that ends a lag, and a lag ends before a port delivers to it;
        # every other is ticked by its clock domain's.
        self._domain_member = type(self).lag_cycles is RTLObject.lag_cycles
        bind = ((lambda handler: handler) if self._domain_member
                else self.ends_owing)
        # CPU-side: the SoC masters us (config writes, register reads).
        self.cpu_side = [
            ResponsePort(
                f"{name}.cpu_side{i}",
                recv_timing_req=bind(self._make_cpu_req_handler(i)),
                recv_functional=self._recv_functional,
            )
            for i in range(CPU_SIDE_PORTS)
        ]
        # Memory-side: we master the SoC memory system.
        recv_mem_resp = bind(self._recv_mem_resp)
        self.mem_side = [
            RequestPort(
                f"{name}.mem_side{i}",
                recv_timing_resp=recv_mem_resp,
                recv_snoop=self.recv_snoop_mem,
            )
            for i in range(MEM_SIDE_PORTS)
        ]

        # Inbound CPU-side requests awaiting processing by the RTL model.
        self.cpu_req_queue: deque[Packet] = deque()
        # Responses from memory, delivered into the next input struct.
        self.mem_resp_queue: deque[Packet] = deque()
        self.inflight = 0

        if self._domain_member:
            self._tick_event = self.clock.add_member(self)
        else:
            self._tick_event = self._owed_event = Event(self._tick,
                                                        f"{name}.tick")
            # stepped, a core's cycle re-arms one period of its own ahead
            # and we one of ours: at our clock or faster it fires first
            self._owed_late = self.clock.period <= sim.default_clock.period
        #: ticked at its clock's edges until :meth:`stop`
        self.running = True
        # Last output struct consumed, as the library returned it and
        # decoded: what a lag holds the pins against.  All-zero (nothing
        # valid, nothing raised) until the first one is.
        spec = library.output_spec
        self._last_out = library.struct_of(spec, spec.zeros())
        #: the output struct consumed last, as :meth:`decode_output`
        #: decodes it; read-only, as in :meth:`consume_output`
        self.last_output = self.decode_output(self._last_out)

        s = self.stats
        self.st_ticks = s.add(SettledScalar(
            "ticks", "RTL model clock ticks executed", self))
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
        """One cycle of the model, at an edge of its clock: build the
        inputs, tick the library, consume the outputs."""
        out = self.library.tick(self.build_input())
        self.st_ticks.inc()
        # the tracer as get_chrome_tracer() returns it, read, not called
        tracer = trace_flags._chrome
        if tracer is not None and tracer.enabled:
            now, period = self.now, self.clock.period
            tracer.window("rtl busy", f"rtl:{self.name}", now, now + period,
                          period)
        # Decoding is a pure function of the struct, and a quiet model
        # returns the same struct for thousands of ticks: keep the last
        # struct and fields.  Consumers must not modify the fields.
        if out != self._last_out:
            self._last_out = out
            self.last_output = self.decode_output(out)
        self.consume_output(self.last_output)

    def _tick(self) -> None:
        """The own event of a model that can lag: the edges a lag owes,
        this edge, then the next edge or a new lag."""
        eventq = self.sim.eventq
        period = self.clock.period
        if self._owed:
            # the edge a lag was armed for: the edges before it first
            self.catch_up(end=True)
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
        self._owed = last + period
        # just after the clock band, or in it, ahead of every clock
        # event armed since the lag began
        self._owed_seq = eventq.next_seq
        eventq.schedule(self._tick_event, arm, EventPriority.CLOCK + 1
                        if self._owed_late else EventPriority.CLOCK)
        self.begin_lag()
        if FLAG_RTL_BATCH.enabled:
            tracepoint(
                FLAG_RTL_BATCH, self.name,
                "outputs proven still for %d edges: lagging to tick %d",
                (arm - last) // period - 1, arm, tick=self.now,
            )
        return True

    def settle_owed(self, first: int, edge: int) -> None:
        """Run the lagged edges from *first* to before *edge* at once, on
        the runs of :meth:`lagged_inputs`: every one of them, or an
        output that moves in them raises (the horizon is checked, not
        assumed), and each counts in ``ticks``."""
        cycles = (edge - first) // self.clock.period
        in_bytes, field, runs = self.lagged_inputs(first, edge)
        library = self.library
        before = library.ticks
        out = library.tick_varying(in_bytes, field, runs, self._last_out)
        ran = library.ticks - before
        if ran != cycles or out != self._last_out:
            raise RuntimeError(
                f"{self.name}: an output moved at lagged edge {ran} of "
                f"{cycles} from tick {first}, inside the horizon "
                "lag_cycles() proved"
            )
        self.st_ticks.inc(ran)
        tracer = get_chrome_tracer()
        if tracer is not None and tracer.enabled:
            tracer.window("rtl lagged", f"rtl:{self.name}", first, edge,
                          self.clock.period)

    def end_owing(self, edge: int) -> None:
        """End the lag; the model steps from *edge*, where the tick is
        re-armed unless it is the edge firing now."""
        self._owed = 0
        self.end_lag()
        event = self._tick_event
        if event.scheduled and event.when() != edge:
            # as the lag was: after the clock band, or in it at its seq
            eventq = self.sim.eventq
            eventq.deschedule(event)
            if self._owed_late:
                eventq.schedule(event, edge, EventPriority.CLOCK + 1)
            else:
                eventq.restore_entry(event, edge, EventPriority.CLOCK,
                                     self._owed_seq)

    def input_changes(self) -> None:
        """End the lag before a delivery or a flip changes the inputs.
        A model slower than the cores steps again from an edge that may
        lie among edges another object owes (a core's stall window),
        where the single-stepped core would have armed its edge after
        ours: that object steps from there too
        (:meth:`SimObject.edge_armed`)."""
        if not self._owed:
            return
        self.catch_up(end=True)
        if not self._owed_late:
            edge = self._tick_event.when()
            for obj in self.sim.objects:
                if obj._owed:
                    obj.edge_armed(edge)

    # -- hooks for model-specific subclasses ----------------------------------

    def build_input(self):
        """The input struct for this tick (override per model)."""
        spec = self.library.input_spec
        return self.library.struct_of(spec, spec.zeros())

    def decode_output(self, out):
        """Decode an output struct for :meth:`consume_output`: the
        library's ``fields_of``, unless the model overrides both."""
        return self.library.fields_of(out)

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
        consume them (:meth:`open_edge`); by default none are."""

    def end_lag(self) -> None:
        """Stop logging; what is still logged belongs to the next edge."""

    def lagged_inputs(self, first: int, end: int):
        """``(input_bytes, field, runs)`` for the lagged edges from
        *first* to before *end*: ``(value, n)`` pairs, *field* at
        *value* for the next n edges, as
        :meth:`RTLSharedLibrary.tick_varying` takes them.  By default no
        input is tapped, and the lagged edges are one run of the
        all-zero struct (*field* None): a model whose horizon holds only
        while nothing drives its pins."""
        cycles = (end - first) // self.clock.period
        return self.library.input_spec.zeros(), None, ((0, cycles),)

    # -- CPU-side plumbing ------------------------------------------------------

    def _make_cpu_req_handler(self, port_idx: int):
        def handler(pkt: Packet) -> bool:
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
        self.cpu_side[port_idx].send_timing_resp(pkt)

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

    def ckpt_save(self, state: dict, ctx) -> None:
        library = self.library
        state["last_output"] = ctx.pack(
            library.bytes_of(library.output_spec, self._last_out))

    def ckpt_load(self, state: dict, ctx) -> None:
        library = self.library
        self._last_out = library.struct_of(
            library.output_spec, ctx.unpack(state["last_output"]))
        self.last_output = self.decode_output(self._last_out)
        if self._owed:  # a checkpoint ends every lag before it is taken
            self.end_owing(0)
