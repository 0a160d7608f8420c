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
  event per edge; a model that runs ahead in windows keeps its own
  event;
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
from ..soc.tlb import TLB
from ..trace import packets as pkttrace
from ..trace.flags import debug_flag, get_chrome_tracer, tracepoint
from .shared_library import SharedLibrary

#: number of ports on each side, per the paper
CPU_SIDE_PORTS = 2
MEM_SIDE_PORTS = 2

FLAG_RTL = debug_flag(
    "RTL", "RTLObject: CPU-side traffic, memory-side requests, struct exchange"
)
FLAG_RTL_BATCH = debug_flag(
    "RTL.Batch", "RTLObject batching decisions and quiescence skips"
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
        batch_cycles: int = 1,
        parent: Optional[SimObject] = None,
    ) -> None:
        super().__init__(sim, name, parent, clock=clock)
        self.library = library
        self.tlb = tlb
        self.max_inflight = max_inflight
        #: upper bound on RTL cycles advanced per event-queue pop while
        #: the model's inputs hold still (1 = run-ahead off)
        self.batch_cycles = batch_cycles

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

        # A single-stepped model is ticked by its clock domain's event; a
        # model that runs ahead sizes its windows against its own.
        self._domain_member = batch_cycles <= 1
        if self._domain_member:
            self._tick_event = self.clock.add_member(self)
        else:
            self._tick_event = Event(self._tick, f"{name}.tick")
        #: ticked at its clock's edges until :meth:`stop`
        self.running = True
        # Last output struct consumed, packed and decoded: what a
        # run-ahead window holds the pins against.  All-zero (nothing
        # valid, nothing raised) until the first one is.
        self._last_bytes = library.output_spec.zeros()
        #: the output struct consumed last, as :meth:`decode_output`
        #: decodes it; read-only, as in :meth:`consume_output`
        self.last_output = self.decode_output(self._last_bytes)
        # Output a run-ahead window stopped on, until its own edge.
        self._held_output: Optional[bytes] = None

        s = self.stats
        self.st_ticks = s.scalar("ticks", "RTL model clock ticks executed")
        self.st_mem_reads = s.scalar("mem_reads", "memory-side read requests")
        self.st_mem_writes = s.scalar("mem_writes", "memory-side write requests")
        self.st_mem_resps = s.scalar("mem_resps", "memory-side responses")
        self.st_cpu_reqs = s.scalar("cpu_reqs", "CPU-side requests received")
        self.st_stalled_reqs = s.scalar(
            "stalled_reqs", "memory-side requests delayed by port backpressure"
        )
        self.st_inflight_peak = s.scalar("inflight_peak", "max in-flight mem reqs")
        self.st_batched_ticks = s.scalar(
            "batched_ticks", "RTL cycles advanced through the batch fast path"
        )

    # -- lifecycle --------------------------------------------------------

    def startup(self) -> None:
        self.library.reset()
        if self._domain_member:
            self.clock.start()
        else:
            self.schedule_cycles(self._tick_event, 1, EventPriority.CLOCK)

    def stop(self) -> None:
        """Stop ticking (end of workload)."""
        self.running = False
        if self._domain_member:
            self.clock.release()
        elif self._tick_event.scheduled:
            self.sim.eventq.deschedule(self._tick_event)

    # -- the tick ----------------------------------------------------------

    def clock_edge(self) -> None:
        """One cycle of a single-stepped model, at an edge of its domain:
        no window to size, nothing to hold, and nothing RTL.Batch would
        say."""
        out_bytes = self.library.tick(self.build_input())
        self.st_ticks.inc()
        tracer = get_chrome_tracer()
        if tracer is not None and tracer.enabled:
            self._trace_window(tracer, 1, False)
        if out_bytes != self._last_bytes:
            self._last_bytes = out_bytes
            self.last_output = self.decode_output(out_bytes)
        self.consume_output(self.last_output)

    def _tick(self) -> None:
        """The own event of a model that may run ahead."""
        eventq = self.sim.eventq
        period = self.clock.period
        ran = 1
        out_bytes = self._held_output
        if out_bytes is not None:
            # The cycle a window stopped on already ran; this is its
            # edge, where a single-stepped model would produce what the
            # window produced early.  Nothing fired in between.
            self._held_output = None
        else:
            n = self._batch_window()
            in_bytes = self.build_input()
            if n > 1:
                library = self.library
                before = library.ticks
                out_bytes = library.tick_batch(in_bytes, n, self._last_bytes)
                ran = library.ticks - before
                self.st_batched_ticks.inc(ran)
                # cycles 1..ran-1 left the outputs as last consumed
                held = ran > 1 and out_bytes != self._last_bytes
            else:
                out_bytes = self.library.tick(in_bytes)
                held = False
            self.st_ticks.inc(ran)
            # Tracing costs nothing beyond its two tests while it is off.
            if FLAG_RTL_BATCH.enabled:
                self._trace_batch(n, ran, held)
            tracer = get_chrome_tracer()
            if tracer is not None and tracer.enabled:
                self._trace_window(tracer, ran, held)
            if held:
                # Consume it where a single-stepped model would.
                self._held_output = out_bytes
                eventq.schedule(
                    self._tick_event, eventq.cur_tick + (ran - 1) * period,
                    EventPriority.CLOCK,
                )
                return
        # Decoding is a pure function of the bytes, and a quiet model
        # returns the same struct for thousands of ticks: keep the last
        # bytes and fields.  Consumers must not modify the fields.
        if out_bytes != self._last_bytes:
            self._last_bytes = out_bytes
            self.last_output = self.decode_output(out_bytes)
        self.consume_output(self.last_output)
        if self.running:
            # schedule_cycles(event, ran), inlined
            edge = eventq.cur_tick
            if edge % period:
                edge += period - edge % period
            eventq.schedule(
                self._tick_event, edge + ran * period, EventPriority.CLOCK
            )

    def _trace_window(self, tracer, ran: int, held: bool) -> None:
        now, period, track = self.now, self.clock.period, f"rtl:{self.name}"
        tracer.window(
            "rtl batched" if ran > 1 else "rtl busy", track,
            now, now + ran * period, period,
        )
        if held:
            tracer.instant("rtl output moved", track, now + (ran - 1) * period)

    def _trace_batch(self, n: int, ran: int, held: bool) -> None:
        if ran > 1:
            tracepoint(
                FLAG_RTL_BATCH, self.name,
                "inputs steady: advanced %d RTL cycles in one pop%s",
                ran,
                f" (of {n}: an output moved at the last)" if held else "",
                tick=self.now,
            )
        elif n > 1:
            tracepoint(
                FLAG_RTL_BATCH, self.name,
                "window of %d cut at its first cycle: an output moved",
                n, tick=self.now,
            )
        else:
            tracepoint(
                FLAG_RTL_BATCH, self.name,
                "no window this pop (inputs busy, event horizon or end "
                "of run)",
                tick=self.now,
            )

    def _batch_window(self) -> int:
        """Upper bound on the RTL cycles to advance on this pop.

        The model's own bound (:meth:`idle_cycles`: how long its inputs
        hold still), clamped so no foreign event fires before the next
        sample — any event strictly before our next edge could change
        the inputs we would have sampled — and so the window stops short
        of the ``until`` of the run in progress: what is read when the
        run returns must not be ahead of it.  Events *at* the next edge
        are fine — clock-priority ticks run first at a given tick,
        exactly as in the single-stepped schedule.  This keeps the
        paper's frequency-ratio semantics: in a window or not, edge k is
        simulated at tick ``k * period``.  The library ends the window
        earlier, after the first cycle that moves an output
        (:meth:`SharedLibrary.tick_batch`).
        """
        limit = min(self.batch_cycles, self.idle_cycles())
        if limit <= 1:
            return 1
        eventq = self.sim.eventq
        horizon = eventq.next_event_tick()
        until = eventq.until
        if until is not None and (horizon is None or until < horizon):
            horizon = until
        if horizon is not None:
            limit = min(limit, (horizon - self.now) // self.clock.period)
        return max(1, limit)

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

    def idle_cycles(self) -> int:
        """Upper bound on cycles this model may advance per input struct.

        Override per model: return > 1 only when the inputs packed by
        :meth:`build_input` would be byte-identical for that many cycles
        and packing them has no side effect, and :attr:`last_output` was
        inert — consuming it again would do nothing.  The bridge holds
        the outputs against that struct and ends the window at the first
        cycle that moves one, so nothing is promised about what the
        model will *produce*.  The default is the always-safe single
        cycle.
        """
        return 1

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
        self.inflight += 1
        if self.inflight > self.st_inflight_peak.value():
            self.st_inflight_peak.set(self.inflight)
        if pkt.is_read:
            self.st_mem_reads.inc()
        else:
            self.st_mem_writes.inc()
        pkt.req_tick = self.now
        if FLAG_RTL.enabled:
            tracepoint(
                FLAG_RTL, self.name,
                "mem_side%d issue %s #%d addr=%#x (inflight %d)",
                port_idx, pkt.cmd.name, pkt.pkt_id, pkt.addr,
                self.inflight, tick=self.now,
            )
        if pkttrace.FLAG_PACKET.enabled:
            pkt.record_hop(self.name, self.now)
        if not self.mem_side[port_idx].send(pkt):
            self.st_stalled_reqs.inc()
        return True

    def recv_snoop_mem(self, pkt: Packet) -> None:
        """Express coherence probe arriving on a mem-side port.

        Base RTLObjects are not coherence participants; subclasses that
        join a :class:`~repro.soc.interconnect.CoherentXbar` (e.g. the
        coherent RTL cache bridge) override this with their snoop
        translation.  Reaching it otherwise means a non-participant was
        wired to a coherent crossbar.
        """
        raise RuntimeError(
            f"{self.name}: received coherence snoop {pkt!r} but this "
            "RTLObject is not a coherence participant"
        )

    def _recv_mem_resp(self, pkt: Packet) -> bool:
        pkt.resp_tick = self.now
        self.inflight -= 1
        self.st_mem_resps.inc()
        if FLAG_RTL.enabled:
            tracepoint(
                FLAG_RTL, self.name,
                "mem resp %s #%d addr=%#x (inflight %d)",
                pkt.cmd.name, pkt.pkt_id, pkt.addr, self.inflight,
                tick=self.now,
            )
        if pkttrace.FLAG_PACKET.enabled and pkt.hops:
            pkttrace.finish(pkt, self.sim, self.now, self.name)
        self.mem_resp_queue.append(pkt)
        return True

    # -- checkpointing ----------------------------------------------------

    def ckpt_named_events(self):
        # a domain's event is saved once, under its first member
        if self._domain_member and self.clock.members[0] is not self:
            return {}
        return {"tick": self._tick_event}

    def ckpt_veto(self) -> Optional[str]:
        # Cannot happen between the events of a run (a window ends
        # before the next queued one); a run cut by max_events can.
        if self._held_output is not None:
            return "run-ahead output waiting for its edge"
        return None

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
        self._held_output = None
