"""PMU RTLObject: gem5-side integration of the PMU (paper §4.1).

Connects SoC event sources (committed instructions, L1D misses, the
clock itself) to the PMU's one-bit event inputs, forwards MMIO
configuration traffic from the cpu_side port onto the AXI channels, and
fans interrupt pulses out to registered handlers.

Event wiring follows the paper: the out-of-order core can commit up to
four instructions per cycle, so the commit event occupies *four* event
lanes; L1D misses occur at most once per cycle (one lane); the clock is
wired to its own lane to enable periodic threshold interrupts.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Optional

from ...bridge.rtl_object import LAG_LIMIT, RTLObject
from ...soc.cpu.core import EventWire
from ...soc.event import ClockDomain
from ...soc.packet import Packet
from ...soc.simobject import (DEQUE, EACH, VALUE, Checkpointed, SimObject,
                              Simulation, fixed)
from ...soc.stats import SettledScalar
from .wrapper import PMU_OUTPUT, PMUSharedLibrary


class _EventLane(Checkpointed):
    """Event inputs [base, base+lanes) tapping one wire, or the clock
    (no wire, one lane)."""

    __slots__ = ("wire", "lanes", "base")
    #: a wired lane's pulses not consumed yet (a wire such as the
    #: external L1D-miss tap has no other owner to save them)
    ckpt_state = (("count", "wire.count", VALUE),)

    def __init__(self, base: int, wire: Optional[EventWire],
                 lanes: int) -> None:
        self.base = base
        self.wire = wire
        self.lanes = lanes


class PMURTLObject(RTLObject):
    """Bridges a :class:`PMUSharedLibrary` into the SoC."""

    ckpt_state = (
        ("_pending_reads", DEQUE),
        ("wired_lanes", "_wired", fixed(
            "{obj.name}: checkpoint has {saved} wired lanes, system has "
            "{built} — event wiring must match", len)),
        ("lane_counts", "_wired", EACH),
    )

    def __init__(
        self,
        sim: Simulation,
        name: str,
        library: PMUSharedLibrary,
        mmio_base: int = 0x1000_0000,
        clock: Optional[ClockDomain] = None,
        parent: Optional[SimObject] = None,
    ) -> None:
        super().__init__(sim, name, library, clock=clock, parent=parent)
        self.mmio_base = mmio_base
        self._lanes: list[_EventLane] = []
        #: the lanes tapping a wire, in wiring order
        self._wired: list[_EventLane] = []
        #: the clock-wired lanes: the same input bits every cycle
        self._clock_events = 0
        #: every lane wired to something: the ones that can count
        self._tapped = 0
        self._pending_reads: deque[Packet] = deque()
        self._interrupt_handlers: list[Callable[[int], None]] = []
        s = self.stats
        # a lag holds no interrupt: only what it defers is owed to a read
        self.st_interrupts = s.scalar("interrupts", "PMU interrupts seen")
        self.st_events_deferred = s.add(SettledScalar(
            "events_deferred",
            "event pulses deferred to a later PMU tick (rate mismatch)",
            self,
        ))
        #: while lagging: ``(edge tick, wire, pulses)`` in arrival order
        self._log: list[tuple[int, EventWire, int]] = []
        self._quiet_input = library.input_spec.zeros()

    # -- wiring ------------------------------------------------------------

    def connect_event(self, base_index: int, wire: EventWire,
                      lanes: int = 1) -> None:
        """Tap *wire* onto event inputs [base_index, base_index+lanes)."""
        self._check_lane_range(base_index, lanes)
        lane = _EventLane(base_index, wire, lanes)
        self._lanes.append(lane)
        self._wired.append(lane)
        self._tapped |= ((1 << lanes) - 1) << base_index

    def connect_clock_event(self, index: int) -> None:
        """Wire the PMU clock itself to event input *index*."""
        self._check_lane_range(index, 1)
        self._lanes.append(_EventLane(index, None, 1))
        self._clock_events |= 1 << index
        self._tapped |= 1 << index

    def _check_lane_range(self, base: int, lanes: int) -> None:
        n = self.library.n_counters
        if base < 0 or base + lanes > n:
            raise ValueError(
                f"event lanes [{base}, {base + lanes}) exceed {n} counters"
            )
        for lane in self._lanes:
            if not (base + lanes <= lane.base or lane.base + lane.lanes <= base):
                raise ValueError(
                    f"event lanes [{base}, {base + lanes}) overlap existing wiring"
                )

    def on_interrupt(self, handler: Callable[[int], None]) -> None:
        """Register a callback fired (with the current tick) on IRQ."""
        self._interrupt_handlers.append(handler)

    def attach_core_handler(self, core, uops_factory=None) -> None:
        """Run an interrupt-service routine *on the core* per PMU IRQ.

        The paper's benchmark dumps counters from the interrupt handler,
        which costs core cycles; this models that perturbation.
        ``uops_factory()`` returns the handler's µop list (default: a
        representative save/read-counters/restore sequence).
        """
        from ...soc.cpu.uop import alu, load, store

        def default_factory():
            scratch = 0x00E0_0000
            uops = [store(scratch + 8 * i) for i in range(8)]   # save regs
            for i in range(6):                                   # read+log
                uops += [load(scratch + 64 + 8 * i), alu(1), alu(1)]
            uops += [load(scratch + 8 * i) for i in range(8)]   # restore
            return uops

        factory = uops_factory or default_factory
        self.on_interrupt(lambda _tick: core.raise_interrupt(factory()))

    # -- struct exchange ----------------------------------------------------------

    #: no dict: the generated tuple ``(rvalid, rdata, irq)``
    decode_output = staticmethod(PMU_OUTPUT.values)

    def _events(self) -> int:
        """The ``events`` word of one edge, taking the pulses it consumes
        off the wires."""
        events = self._clock_events
        for lane in self._wired:
            wire = lane.wire
            if not wire.count:
                continue
            pulses = wire.drain(lane.lanes)
            if wire.count:
                # more pulses arrived this PMU cycle than lanes exist;
                # they remain queued for the next tick
                self.st_events_deferred.inc(wire.count)
            events |= ((1 << pulses) - 1) << lane.base
        return events

    def build_input(self) -> bytes:
        events = self._events()
        pack = self.library.input_spec.pack
        if not self.cpu_req_queue:
            return pack(events)

        # One configuration write and one read may be in flight per cycle.
        write_pkt = None
        read_pkt = None
        for _ in range(len(self.cpu_req_queue)):
            pkt = self.cpu_req_queue[0]
            if pkt.is_write and write_pkt is None:
                write_pkt = self.cpu_req_queue.popleft()
            elif pkt.is_read and read_pkt is None:
                read_pkt = self.cpu_req_queue.popleft()
            else:
                break
        awvalid = awaddr = wdata = arvalid = araddr = 0
        if write_pkt is not None:
            awvalid = 1
            awaddr = (write_pkt.addr - self.mmio_base) & 0xFFF
            wdata = int.from_bytes(
                (write_pkt.data or b"\0\0\0\0")[:4], "little"
            )
            # writes complete at this edge
            self.respond_cpu(write_pkt)
        if read_pkt is not None:
            arvalid = 1
            araddr = (read_pkt.addr - self.mmio_base) & 0xFFF
            self._pending_reads.append(read_pkt)
        return pack(events, awvalid, awaddr, wdata, arvalid, araddr)

    # -- lagging behind the core ---------------------------------------

    def lag_cycles(self) -> int:
        """The horizon: edges after the one just consumed at which no
        output can move while only the event lanes change.

        ``rvalid`` follows ``arvalid``, which only an MMIO request sets
        (and a request ends a lag).  ``irq`` rises only at an edge where
        an enabled lane with a non-zero threshold counts its way to it,
        and a counter gains at most one per edge (``pmu.v``): a lane at
        ``counter`` of ``threshold`` cannot raise it in the next
        ``threshold - counter - 1`` edges.  Only lanes that can see an
        event — wired to a wire or to the clock — count; with none
        thresholded the horizon is unbounded.  It is read off the
        kernel's ``counters``, ``thresholds`` and ``enable`` after every
        stepped edge, so a write or a fault flip (both end a lag first)
        is seen.  An output consumed last that was not inert, or a
        pending request: no lag.  An enabled VCD writer does not stop
        one: the lagged edges then run one by one, each sampled.
        """
        if self.cpu_req_queue or self._pending_reads:
            return 0
        rvalid, _, irq = self.last_output
        if rvalid or irq:
            return 0
        library = self.library
        sim = library.sim
        memories = library.module.memories
        counters = sim.mems[memories["counters"].index]
        thresholds = sim.mems[memories["thresholds"].index]
        lanes = sim.peek("enable") & self._tapped
        horizon = LAG_LIMIT
        while lanes:
            i = (lanes & -lanes).bit_length() - 1
            lanes &= lanes - 1
            threshold = thresholds[i]
            if threshold:
                horizon = min(horizon, threshold - counters[i] - 1)
        return horizon

    def begin_lag(self) -> None:
        log_pulse = self._log_pulse
        for lane in self._wired:
            lane.wire.lag = log_pulse

    def _log_pulse(self, wire: EventWire, n: int) -> None:
        self._log.append((self.open_edge(), wire, n))

    def end_lag(self) -> None:
        # what is still logged is for the next edge: pulses, as before
        for lane in self._wired:
            lane.wire.lag = None
        for _edge, wire, n in self._log:
            wire.count += n
        self._log.clear()

    def lagged_inputs(self, first: int, end: int):
        """The ``events`` word of the lagged edges from *first* to before
        *end*, as runs of equal words: the clock lanes, plus the logged
        pulses of each edge and those the lane cap deferred to it, as
        :meth:`build_input` takes them.  An edge that takes no pulse
        runs on, clock lanes alone, to the next logged edge."""
        period = self.clock.period
        clock = self._clock_events
        log = self._log
        runs: list[list[int]] = []
        edge = first
        i, logged = 0, len(log)
        while edge < end:
            while i < logged and log[i][0] == edge:
                _edge, wire, n = log[i]
                wire.count += n
                i += 1
            word = self._events()
            n = 1
            if word == clock:
                # nothing pulsed, nothing carried
                n = (min(log[i][0] if i < logged else end, end)
                     - edge) // period
            edge += n * period
            if runs and runs[-1][0] == word:
                runs[-1][1] += n
            else:
                runs.append([word, n])
        del log[:i]
        return self._quiet_input, "events", runs

    def consume_output(self, outputs: tuple) -> None:
        rvalid, rdata, irq = outputs
        if rvalid:
            if not self._pending_reads:
                raise RuntimeError(f"{self.name}: rvalid with no pending read")
            pkt = self._pending_reads.popleft()
            data = rdata.to_bytes(4, "little")
            if pkt.size != 4:
                data = data[: pkt.size].ljust(pkt.size, b"\0")
            self.respond_cpu(pkt, data)
        if irq:
            self.st_interrupts.inc()
            for handler in self._interrupt_handlers:
                handler(self.now)
