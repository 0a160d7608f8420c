"""Coherent crossbar (Table 1: 128-bit wide, 2-cycle latency).

Connects N upstream requestors (CPU-side) to M downstream responders
(memory-side) with address-range routing.  Each layer adds the crossbar
latency and models the 128-bit datapath as a per-downstream-port (and
per-upstream-port for responses) bandwidth of 16 bytes/cycle.  Requests
carry the upstream port index in their sender-state stack so responses
route back without a global table — the same discipline gem5 uses.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Optional

from ...trace import packets as pkttrace
from ...trace.flags import debug_flag, tracepoint
from ..packet import Packet
from ..ports import RequestPort, ResponsePort
from ..simobject import SimObject, Simulation

FLAG_XBAR = debug_flag("Xbar", "crossbar routing, queueing and rejects")


@dataclass(frozen=True)
class AddrRange:
    """[start, end) with optional modulo interleaving.

    With ``intlv_count > 1`` the range only matches addresses whose
    64-byte block number is congruent to ``intlv_match`` modulo
    ``intlv_count`` — how multi-channel memory is spread across several
    crossbar ports (gem5's interleaved AddrRange).
    """

    start: int
    end: int  # exclusive
    intlv_count: int = 1
    intlv_match: int = 0

    def contains(self, addr: int) -> bool:
        if not self.start <= addr < self.end:
            return False
        if self.intlv_count == 1:
            return True
        return (addr // 64) % self.intlv_count == self.intlv_match


_ALL = AddrRange(0, 1 << 64)


class Crossbar(SimObject):
    """N×M coherent crossbar with queued, bandwidth-limited layers."""

    WIDTH_BYTES = 16  # 128-bit datapath

    def __init__(
        self,
        sim: Simulation,
        name: str,
        latency_cycles: int = 2,
        queue_depth: int = 16,
        parent: Optional[SimObject] = None,
    ) -> None:
        super().__init__(sim, name, parent)
        self.latency_cycles = latency_cycles
        self.queue_depth = queue_depth
        self.cpu_ports: list[ResponsePort] = []
        self.mem_ports: list[RequestPort] = []
        # The routing table: (start, end, intlv_count, port per
        # intlv_match) in port order, consecutive ports interleaving one
        # span folded into one row, so first-match order is the ports'.
        self._routes: list[tuple[int, int, int, list[Optional[int]]]] = []
        # per-downstream-port request queues, per-upstream response queues
        self._req_q: list[deque[Packet]] = []
        self._resp_q: list[deque[Packet]] = []
        self._req_busy: list[bool] = []
        self._resp_busy: list[bool] = []
        # upstream ports we owe a request-retry, in arrival order
        self._pending_retries: deque[int] = deque()
        self._retry_rejected = False
        # fault injection (repro.resilience): while True, every request
        # is rejected as if the target queue were full
        self.fault_reject = False

        s = self.stats
        self.st_reqs = s.scalar("requests", "requests forwarded")
        self.st_resps = s.scalar("responses", "responses forwarded")
        self.st_rejects = s.scalar("rejects", "requests rejected (queue full)")

    # -- construction -----------------------------------------------------

    def new_cpu_port(self) -> ResponsePort:
        """Add an upstream-facing port (connect a core/cache/RTLObject)."""
        idx = len(self.cpu_ports)
        port = ResponsePort(
            f"{self.name}.cpu{idx}",
            recv_timing_req=lambda pkt, i=idx: self._recv_req(pkt, i),
            recv_resp_retry=lambda i=idx: self._drain_resp(i),
            recv_functional=self._functional,
        )
        self.cpu_ports.append(port)
        self._resp_q.append(deque())
        self._resp_busy.append(False)
        return port

    def new_mem_port(self, addr_range: Optional[AddrRange] = None) -> RequestPort:
        """Add a downstream-facing port covering *addr_range*."""
        idx = len(self.mem_ports)
        port = RequestPort(
            f"{self.name}.mem{idx}",
            recv_timing_resp=self._recv_resp,
            recv_req_retry=lambda i=idx: self._drain_req(i),
        )
        self.mem_ports.append(port)
        rng = addr_range or _ALL
        span = (rng.start, rng.end, rng.intlv_count)
        if not self._routes or self._routes[-1][:3] != span:
            self._routes.append((*span, [None] * rng.intlv_count))
        slots = self._routes[-1][3]
        if slots[rng.intlv_match] is None:
            slots[rng.intlv_match] = idx
        self._req_q.append(deque())
        self._req_busy.append(False)
        return port

    def route(self, addr: int) -> int:
        for start, end, count, ports in self._routes:
            if start <= addr < end:
                idx = ports[addr // 64 % count]
                if idx is not None:
                    return idx
        raise ValueError(f"{self.name}: no route for address {addr:#x}")

    # -- request path ---------------------------------------------------------

    def _recv_req(self, pkt: Packet, cpu_idx: int) -> bool:
        mem_idx = self.route(pkt.addr)
        queue = self._req_q[mem_idx]
        if self.fault_reject or len(queue) >= self.queue_depth:
            self.st_rejects.inc()
            self._retry_rejected = True
            if cpu_idx not in self._pending_retries:
                self._pending_retries.append(cpu_idx)
            if FLAG_XBAR.enabled:
                tracepoint(
                    FLAG_XBAR, self.name,
                    "reject %s #%d addr=%#x: mem%d queue full (%d)",
                    pkt.cmd.name, pkt.pkt_id, pkt.addr, mem_idx,
                    len(queue), tick=self.now,
                )
            return False
        if FLAG_XBAR.enabled:
            tracepoint(
                FLAG_XBAR, self.name,
                "route %s #%d addr=%#x cpu%d -> mem%d (depth %d)",
                pkt.cmd.name, pkt.pkt_id, pkt.addr, cpu_idx, mem_idx,
                len(queue) + 1, tick=self.now,
            )
        if pkttrace.FLAG_PACKET.enabled:
            pkt.record_hop(self.name, self.now)
        pkt.push_state(("xbar_src", cpu_idx))
        self.st_reqs.inc()
        queue.append(pkt)
        self._kick_req(mem_idx)
        return True

    def _kick_req(self, mem_idx: int) -> None:
        if self._req_busy[mem_idx] or not self._req_q[mem_idx]:
            return
        self._req_busy[mem_idx] = True
        pkt = self._req_q[mem_idx][0]
        # The layer is pipelined: back-to-back packets are spaced by the
        # datapath occupancy; the port latency only matters when it
        # exceeds the serialisation time.
        occupancy = max(1, (pkt.size + self.WIDTH_BYTES - 1) // self.WIDTH_BYTES)
        delay = self.clock.cycles_to_ticks(max(self.latency_cycles, occupancy))
        self.sched_ckpt("fwd_req", mem_idx, self.now + delay)

    def _forward_req(self, mem_idx: int) -> None:
        self._req_busy[mem_idx] = False
        queue = self._req_q[mem_idx]
        if not queue:
            return
        pkt = queue[0]
        if self.mem_ports[mem_idx].send_timing_req(pkt):
            queue.popleft()
            # A slot freed: let a waiting upstream retry, then move on.
            self._issue_retries()
            self._kick_req(mem_idx)
        # else: wait for recv_req_retry -> _drain_req

    def _drain_req(self, mem_idx: int) -> None:
        queue = self._req_q[mem_idx]
        while queue:
            pkt = queue[0]
            if not self.mem_ports[mem_idx].send_timing_req(pkt):
                return
            queue.popleft()
        self._issue_retries()

    def _issue_retries(self) -> None:
        # Bounded: one pass over the currently-pending requestors, stopping
        # as soon as a retried requestor is rejected again (queue refilled).
        # An unbounded loop here livelocks: pop -> retry -> reject ->
        # re-append -> pop ... all at the same tick.
        for _ in range(len(self._pending_retries)):
            if not self._pending_retries:
                break
            self._retry_rejected = False
            cpu_idx = self._pending_retries.popleft()
            self.cpu_ports[cpu_idx].send_retry_req()
            if self._retry_rejected:
                break

    # -- response path -----------------------------------------------------------

    def _recv_resp(self, pkt: Packet) -> bool:
        tag, cpu_idx = pkt.pop_state()
        assert tag == "xbar_src"
        if FLAG_XBAR.enabled:
            tracepoint(
                FLAG_XBAR, self.name,
                "resp %s #%d addr=%#x -> cpu%d",
                pkt.cmd.name, pkt.pkt_id, pkt.addr, cpu_idx, tick=self.now,
            )
        self.st_resps.inc()
        self._resp_q[cpu_idx].append(pkt)
        self._kick_resp(cpu_idx)
        return True

    def _kick_resp(self, cpu_idx: int) -> None:
        if self._resp_busy[cpu_idx] or not self._resp_q[cpu_idx]:
            return
        self._resp_busy[cpu_idx] = True
        pkt = self._resp_q[cpu_idx][0]
        occupancy = max(1, (pkt.size + self.WIDTH_BYTES - 1) // self.WIDTH_BYTES)
        delay = self.clock.cycles_to_ticks(max(self.latency_cycles, occupancy))
        self.sched_ckpt("fwd_resp", cpu_idx, self.now + delay)

    def _forward_resp(self, cpu_idx: int) -> None:
        self._resp_busy[cpu_idx] = False
        queue = self._resp_q[cpu_idx]
        if not queue:
            return
        pkt = queue[0]
        if self.cpu_ports[cpu_idx].send_timing_resp(pkt):
            queue.popleft()
            self._kick_resp(cpu_idx)

    def _drain_resp(self, cpu_idx: int) -> None:
        queue = self._resp_q[cpu_idx]
        while queue:
            pkt = queue[0]
            if not self.cpu_ports[cpu_idx].send_timing_resp(pkt):
                return
            queue.popleft()

    # -- functional -----------------------------------------------------------------

    def _functional(self, pkt: Packet) -> None:
        self.mem_ports[self.route(pkt.addr)].send_functional(pkt)

    # -- checkpointing -----------------------------------------------------------------

    def ckpt_dispatch(self, kind: str, payload) -> None:
        if kind == "fwd_req":
            self._forward_req(payload)
        elif kind == "fwd_resp":
            self._forward_resp(payload)
        else:
            super().ckpt_dispatch(kind, payload)

    def serialize(self, ctx) -> dict:
        return {
            "req_q": [[ctx.pack(p) for p in q] for q in self._req_q],
            "resp_q": [[ctx.pack(p) for p in q] for q in self._resp_q],
            "req_busy": list(self._req_busy),
            "resp_busy": list(self._resp_busy),
            "pending_retries": list(self._pending_retries),
            "retry_rejected": self._retry_rejected,
        }

    def unserialize(self, state: dict, ctx) -> None:
        self._req_q = [deque(ctx.unpack(p) for p in q)
                       for q in state["req_q"]]
        self._resp_q = [deque(ctx.unpack(p) for p in q)
                        for q in state["resp_q"]]
        self._req_busy = list(state["req_busy"])
        self._resp_busy = list(state["resp_busy"])
        self._pending_retries = deque(state["pending_retries"])
        self._retry_rejected = state["retry_rejected"]
