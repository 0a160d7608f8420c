"""The RTL cache as a MESI coherence participant.

:class:`RTLCoherentCacheObject` places the ``SNOOP`` configuration of
``rtl_cache.v`` beside behavioral
:class:`~repro.coherence.l1.CoherentL1Cache` instances under the same
snooping directory.  The design is write-through, so the
bridge maps it onto a strict subset of MESI: every resident line is S,
misses are GetS requests (``wt_participant`` grants are always S),
stores are 8-byte coherent write-throughs serialized at the directory,
and the cache is never an owner — probes against it are always
invalidates and never need a data response.

Translation contract (see DESIGN.md):

* **Mirror.**  The bridge keeps a line mirror — the directory-visible
  protocol state — updated synchronously at serialization points
  (grants, probes).  Express probes are answered from the mirror inside
  the directory's own event; the RTL itself is told later.
* **Pin probes.**  Each mirrored invalidation is replayed into the
  design's snoop port (``snoop_valid``/``snoop_addr`` in,
  ``snoop_ack``/``snoop_hit`` out) one per cycle, only while the
  request pins are idle and no fill is in flight.  New CPU requests are
  held back until the probe backlog drains, so the pins never observe a
  line the protocol has already taken away.
* **Lockstep.**  Every probe must hit exactly when the bridge's
  pin-view says the line is resident; every response's hit flag and
  read data must match the mirror (posted write-throughs overlaid).
  Any divergence raises :class:`~repro.coherence.protocol.ProtocolError`.
* **Posted stores.**  A write hit updates the RTL line at the edge but
  serializes at the directory when the write-through lands; until the
  ack returns, the mirror keeps the pre-store bytes and the in-flight
  store rides in an overlay list (audits skip the byte-compare for
  such lines, and a concurrent invalidate demotes the in-flight
  packet's ``wt_hit`` so the directory's desync check stays exact).
"""

from __future__ import annotations

from collections import deque
from typing import Iterator, Optional, Tuple

from ...bridge.structs import Field, StructSpec
from ...coherence.protocol import ProtocolError, State
from ...soc.event import ClockDomain
from ...soc.packet import MemCmd, Packet
from ...soc.simobject import (DEQUE, PACKED, RECORDS, SORTED_PAIRS,
                              SORTED_ROWS, VALUE, SimObject, Simulation)
from .wrapper import (
    FILL_LANES,
    LINE_BYTES,
    RTLCACHE_INPUT,
    RTLCACHE_OUTPUT,
    RTLCacheObject,
    RTLCacheSharedLibrary,
)

RTLCACHE_COH_INPUT = StructSpec(
    "rtlcache_coh_in",
    RTLCACHE_INPUT.fields + [
        Field("snoop_valid", 1),
        Field("snoop_addr", 32),
    ],
)

RTLCACHE_COH_OUTPUT = StructSpec(
    "rtlcache_coh_out",
    RTLCACHE_OUTPUT.fields + [
        Field("snoop_ack", 1),
        Field("snoop_hit", 1),
        Field("snoops", 32),
    ],
)


class RTLCacheCohSharedLibrary(RTLCacheSharedLibrary):
    """tick/reset wrapper around the coherent (``SNOOP``) configuration."""

    input_spec = RTLCACHE_COH_INPUT
    output_spec = RTLCACHE_COH_OUTPUT
    pins = {**RTLCacheSharedLibrary.pins, "snoops": "snoop_count"}
    params = {"ECC": 0, "SNOOP": 1}


class RTLCoherentCacheObject(RTLCacheObject):
    """The coherent RTL cache bridged into the MESI directory as an
    S-only L1.

    cpu_side[0] accepts 8-byte reads/writes; mem_side[0] issues coherent
    GetS fills and write-throughs and answers the directory's express
    probes from the mirror.
    """

    ckpt_state = (
        ("coh.mirror", "_mirror", SORTED_ROWS),
        ("coh.rtl_tags", "_rtl_tags", SORTED_PAIRS),
        ("coh.pending_snoops", "_pending_snoops", DEQUE),
        ("coh.pin_snoop", "_pin_snoop", VALUE),
        ("coh.current", "_current", PACKED),
        ("coh.waiting_fill", "_waiting_fill", VALUE),
        ("coh.fill_words", "_fill_words", VALUE),
        ("coh.fill_block", "_fill_block", VALUE),
        ("coh.expect_hit", "_current_expect_hit", VALUE),
        ("coh.raced", "_current_raced", VALUE),
        ("coh.inflight_wt", "_inflight_wt", RECORDS),
    )

    def __init__(
        self,
        sim: Simulation,
        name: str,
        library: Optional[RTLCacheCohSharedLibrary] = None,
        clock: Optional[ClockDomain] = None,
        parent: Optional[SimObject] = None,
    ) -> None:
        super().__init__(sim, name, library or RTLCacheCohSharedLibrary(),
                         clock=clock, parent=parent)
        self.lines = self.library.lines
        # directory-visible protocol state: idx -> [block, bytes(64)]
        self._mirror: dict[int, list] = {}
        # pin-visible state: idx -> block the RTL actually holds valid
        self._rtl_tags: dict[int, int] = {}
        self._pending_snoops: deque[int] = deque()
        self._pin_snoop: Optional[int] = None   # probe at the pins this tick
        self._fill_block: Optional[int] = None  # granted, fill not installed
        self._fill_installing: Optional[int] = None  # fill driven this tick
        self._current_expect_hit = False
        self._current_raced = False
        # posted write-throughs: [{"pkt", "block", "off", "data"}, ...]
        self._inflight_wt: list[dict] = []
        self.st_invalidations = self.stats.scalar(
            "invalidations", "coherence invalidations applied to the mirror")
        self.st_rtl_snoops = self.stats.formula(
            "rtl_snoops", lambda: self.library.sim.peek("snoop_count"))

    # -- coherence participant surface -------------------------------------

    @property
    def coh_id(self) -> str:
        return self.path()

    def _idx(self, block: int) -> int:
        return (block >> 6) % self.lines

    def iter_lines(self) -> Iterator[Tuple[int, State, Optional[bytes]]]:
        """(block, state, bytes|None) for every mirrored line.  Lines
        with a posted (not yet serialized) store yield ``None`` bytes —
        their memory image is in flight, so audits skip the compare."""
        posted = {wt["block"] for wt in self._inflight_wt}
        for _idx, (block, data) in sorted(self._mirror.items()):
            yield block, State.SHARED, (None if block in posted
                                        else data)

    @property
    def quiet(self) -> bool:
        return (self._current is None and not self.cpu_req_queue
                and not self._waiting_fill and self._fill_words is None
                and not self.mem_resp_queue and not self._pending_snoops
                and self._pin_snoop is None and not self._inflight_wt
                and not self.inflight)

    # -- express probes (inside the directory's event) ----------------------

    def recv_snoop_mem(self, pkt: Packet) -> None:
        kind = pkt.meta.get("snoop")
        if kind == "grant":
            if pkt.meta.get("dest") == self.coh_id:
                self._snooped()
                self._apply_grant(pkt)
            return
        if pkt.meta.get("origin") == self.coh_id:
            return
        block = pkt.block_addr(LINE_BYTES)
        entry = self._mirror.get(self._idx(block))
        holds = entry is not None and entry[0] == block
        if self.coh_id not in pkt.meta.get("targets", ()):
            if holds:
                raise ProtocolError(
                    f"{self.coh_id}: holds block {block:#x} but was not "
                    f"targeted by {kind} snoop"
                )
            return
        if not holds:
            raise ProtocolError(
                f"{self.coh_id}: {kind} snoop for block {block:#x} it "
                "does not hold"
            )
        if kind != "inv":
            raise ProtocolError(
                f"{self.coh_id}: {kind} snoop targets a write-through "
                f"participant (block {block:#x}); it never owns a line"
            )
        self._snooped()
        self.st_invalidations.inc()
        del self._mirror[self._idx(block)]
        self._pending_snoops.append(block)
        if (self._current is not None
                and self._current.block_addr(LINE_BYTES) == block):
            self._current_raced = True
        self._demote_posted(block)
        pkt.meta.setdefault("snoop_hits", []).append(self.coh_id)

    def _snooped(self) -> None:
        """A grant or probe aimed at us feeds an edge to come: the lag
        ends first.  Not bound at the port (``ends_owing``): a snoop
        aimed elsewhere reaches us too, and must leave the lag be."""
        if self._owed:
            self.input_changes()

    def _demote_posted(self, block: int) -> None:
        """The line just left us: posted stores to it now serialize as
        misses — fix their ``wt_hit`` before the directory sees them."""
        for wt in self._inflight_wt:
            if wt["block"] == block:
                wt["pkt"].meta["wt_hit"] = False

    def _apply_grant(self, pkt: Packet) -> None:
        block = pkt.block_addr(LINE_BYTES)
        state = pkt.meta.get("grant_state")
        if state != "S":
            raise ProtocolError(
                f"{self.coh_id}: granted block {block:#x} in {state}; a "
                "write-through participant only ever holds S"
            )
        data = pkt.meta.get("grant_data")
        if data is None:
            raise ProtocolError(
                f"{self.coh_id}: dataless grant for block {block:#x}"
            )
        if not self._waiting_fill or self._fill_block is not None:
            raise ProtocolError(
                f"{self.coh_id}: unexpected grant for block {block:#x}"
            )
        idx = self._idx(block)
        victim = self._mirror.get(idx)
        if victim is not None:
            if victim[0] == block:
                raise ProtocolError(
                    f"{self.coh_id}: granted block {block:#x} it already "
                    "holds"
                )
            # direct-mapped replacement: report the (always clean)
            # victim on the grant so the directory can unbook it
            pkt.meta.setdefault("evictions", []).append(
                {"cache": self.coh_id, "block": victim[0],
                 "dirty": False, "data": None}
            )
            self._demote_posted(victim[0])
        self._mirror[idx] = [block, bytes(data)]
        self._fill_block = block

    # -- struct exchange ---------------------------------------------------

    def bridge_quiet(self) -> bool:
        """As the plain cache's, with ``snoop_valid`` low too: no probe
        queued or at the pins, and the last output did not ack one.  A
        probe or a grant ends the lag before it lands
        (:meth:`recv_snoop_mem`)."""
        return (not self._pending_snoops and self._pin_snoop is None
                and not self.last_output["snoop_ack"]
                and super().bridge_quiet())

    def build_input(self) -> bytes:
        fields: dict = {}
        # Replay one mirrored invalidation per cycle, only while the
        # request pins are idle and no fill is in flight (index hazard).
        pins_idle = (self._current is None and not self._waiting_fill
                     and self._fill_words is None)
        if self._pin_snoop is None and self._pending_snoops and pins_idle:
            self._pin_snoop = self._pending_snoops.popleft()
        if self._pin_snoop is not None:
            fields["snoop_valid"] = 1
            fields["snoop_addr"] = self._pin_snoop & 0xFFFF_FFFF
        elif (self._current is None and not self._pending_snoops
                and self.cpu_req_queue):
            # admit a request only once the probe backlog has drained,
            # so the pins never see a line the protocol already took
            pkt = self.cpu_req_queue.popleft()
            self._current = pkt
            block = pkt.block_addr(LINE_BYTES)
            entry = self._mirror.get(self._idx(block))
            self._current_expect_hit = (entry is not None
                                        and entry[0] == block)
            self._current_raced = False

        pkt = self._current
        if pkt is not None:
            fields["req_valid"] = 1
            fields["req_write"] = 1 if pkt.is_write else 0
            fields["req_addr"] = pkt.addr & 0xFFFF_FFFF
            if pkt.is_write and pkt.data is not None:
                fields["req_wdata"] = int.from_bytes(
                    pkt.data[:8].ljust(8, b"\0"), "little"
                )

        if self._fill_words is not None:
            fields["fill_valid"] = 1
            fields["fill_data"] = self._fill_words
            self._fill_words = None
            self._fill_installing = self._fill_block
        return self.library.input_spec.pack(**fields)

    def _expected_word(self, block: int, off: int) -> Optional[bytes]:
        """Mirror bytes for one word, with posted stores overlaid (the
        RTL line already has them; memory does not yet)."""
        entry = self._mirror.get(self._idx(block))
        if entry is None or entry[0] != block:
            return None
        word = entry[1][off:off + 8]
        for wt in self._inflight_wt:
            if wt["block"] == block and wt["off"] == off:
                word = wt["data"]
        return word

    def consume_output(self, outputs: dict) -> None:
        if outputs["snoop_ack"]:
            block = self._pin_snoop
            if block is None:
                raise RuntimeError(f"{self.name}: snoop ack with no probe")
            idx = self._idx(block)
            expected = self._rtl_tags.get(idx) == block
            got = bool(outputs["snoop_hit"])
            if got != expected:
                raise ProtocolError(
                    f"{self.coh_id}: lockstep divergence on probe of block "
                    f"{block:#x}: RTL hit={got}, bridge expected {expected}"
                )
            if got:
                del self._rtl_tags[idx]
            self._pin_snoop = None

        if outputs["miss_valid"]:
            self._waiting_fill = True
            self.send_mem_read(
                outputs["miss_addr"], LINE_BYTES,
                meta={"coh_origin": self.coh_id, "wt_participant": True},
            )

        if outputs["wt_valid"]:
            addr = int(outputs["wt_addr"])
            data = int(outputs["wt_data"]).to_bytes(8, "little")
            block = addr & ~(LINE_BYTES - 1)
            entry = self._mirror.get(self._idx(block))
            wt_hit = entry is not None and entry[0] == block
            wt_pkt = Packet(MemCmd.WriteReq, addr, 8, data=data,
                            requestor=self.name)
            wt_pkt.meta.update(coh_origin=self.coh_id, wt_participant=True,
                               wt_hit=wt_hit)
            self._inflight_wt.append({"pkt": wt_pkt, "block": block,
                                      "off": (addr - block) & ~0x7,
                                      "data": data})
            self._issue_mem(wt_pkt, 0, False)

        if outputs["resp_valid"]:
            pkt = self._current
            if pkt is None:
                raise RuntimeError(f"{self.name}: response with no request")
            filled, self._fill_installing = self._fill_installing, None
            block = pkt.block_addr(LINE_BYTES)
            if filled is not None:
                self._rtl_tags[self._idx(filled)] = filled
                self._fill_block = None
            got_hit = bool(outputs["resp_was_hit"])
            if got_hit != self._current_expect_hit:
                raise ProtocolError(
                    f"{self.coh_id}: lockstep divergence on "
                    f"{pkt.cmd.name} {pkt.addr:#x}: RTL hit={got_hit}, "
                    f"mirror expected {self._current_expect_hit}"
                )
            self._current = None
            self._waiting_fill = False
            if pkt.is_read:
                rdata = int(outputs["resp_rdata"]).to_bytes(8, "little")
                if not self._current_raced:
                    expected = self._expected_word(
                        block, (pkt.addr - block) & ~0x7)
                    if expected is not None and rdata != expected:
                        raise ProtocolError(
                            f"{self.coh_id}: lockstep divergence on read "
                            f"of {pkt.addr:#x}: RTL returned "
                            f"{rdata.hex()}, mirror holds {expected.hex()}"
                        )
                self.respond_cpu(pkt, rdata[: pkt.size])
            else:
                self.respond_cpu(pkt)

        # deliver pending fills / retire posted stores
        while self.mem_resp_queue:
            resp = self.mem_resp_queue.popleft()
            if resp.is_read and resp.size == LINE_BYTES:
                data = resp.data or b"\0" * LINE_BYTES
                self._fill_words = [
                    int.from_bytes(data[8 * i: 8 * i + 8], "little")
                    for i in range(FILL_LANES)
                ]
            elif resp.is_write:
                self._retire_posted(resp)

    def _retire_posted(self, resp: Packet) -> None:
        """A write-through serialized at the directory (memory is
        current): fold it into the mirror if the line is still ours."""
        if not self._inflight_wt:
            raise RuntimeError(
                f"{self.name}: write-through ack with no posted store")
        wt = self._inflight_wt.pop(0)
        if wt["block"] + wt["off"] != (resp.addr & ~0x7):
            raise RuntimeError(
                f"{self.name}: out-of-order write-through ack "
                f"({resp.addr:#x})"
            )
        entry = self._mirror.get(self._idx(wt["block"]))
        if entry is not None and entry[0] == wt["block"]:
            line, off = entry[1], wt["off"]
            entry[1] = line[:off] + wt["data"] + line[off + 8:]

    # -- checkpointing ----------------------------------------------------

    # The mirror and the pins' bookkeeping are saved under "coh", so a
    # request held at the pins is state here, not a veto.
    ckpt_veto = SimObject.ckpt_veto
