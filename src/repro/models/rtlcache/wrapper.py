"""Shared-library wrapper and RTLObject for the RTL cache (Fig. 2a).

The cache RTL stores actual data, so CPU reads served by this object
return bytes that flowed through the hardware model: request in through
the input struct, 512-bit line fills in through the fill lanes, data
word back out through the output struct.
"""

from __future__ import annotations

import importlib.resources
from typing import Optional, TextIO

from ...bridge.rtl_object import LAG_LIMIT, RTLObject
from ...bridge.shared_library import RTLSharedLibrary
from ...bridge.structs import Field, StructSpec
from ...hdl.verilog import compile_verilog
from ...rtl.kernel import RTLModule
from ...soc.event import ClockDomain
from ...soc.packet import Packet
from ...soc.simobject import SimObject, Simulation

LINE_BYTES = 64
FILL_LANES = 8  # 8 x 64-bit words = one 512-bit line

RTLCACHE_INPUT = StructSpec(
    "rtlcache_in",
    [
        Field("req_valid", 1),
        Field("req_write", 1),
        Field("req_addr", 32),
        Field("req_wdata", 64),
        Field("fill_valid", 1),
        Field("fill_data", 64, count=FILL_LANES),
    ],
)

RTLCACHE_OUTPUT = StructSpec(
    "rtlcache_out",
    [
        Field("resp_valid", 1),
        Field("resp_rdata", 64),
        Field("resp_was_hit", 1),
        Field("miss_valid", 1),
        Field("miss_addr", 32),
        Field("wt_valid", 1),
        Field("wt_addr", 32),
        Field("wt_data", 64),
        Field("hits", 32),
        Field("misses", 32),
    ],
)

RTLCACHE_ECC_OUTPUT = StructSpec(
    "rtlcache_ecc_out",
    RTLCACHE_OUTPUT.fields + [Field("corrections", 32)],
)


def load_rtl_cache_source() -> str:
    """Text of the bundled RTL cache design, ``rtl_cache.v``."""
    return (
        importlib.resources.files("repro.models.rtlcache")
        .joinpath("rtl_cache.v")
        .read_text(encoding="utf-8")
    )


class RTLCacheSharedLibrary(RTLSharedLibrary):
    """tick/reset wrapper around the compiled rtl_cache design.

    A configuration names its structs, its pins and the ``ECC``/``SNOOP``
    parameters of ``rtl_cache.v`` it drives; the constructor is shared.
    """

    input_spec = RTLCACHE_INPUT
    output_spec = RTLCACHE_OUTPUT
    # fill_data: the eight 64-bit lanes land on the one 512-bit pin
    pins = {"hits": "hit_count", "misses": "miss_count"}
    params = {"ECC": 0, "SNOOP": 0}

    def __init__(
        self,
        idxw: int = 6,
        trace_stream: Optional[TextIO] = None,
        trace_enabled: bool = False,
        backend: str = "codegen",
    ) -> None:
        super().__init__(self.design(idxw), trace_stream=trace_stream,
                         trace_enabled=trace_enabled, backend=backend)
        self.lines = 1 << idxw

    @classmethod
    def design(cls, idxw: int = 6) -> RTLModule:
        """This configuration's elaborated ``rtl_cache.v``, without
        building a simulator (identical calls share one design through
        the elaboration cache)."""
        return compile_verilog(
            load_rtl_cache_source(), top="rtl_cache",
            params={"IDXW": idxw, **cls.params},
        )


class RTLCacheECCSharedLibrary(RTLCacheSharedLibrary):
    """tick/reset wrapper around the parity-protected configuration.

    Same port discipline as the base cache plus a ``corrections``
    counter — a parity mismatch on a read hit refetches the line from
    memory instead of serving corrupted data.
    """

    output_spec = RTLCACHE_ECC_OUTPUT
    params = {"ECC": 1, "SNOOP": 0}


class RTLCacheObject(RTLObject):
    """Places the RTL cache between a requestor and the memory system.

    cpu_side[0] accepts 8-byte reads/writes; mem_side[0] issues 64-byte
    line fills and 8-byte write-throughs.
    """

    def __init__(
        self,
        sim: Simulation,
        name: str,
        library: Optional[RTLCacheSharedLibrary] = None,
        clock: Optional[ClockDomain] = None,
        parent: Optional[SimObject] = None,
    ) -> None:
        super().__init__(sim, name, library or RTLCacheSharedLibrary(),
                         clock=clock, parent=parent)
        self._current: Optional[Packet] = None   # request held at the pins
        self._waiting_fill = False
        self._fill_words: Optional[list[int]] = None
        self.st_rtl_hits = self.stats.formula(
            "rtl_hits", lambda: self.library.sim.peek("hit_count"))
        self.st_rtl_misses = self.stats.formula(
            "rtl_misses", lambda: self.library.sim.peek("miss_count"))
        if self.library.params["ECC"]:
            # detected-and-corrected upsets
            self.st_rtl_corrections = self.stats.formula(
                "rtl_corrections",
                lambda: self.library.sim.peek("corrections"))

    # -- struct exchange ---------------------------------------------------

    def lag_cycles(self) -> int:
        """Lag while no request, fill or response is in play: the input
        struct stays all-zero (``req_valid`` and ``fill_valid`` low), and
        with them low the design's outputs cannot move.  The last output
        consumed must have announced nothing, or it could repeat
        unnoticed.  A CPU-side request and a memory-side response each
        end the lag before they land."""
        if (self._current is None and not self.cpu_req_queue
                and not self._waiting_fill and self._fill_words is None
                and not self.mem_resp_queue):
            last = self.last_output
            if not (last["resp_valid"] or last["miss_valid"]
                    or last["wt_valid"]):
                return LAG_LIMIT
        return 0

    def build_input(self) -> bytes:
        fields: dict = {}
        if self._current is None and self.cpu_req_queue:
            self._current = self.cpu_req_queue.popleft()

        # Hold the request at the pins until the RTL responds (the cache
        # derives index/tag from req_addr, including at fill time).
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
        return self.library.input_spec.pack(**fields)

    def ckpt_veto(self):
        # the request held at the pins and the fill it waits for are not
        # saved: a checkpoint waits until the response has gone out
        if (self._current is not None or self._waiting_fill
                or self._fill_words is not None):
            return "a request is at the pins"
        return None

    def consume_output(self, outputs: dict) -> None:
        if outputs["miss_valid"]:
            self._waiting_fill = True
            self.send_mem_read(outputs["miss_addr"], LINE_BYTES)
        if outputs["wt_valid"]:
            self.send_mem_write(
                outputs["wt_addr"], 8,
                data=int(outputs["wt_data"]).to_bytes(8, "little"),
            )
        if outputs["resp_valid"]:
            pkt = self._current
            if pkt is None:
                raise RuntimeError(f"{self.name}: response with no request")
            self._current = None
            self._waiting_fill = False
            if pkt.is_read:
                self.respond_cpu(
                    pkt,
                    int(outputs["resp_rdata"]).to_bytes(8, "little")[: pkt.size],
                )
            else:
                self.respond_cpu(pkt)

        # deliver a pending fill for the next tick
        while self.mem_resp_queue:
            resp = self.mem_resp_queue.popleft()
            if resp.is_read and resp.size == LINE_BYTES:
                data = resp.data or b"\0" * LINE_BYTES
                self._fill_words = [
                    int.from_bytes(data[8 * i : 8 * i + 8], "little")
                    for i in range(FILL_LANES)
                ]
            # write-through acks need no action
