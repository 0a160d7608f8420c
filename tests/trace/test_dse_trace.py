"""The tracepoints of a DSE point, pinned as text.

A hot-path rewrite of the bridge, the crossbar, the DRAM or the ports
must keep every tracepoint it passes, in order and with the same
arguments: the sha256 of the whole trace of a small 1-NVDLA point is
pinned, so a dropped, reordered or reworded line fails here.
"""

import hashlib
from io import StringIO

from repro.dse.nvdla_system import build_nvdla_system
from repro.soc.packet import set_next_packet_id
from repro.trace.flags import set_flags, set_sink

#: sha256 of the trace text of the point below (1 123 lines: Ports 468,
#: Xbar 234, RTL 234, DRAM 187); the Packet flag adds the hop
#: histograms, which write no text
TRACE_SHA256 = (
    "23311a36d429e106d817044357b723450675bcf6bd3ab49faf0da5d7404c41c0"
)


def test_trace_of_a_dse_point_is_pinned():
    system = build_nvdla_system("sanity3", n_nvdla=1, memory="DDR4-4ch",
                                max_inflight=240, scale=0.05)
    sink = StringIO()
    set_next_packet_id(0)
    set_flags(["RTL", "DRAM", "Xbar", "Ports", "Packet"], strict=True)
    set_sink(sink)
    assert system.run_to_completion() == 326_500
    text = sink.getvalue()
    assert text.count("\n") == 1_123
    assert hashlib.sha256(text.encode()).hexdigest() == TRACE_SHA256
