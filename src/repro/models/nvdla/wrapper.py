"""Shared-library wrapper for the NVDLA model (paper Fig. 4).

Mirrors the NVIDIA-provided wrapper classes the paper adapts: a *CSB
wrapper* translating configuration-bus operations, and an *AXI responder
wrapper* whose ideal-memory behaviour is replaced by forwarding requests
to the RTLObject through the output struct (exactly the modification the
paper describes in §4.2).
"""

from __future__ import annotations

from ...bridge.shared_library import BehavioralSharedLibrary
from ...bridge.structs import Field, StructSpec
from ...soc.simobject import OWNED
from .core import NVDLACore, REQ_LANES

#: max read responses / write acks the bridge delivers per accelerator cycle
RESP_LANES = 4
MAX_WR_ACKS = 7

NVDLA_INPUT = StructSpec(
    "nvdla_in",
    [
        Field("csb_valid", 1),
        Field("csb_write", 1),
        Field("csb_addr", 12),
        Field("csb_wdata", 32),
        Field("credit", 8),                 # in-flight budget this cycle
        Field("rd_resp_count", 3),
        Field("rd_resp_seqs", 32, count=RESP_LANES),
        Field("wr_acks", MAX_WR_ACKS.bit_length()),
    ],
)

NVDLA_OUTPUT = StructSpec(
    "nvdla_out",
    [
        Field("csb_rvalid", 1),
        Field("csb_rdata", 32),
        Field("rd_count", 3),
        Field("rd_seqs", 32, count=REQ_LANES),
        Field("rd_addrs", 48, count=REQ_LANES),
        Field("rd_ports", 1, count=REQ_LANES),
        Field("wr_count", 3),
        Field("wr_addrs", 48, count=REQ_LANES),
        Field("irq", 1),
    ],
)


#: the masks ``unpack`` applied: the input fields narrower than a slot
_VALID, _WRITE, _ADDR, _COUNT, _ACKS = (
    field.mask for field in NVDLA_INPUT if field.name in (
        "csb_valid", "csb_write", "csb_addr", "rd_resp_count", "wr_acks"))

#: the unused lanes of a cycle's reads (seq, addr, port) and writes
_NO_READS = ((0, 0, 0),) * REQ_LANES
_NO_WRITES = (0,) * REQ_LANES


class NVDLASharedLibrary(BehavioralSharedLibrary):
    """tick/reset wrapper around :class:`NVDLACore`."""

    input_spec = NVDLA_INPUT
    output_spec = NVDLA_OUTPUT
    ckpt_state = (("model", "core", OWNED),)

    #: what a cycle that produced nothing answers
    quiet = NVDLA_OUTPUT.values(NVDLA_OUTPUT.zeros())

    def __init__(self) -> None:
        self.core = NVDLACore()

    def reset(self) -> None:
        super().reset()
        self.core.reset()

    def tick(self, inputs: tuple) -> tuple:
        """One cycle, fields in and fields out; an input narrower than
        its slot is masked to its width as ``unpack`` did, and a
        response count is cut to the lanes by the slice."""
        (valid, write, addr, wdata, credit, resp_count, resp_seqs,
         wr_acks) = inputs
        core = self.core
        rvalid = rdata = 0
        # CSB wrapper: one operation per cycle, same-cycle read data.
        if valid & _VALID:
            if write & _WRITE:
                core.csb_write(addr & _ADDR, wdata)
            else:
                rvalid = 1
                rdata = core.csb_read(addr & _ADDR)
        # AXI responder wrapper: deliver responses, collect requests.
        reads, writes, irq = core.step(
            credit, resp_seqs[:resp_count & _COUNT], wr_acks & _ACKS)
        self.ticks += 1
        if not (reads or writes or irq or rvalid):
            return self.quiet
        if len(reads) > REQ_LANES or len(writes) > REQ_LANES:
            raise RuntimeError(
                f"engine emitted {len(reads)} reads and {len(writes)} writes "
                f"in one cycle; the output struct has {REQ_LANES} lanes each"
            )
        seqs, addrs, ports = zip(*reads, *_NO_READS[len(reads):])
        return (rvalid, rdata, len(reads), seqs, addrs, ports,
                len(writes), (*writes, *_NO_WRITES[len(writes):]), irq)
