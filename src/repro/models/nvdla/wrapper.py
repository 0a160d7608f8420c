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

#: The input struct of a cycle with no CSB operation, response or ack,
#: indexed by its credit: most cycles' input.  An encoding table — the
#: bytes are a pure function of the credit — not a memo of model state.
CREDIT_ONLY_INPUT = tuple(NVDLA_INPUT.pack(credit=c) for c in range(256))

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


#: the unused lanes of a cycle's reads (seq, addr, port) and writes
_NO_READS = ((0, 0, 0),) * REQ_LANES
_NO_WRITES = (0,) * REQ_LANES


class NVDLASharedLibrary(BehavioralSharedLibrary):
    """tick/reset wrapper around :class:`NVDLACore`."""

    input_spec = NVDLA_INPUT
    output_spec = NVDLA_OUTPUT

    def __init__(self) -> None:
        super().__init__()
        self.core = NVDLACore()

    def reset(self) -> None:
        super().reset()
        self.core.reset()

    def model_state(self) -> dict:
        return self.core.state_dict()

    def load_model_state(self, state: dict) -> None:
        self.core.load_state(state)

    def tick(self, input_bytes: bytes) -> bytes:
        """One cycle, bytes to bytes with no dict in between: the
        generated ``values`` in, positional ``pack`` out, and a cycle
        that produced nothing answers the cached all-zero struct."""
        (valid, write, addr, wdata, credit, resp_count, resp_seqs, wr_acks
         ) = self.input_spec.values(input_bytes)
        core = self.core
        rvalid = rdata = 0
        # CSB wrapper: one operation per cycle, same-cycle read data.
        if valid:
            if write:
                core.csb_write(addr, wdata)
            else:
                rvalid = 1
                rdata = core.csb_read(addr)
        # AXI responder wrapper: deliver responses, collect requests.
        reads, writes, irq = core.step(credit, resp_seqs[:resp_count], wr_acks)
        self.ticks += 1
        if not (reads or writes or irq or rvalid):
            return self.output_spec.zeros()
        if len(reads) > REQ_LANES or len(writes) > REQ_LANES:
            raise RuntimeError(
                f"engine emitted {len(reads)} reads and {len(writes)} writes "
                f"in one cycle; the output struct has {REQ_LANES} lanes each"
            )
        seqs, addrs, ports = zip(*reads, *_NO_READS[len(reads):])
        return self.output_spec.pack(
            rvalid, rdata, len(reads), seqs, addrs, ports,
            len(writes), (*writes, *_NO_WRITES[len(writes):]), irq,
        )
