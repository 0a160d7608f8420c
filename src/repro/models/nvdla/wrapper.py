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

#: max read responses / acks the bridge delivers per accelerator cycle
RESP_LANES = 4

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
        Field("wr_acks", 3),
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

    def step(self, inputs: dict) -> dict:
        """One cycle; names only the output fields this cycle set (the
        rest of the struct is zero, so a quiet cycle returns ``{}``)."""
        core = self.core
        out: dict = {}

        # CSB wrapper: one operation per cycle, same-cycle read data.
        if inputs["csb_valid"]:
            if inputs["csb_write"]:
                core.csb_write(inputs["csb_addr"], inputs["csb_wdata"])
            else:
                out["csb_rvalid"] = 1
                out["csb_rdata"] = core.csb_read(inputs["csb_addr"])

        # AXI responder wrapper: deliver responses, collect requests.
        resp_count = inputs["rd_resp_count"]
        reads, writes, irq = core.step(
            inputs["credit"],
            inputs["rd_resp_seqs"][:resp_count] if resp_count else (),
            inputs["wr_acks"],
        )
        if len(reads) > REQ_LANES or len(writes) > REQ_LANES:
            raise RuntimeError(
                f"engine emitted {len(reads)} reads and {len(writes)} writes "
                f"in one cycle; the output struct has {REQ_LANES} lanes each"
            )
        if reads:
            pad = [0] * (REQ_LANES - len(reads))
            out["rd_count"] = len(reads)
            out["rd_seqs"] = [r[0] for r in reads] + pad
            out["rd_addrs"] = [r[1] for r in reads] + pad
            out["rd_ports"] = [r[2] for r in reads] + pad
        if writes:
            out["wr_count"] = len(writes)
            out["wr_addrs"] = writes + [0] * (REQ_LANES - len(writes))
        if irq:
            out["irq"] = 1
        return out
