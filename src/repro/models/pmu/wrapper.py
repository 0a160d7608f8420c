"""Shared-library wrapper for the PMU RTL model (paper Fig. 3).

The wrapper owns the Verilator-equivalent model of ``pmu.v`` and
exchanges structs with the PMU RTLObject every tick: the input struct
carries the AXI read/write channels and the ``event_enable[0-19]`` bits;
the output struct returns the AXI read data and the interrupt signal.
"""

from __future__ import annotations

import importlib.resources
from typing import Optional, TextIO

from ...bridge.shared_library import RTLSharedLibrary
from ...bridge.structs import Field, StructSpec
from ...hdl.verilog import compile_verilog
from ...rtl.kernel import RTLModule

N_COUNTERS = 20

PMU_INPUT = StructSpec(
    "pmu_in",
    [
        Field("events", N_COUNTERS),
        Field("awvalid", 1),
        Field("awaddr", 12),
        Field("wdata", 32),
        Field("arvalid", 1),
        Field("araddr", 12),
    ],
)

PMU_OUTPUT = StructSpec(
    "pmu_out",
    [
        Field("rvalid", 1),
        Field("rdata", 32),
        Field("irq", 1),
    ],
)

# Register map (byte offsets inside the PMU's 4 KiB window)
REG_COUNTER_BASE = 0x000
REG_THRESHOLD_BASE = 0x100
REG_ENABLE = 0x200


def counter_addr(index: int) -> int:
    if not 0 <= index < N_COUNTERS:
        raise ValueError(f"counter index {index} out of range")
    return REG_COUNTER_BASE + 4 * index


def threshold_addr(index: int) -> int:
    if not 0 <= index < N_COUNTERS:
        raise ValueError(f"counter index {index} out of range")
    return REG_THRESHOLD_BASE + 4 * index


def load_pmu_source() -> str:
    """Read the in-repo ``pmu.v`` (the unmodified RTL of the use case)."""
    return (
        importlib.resources.files("repro.models.pmu")
        .joinpath("pmu.v")
        .read_text(encoding="utf-8")
    )


class PMUSharedLibrary(RTLSharedLibrary):
    """tick/reset wrapper around the compiled PMU.

    Every struct field is wired to the ``pmu.v`` port of its own name,
    so the pin map is empty.
    """

    input_spec = PMU_INPUT
    output_spec = PMU_OUTPUT

    def __init__(
        self,
        n_counters: int = N_COUNTERS,
        trace_stream: Optional[TextIO] = None,
        trace_enabled: bool = False,
        backend: str = "codegen",
    ) -> None:
        super().__init__(self.design(n_counters), trace_stream=trace_stream,
                         trace_enabled=trace_enabled, backend=backend)
        self.n_counters = n_counters

    @staticmethod
    def design(n_counters: int = N_COUNTERS) -> RTLModule:
        """The elaborated ``pmu.v``, without building a simulator
        (identical calls share one design through the elaboration
        cache)."""
        return compile_verilog(
            load_pmu_source(), top="pmu", params={"NCOUNTERS": n_counters}
        )

    # -- debug/verification helpers (bypass the struct boundary) ----------

    def peek_counter(self, index: int) -> int:
        return self.sim.peek_mem("counters", index)
