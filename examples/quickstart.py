#!/usr/bin/env python3
"""Quickstart: compile unmodified RTL, simulate it, and drop it into an SoC.

Walks the three blocks of the gem5+rtl framework (paper Fig. 1):

1. an RTL model (Verilog here) is compiled by the Verilator-equivalent
   frontend into an executable model;
2. a shared-library wrapper exposes ``tick``/``reset`` and exchanges
   packed structs;
3. an RTLObject bridges the wrapper into a simulated SoC, where host
   software talks to it over MMIO.

Run:  python examples/quickstart.py
"""

from repro.bridge import Field, RTLSharedLibrary, RTLObject, StructSpec
from repro.hdl.verilog import compile_verilog
from repro.rtl import RTLSimulator, VCDWriter
from repro.soc.system import SoC, SoCConfig

# ---------------------------------------------------------------------------
# 1) An unmodified Verilog design: a saturating event counter.
# ---------------------------------------------------------------------------

COUNTER_V = """
module sat_counter #(parameter W = 16) (
    input clk,
    input rst,
    input event_in,
    input clear,
    output [W-1:0] count,
    output saturated
);
    reg [W-1:0] cnt;
    always @(posedge clk) begin
        if (rst || clear)
            cnt <= 0;
        else if (event_in && !saturated)
            cnt <= cnt + 1;
    end
    assign count = cnt;
    assign saturated = (cnt == {W{1'b1}});
endmodule
"""


def standalone_demo() -> None:
    print("== standalone RTL simulation ==")
    rtl = compile_verilog(COUNTER_V, params={"W": 8})
    with open("/tmp/sat_counter.vcd", "w") as stream:
        sim = RTLSimulator(rtl, trace=VCDWriter(rtl, stream=stream))
        sim.reset()
        sim.poke("event_in", 1)
        sim.settle()
        sim.tick(300)   # 300 events > 255: saturates
        print(f"count={sim.peek('count')}  saturated={sim.peek('saturated')}")
        assert sim.peek("count") == 255 and sim.peek("saturated") == 1
    print("waveform written to /tmp/sat_counter.vcd")


# ---------------------------------------------------------------------------
# 2) The shared-library wrapper: tick/reset + struct exchange.
# ---------------------------------------------------------------------------

COUNTER_IN = StructSpec("ctr_in", [Field("event", 1), Field("clear", 1)])
COUNTER_OUT = StructSpec("ctr_out", [Field("count", 16), Field("saturated", 1)])


class CounterLibrary(RTLSharedLibrary):
    """The wrapper is a table: which pin each struct field lands on.
    Fields default to the signal of their own name, so only renames
    are listed (an array field may also name one pin per element)."""

    input_spec = COUNTER_IN
    output_spec = COUNTER_OUT
    pins = {"event": "event_in"}

    def __init__(self) -> None:
        super().__init__(compile_verilog(COUNTER_V, params={"W": 16}))


# ---------------------------------------------------------------------------
# 3) The RTLObject: integrate the counter into a full SoC.
# ---------------------------------------------------------------------------


class CounterRTLObject(RTLObject):
    """Counts LLC misses; host software reads the count over MMIO."""

    MMIO_BASE = 0x4000_0000

    def __init__(self, sim, name, library, llc):
        super().__init__(sim, name, library)
        self.events = 0
        llc.miss_listeners.append(lambda pkt: self._bump())
        self.last_count = 0

    def _bump(self) -> None:
        self.events += 1

    def build_input(self) -> bytes:
        event = 1 if self.events else 0
        if self.events:
            self.events -= 1
        clear = 0
        while self.cpu_req_queue:
            pkt = self.cpu_req_queue.popleft()
            if pkt.is_write:
                clear = 1
                self.respond_cpu(pkt)
            else:
                # respond from the last observed count
                self.respond_cpu(
                    pkt, self.last_count.to_bytes(pkt.size, "little")
                )
        return self.library.input_spec.pack(event=event, clear=clear)

    def consume_output(self, outputs: dict) -> None:
        self.last_count = outputs["count"]


def soc_demo() -> None:
    print("\n== RTL model inside a full SoC ==")
    soc = SoC(SoCConfig(num_cores=1, memory="DDR4-2ch"))
    ctr = CounterRTLObject(soc.sim, "miss_ctr", CounterLibrary(), soc.llc)
    soc.attach_rtl_cpu_side(ctr)

    # a pointer-chasing workload that misses the caches
    from repro.soc.cpu import alu, load

    def workload():
        for i in range(4000):
            yield load((i * 64 * 13) % (1 << 22))
            yield alu(1)

    soc.cores[0].run_stream(workload())
    soc.run_until_done()

    readings = []
    soc.iomaster.read(
        CounterRTLObject.MMIO_BASE, size=4,
        callback=lambda pkt: readings.append(int.from_bytes(pkt.data, "little")),
    )
    soc.sim.run(until=soc.sim.now + 200_000)
    ctr.stop()

    print(f"RTL counter read over MMIO : {readings[0]}")
    print(f"simulator's own LLC misses : {soc.llc.st_misses.value()}")
    assert abs(readings[0] - soc.llc.st_misses.value()) <= 4


if __name__ == "__main__":
    standalone_demo()
    soc_demo()
    print("\nquickstart OK")
