#!/usr/bin/env python3
"""Fig. 2(a) connectivity: a cache written in Verilog, inside the SoC.

The paper contrasts its tightly-coupled interface with IPC-based
co-simulation precisely with this scenario: "adding a new cache in RTL
connected to the cores of gem5 would be very difficult to simulate [over
IPC]".  Here a direct-mapped write-through cache written in Verilog
(``rtl_cache.v``, compiled unmodified) serves 8-byte requests, misses to
a DDR4 model, and returns data that genuinely flowed through the
hardware's 512-bit line registers.

Run:  python examples/rtl_cache_in_soc.py
"""

import random

from repro.models.rtlcache.wrapper import RTLCacheObject
from repro.soc.iomaster import IOMaster
from repro.soc.mem.dram import DRAMController, ddr4_2400
from repro.soc.simobject import Simulation


def main() -> None:
    sim = Simulation()
    rtlc = RTLCacheObject(sim, "rtl_l1")
    dram = DRAMController(sim, "dram", ddr4_2400(2))
    host = IOMaster(sim, "host")
    host.port.connect(rtlc.cpu_side[0])
    rtlc.mem_side[0].connect(dram.port)

    # seed memory with a recognizable image
    rng = random.Random(7)
    image = bytes(rng.randrange(256) for _ in range(4096))
    dram.physmem.write(0x10000, image)

    # a simple working set: sequential sweep, then re-reads (should hit)
    results: list[tuple[int, bytes]] = []

    def reader(addr: int):
        host.read(addr, size=8,
                  callback=lambda p, a=addr: results.append((a, p.data)))

    addrs = [0x10000 + 8 * i for i in range(256)]      # 2 KiB sweep
    addrs += [0x10000 + 8 * rng.randrange(256) for _ in range(128)]
    for addr in addrs:
        reader(addr)
    # and a few writes (write-through)
    for i in range(16):
        host.write(0x10000 + 64 * i, (0xBEEF00 + i).to_bytes(8, "little"))

    sim.run(until=10**9)
    rtlc.stop()

    # verify every read returned the true memory content
    ok = sum(
        data == image[a - 0x10000 : a - 0x10000 + 8] for a, data in results
    )
    hits = rtlc.library.sim.peek("hit_count")
    misses = rtlc.library.sim.peek("miss_count")
    print(f"reads verified : {ok}/{len(results)} correct "
          "(data path goes through the RTL line registers)")
    print(f"RTL counters   : {hits} hits, {misses} misses "
          f"(hit rate {hits / (hits + misses):.1%})")
    print(f"DRAM traffic   : {dram.st_reads.value()} line fills, "
          f"{dram.st_writes.value()} write-throughs")
    assert ok == len(results)
    assert misses <= 64 + 16  # 32 lines in the sweep + write misses

    # write-throughs landed in memory
    for i in range(16):
        stored = dram.physmem.read_word(0x10000 + 64 * i, 8)
        assert stored == 0xBEEF00 + i
    print("write-through data verified in DRAM")


if __name__ == "__main__":
    main()
