"""End-to-end memory-system properties under randomized traffic.

Drives random reads/writes through the full hierarchy (L1 → L2 → LLC →
crossbars → DRAM) and checks the two invariants everything else rests
on: no request is ever lost, and every read returns exactly what the
most recent write to that address stored (a sequential-consistency check
for a single ordered requester).
"""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.soc.cache.cache import Cache, StridePrefetcher
from repro.soc.interconnect.xbar import Crossbar
from repro.soc.iomaster import IOMaster
from repro.soc.mem.dram import DRAMController, ddr4_2400
from repro.soc.simobject import Simulation


def build_stack(mshrs=8, prefetch=True):
    sim = Simulation()
    io = IOMaster(sim, "io")
    l1 = Cache(sim, "l1", 4 * 1024, 2, 1, mshrs=mshrs)
    pf = StridePrefetcher() if prefetch else None
    l2 = Cache(sim, "l2", 16 * 1024, 4, 3, mshrs=mshrs, prefetcher=pf)
    llc = Cache(sim, "llc", 64 * 1024, 8, 6, mshrs=mshrs * 2)
    xbar = Crossbar(sim, "xbar")
    dram = DRAMController(sim, "dram", ddr4_2400(2))

    io.port.connect(l1.cpu_side)
    l1.mem_side.connect(l2.cpu_side)
    l2.mem_side.connect(llc.cpu_side)
    llc.mem_side.connect(xbar.new_cpu_port())
    dram.connect_xbar(xbar)
    return sim, io


@settings(max_examples=15, deadline=None)
@given(
    ops=st.lists(
        st.tuples(
            st.booleans(),                                  # is_write
            st.integers(min_value=0, max_value=255),        # block number
            st.integers(min_value=0, max_value=7),          # word in block
            st.integers(min_value=0, max_value=2**64 - 1),  # data
        ),
        min_size=1,
        max_size=120,
    )
)
def test_property_reads_see_latest_writes(ops):
    sim, io = build_stack()
    reference: dict[int, int] = {}
    failures: list[str] = []
    completed = [0]

    def issue(is_write, addr, data):
        if is_write:
            reference[addr] = data
            io.write(addr, data.to_bytes(8, "little"),
                     callback=lambda pkt: completed.__setitem__(
                         0, completed[0] + 1))
        else:
            expected = reference.get(addr, 0)

            def check(pkt, want=expected, a=addr):
                completed[0] += 1
                got = int.from_bytes(pkt.data, "little")
                if got != want:
                    failures.append(f"{a:#x}: got {got:#x} want {want:#x}")

            io.read(addr, size=8, callback=check)

    for is_write, block, word, data in ops:
        issue(is_write, block * 64 + word * 8, data)

    limit = 10**9
    while completed[0] < len(ops) and sim.now < limit:
        sim.run(until=sim.now + 10**6)
    assert completed[0] == len(ops), "requests were lost in the hierarchy"
    assert not failures, failures[:5]


@pytest.mark.parametrize("mshrs,prefetch", [(1, False), (4, True), (16, True)])
def test_randomized_soak_across_configs(mshrs, prefetch):
    """Heavier fixed-seed soak across structural corner configs."""
    sim, io = build_stack(mshrs=mshrs, prefetch=prefetch)
    rng = random.Random(1234)
    reference: dict[int, int] = {}
    failures: list[str] = []
    completed = [0]
    n = 600

    for _ in range(n):
        addr = (rng.randrange(512) * 64 + rng.randrange(8) * 8)
        if rng.random() < 0.4:
            data = rng.getrandbits(64)
            reference[addr] = data
            io.write(addr, data.to_bytes(8, "little"),
                     callback=lambda pkt: completed.__setitem__(
                         0, completed[0] + 1))
        else:
            want = reference.get(addr, 0)

            def check(pkt, want=want, a=addr):
                completed[0] += 1
                got = int.from_bytes(pkt.data, "little")
                if got != want:
                    failures.append(f"{a:#x}: {got:#x} != {want:#x}")

            io.read(addr, size=8, callback=check)

    while completed[0] < n and sim.now < 10**10:
        sim.run(until=sim.now + 10**7)
    assert completed[0] == n
    assert not failures, failures[:5]
