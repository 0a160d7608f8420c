"""IOMaster: ordered MMIO with callbacks."""

from repro.soc.iomaster import IOMaster
from repro.soc.mem.ideal import IdealMemory
from repro.soc.simobject import Simulation


def make_rig():
    sim = Simulation()
    io = IOMaster(sim, "io")
    mem = IdealMemory(sim, "mem", latency_cycles=2)
    io.port.connect(mem.port)
    return sim, io, mem


class TestIOMaster:
    def test_write_then_read(self):
        sim, io, mem = make_rig()
        got = []
        io.write_word(0x100, 0xCAFEBABE)
        io.read(0x100, size=4,
                callback=lambda pkt: got.append(int.from_bytes(pkt.data, "little")))
        sim.run(until=10**7)
        assert got == [0xCAFEBABE]

    def test_operations_complete_in_order(self):
        sim, io, _ = make_rig()
        order = []
        for i in range(5):
            io.read(i * 8, callback=lambda pkt, i=i: order.append(i))
        sim.run(until=10**7)
        assert order == [0, 1, 2, 3, 4]

    def test_busy_flag(self):
        sim, io, _ = make_rig()
        assert not io.busy
        io.read(0)
        assert io.busy
        sim.run(until=10**7)
        assert not io.busy

    def test_stats_counters(self):
        sim, io, _ = make_rig()
        io.read(0)
        io.write(8, b"\0\0\0\0")
        sim.run(until=10**7)
        assert io.st_reads.value() == 1
        assert io.st_writes.value() == 1

    def test_write_word_masks_to_size(self):
        sim, io, mem = make_rig()
        io.write_word(0x40, 0x1_2345_6789, size=4)
        sim.run(until=10**7)
        assert mem.physmem.read_word(0x40, 4) == 0x2345_6789

    def test_callbacks_receive_packet(self):
        sim, io, mem = make_rig()
        mem.physmem.write(0x200, b"\x01\x02\x03\x04\x05\x06\x07\x08")
        seen = []
        io.read(0x200, size=8, callback=lambda pkt: seen.append(pkt.data))
        sim.run(until=10**7)
        assert seen == [b"\x01\x02\x03\x04\x05\x06\x07\x08"]
