"""NVDLA engine + wrapper: CSB, streaming, credits, completion."""

import random

import pytest

from repro.models.nvdla.core import (
    NVDLA_ID_VALUE,
    REG_BLOCKS_PER_OUT,
    REG_COMPUTE_X16,
    REG_ID,
    REG_IN_ADDR_LO,
    REG_IN_BLOCKS,
    REG_IRQ_CLEAR,
    REG_OP_ENABLE,
    REG_OUT_ADDR_LO,
    REG_PERF_CYCLES,
    REG_PERF_STALLS,
    REG_SRAM_MODE,
    REG_STATUS,
    REG_W_ADDR_LO,
    REG_W_BLOCKS,
    REQ_LANES,
    LayerConfig,
    NVDLACore,
)
from repro.models.nvdla.rtl_object import (
    DBBIF_PORT,
    NVDLARTLObject,
    output_pattern,
)
from repro.models.nvdla.wrapper import (
    NVDLA_INPUT,
    NVDLA_OUTPUT,
    NVDLASharedLibrary,
)
from repro.resilience.serialize import SerializationContext
from repro.soc.packet import MemCmd, Packet, set_next_packet_id
from repro.soc.ports import RequestPort, ResponsePort
from repro.soc.simobject import Simulation


def configured_core(in_blocks=32, w_blocks=4, compute_x16=16,
                    blocks_per_out=4, sram=0) -> NVDLACore:
    core = NVDLACore()
    core.cfg = LayerConfig(
        in_addr=0x1000_0000, w_addr=0x2000_0000, out_addr=0x3000_0000,
        in_blocks=in_blocks, w_blocks=w_blocks, compute_x16=compute_x16,
        blocks_per_out=blocks_per_out, sram_mode=sram,
    )
    core.csb_write(REG_OP_ENABLE, 1)
    return core


def run_zero_latency(core: NVDLACore, credit=255, max_cycles=100_000) -> int:
    """Drive the engine with an ideal testbench; returns busy cycles."""
    pending: list[int] = []
    cycles = 0
    while core.busy and cycles < max_cycles:
        reads, _writes, _irq = core.step(credit, pending, wr_acks=0)
        pending = [r[0] for r in reads]
        core._writes_acked = core._writes_issued
        cycles += 1
    assert not core.busy, "engine did not finish"
    return cycles


class TestCSB:
    def test_id_register(self):
        assert NVDLACore().csb_read(REG_ID) == NVDLA_ID_VALUE

    def test_status_busy_and_irq_bits(self):
        core = configured_core()
        assert core.csb_read(REG_STATUS) & 1 == 1
        run_zero_latency(core)
        status = core.csb_read(REG_STATUS)
        assert status & 1 == 0 and status & 2 == 2
        core.csb_write(REG_IRQ_CLEAR, 1)
        assert core.csb_read(REG_STATUS) == 0

    def test_register_writes_readable(self):
        core = NVDLACore()
        core.csb_write(REG_IN_ADDR_LO, 0x1234_0000)
        core.csb_write(REG_IN_BLOCKS, 77)
        assert core.csb_read(REG_IN_ADDR_LO) == 0x1234_0000
        assert core.csb_read(REG_IN_BLOCKS) == 77

    def test_doorbell_with_no_work_rejected(self):
        core = NVDLACore()
        with pytest.raises(ValueError):
            core.csb_write(REG_OP_ENABLE, 1)


class TestStreaming:
    def test_reads_cover_all_blocks_in_order(self):
        core = configured_core(in_blocks=10, w_blocks=3)
        seqs = []
        pending = []
        while core.busy:
            reads, _writes, _irq = core.step(255, pending, wr_acks=0)
            seqs.extend(r[0] for r in reads)
            pending = [r[0] for r in reads]
            core._writes_acked = core._writes_issued
        assert seqs == list(range(13))

    def test_weights_then_activations_addressing(self):
        core = configured_core(in_blocks=2, w_blocks=2)
        reads, _writes, _irq = core.step(255, [], 0)
        (s0, a0, p0), (s1, a1, p1) = reads
        assert a0 == 0x2000_0000 and a1 == 0x2000_0040  # weights first
        reads, _writes, _irq = core.step(255, [0, 1], 0)
        (s2, a2, _), (s3, a3, _) = reads
        assert a2 == 0x1000_0000 and a3 == 0x1000_0040

    def test_sram_mode_routes_activations_to_port1(self):
        core = configured_core(in_blocks=2, w_blocks=1, sram=1)
        reads, _writes, _irq = core.step(255, [], 0)
        ports = [r[2] for r in reads]
        assert ports[0] == 0      # weight via DBBIF
        assert ports[1] == 1      # activation via SRAMIF

    def test_output_write_count(self):
        core = configured_core(in_blocks=16, w_blocks=0, blocks_per_out=4)
        writes = []
        pending = []
        while core.busy:
            reads, new_writes, _irq = core.step(255, pending, wr_acks=0)
            writes.extend(new_writes)
            pending = [r[0] for r in reads]
            core._writes_acked = core._writes_issued
        assert len(writes) == 4
        assert writes[0] == 0x3000_0000 and writes[1] == 0x3000_0040

    def test_completion_requires_write_acks(self):
        core = configured_core(in_blocks=4, w_blocks=0)
        pending = []
        for _ in range(1000):
            reads, _writes, _irq = core.step(255, pending, wr_acks=0)
            pending = [r[0] for r in reads]
            if not core.busy:
                break
        assert core.busy  # writes never acked -> still busy
        core.step(255, [], wr_acks=core._writes_issued)
        assert not core.busy


class TestComputeRate:
    def test_cycles_scale_with_compute_intensity(self):
        fast = configured_core(in_blocks=256, compute_x16=16)
        slow = configured_core(in_blocks=256, compute_x16=64)
        t_fast = run_zero_latency(fast)
        t_slow = run_zero_latency(slow)
        assert 3.0 < t_slow / t_fast < 5.0

    def test_sub_cycle_consumption(self):
        """compute_x16 < 16 consumes more than one block per cycle."""
        core = configured_core(in_blocks=256, compute_x16=8)
        cycles = run_zero_latency(core)
        assert cycles < 256

    def test_perf_counters_published(self):
        core = configured_core(in_blocks=32)
        run_zero_latency(core)
        assert core.csb_read(REG_PERF_CYCLES) > 0
        assert core.csb_read(REG_PERF_STALLS) <= core.csb_read(REG_PERF_CYCLES)


class TestCredits:
    def test_zero_credit_issues_nothing(self):
        core = configured_core()
        reads, writes, irq = core.step(0, [], 0)
        assert not reads and not writes and not irq

    def test_credit_one_serializes(self):
        core = configured_core(in_blocks=8, w_blocks=0, blocks_per_out=100)
        total = 0
        pending = []
        for _ in range(200):
            reads, writes, _irq = core.step(1, pending, 0)
            assert len(reads) + len(writes) <= 1
            total += len(reads)
            pending = [r[0] for r in reads]
            core._writes_acked = core._writes_issued
            if not core.busy:
                break
        assert total == 8

    def test_low_credit_slower_than_high(self):
        # compute faster than 1 block/cycle so a 1-credit stream starves
        t_low = run_zero_latency(
            configured_core(in_blocks=128, compute_x16=8), credit=1)
        t_high = run_zero_latency(
            configured_core(in_blocks=128, compute_x16=8), credit=255)
        assert t_low > 1.5 * t_high


#: the all-zero input struct in the library's form
ZERO_IN = NVDLA_INPUT.values(NVDLA_INPUT.zeros())


def tick(lib, **fields) -> dict:
    """One cycle on named input fields: packed at this edge (the spec
    zero-fills and masks), handed over as the library's fields, and the
    output read back through its bytes as a dict."""
    out = lib.tick(NVDLA_INPUT.values(NVDLA_INPUT.pack(**fields)))
    return NVDLA_OUTPUT.unpack(NVDLA_OUTPUT.pack(*out))


class TestWrapper:
    def test_struct_roundtrip_through_wrapper(self):
        lib = NVDLASharedLibrary()
        lib.reset()
        # configure via CSB struct traffic
        for addr, value in (
            (REG_IN_ADDR_LO, 0x1000), (REG_OUT_ADDR_LO, 0x2000),
            (REG_IN_BLOCKS, 4), (REG_W_BLOCKS, 0),
            (REG_COMPUTE_X16, 16), (REG_OP_ENABLE, 1),
        ):
            tick(lib, csb_valid=1, csb_write=1, csb_addr=addr,
                 csb_wdata=value)
        assert lib.core.busy
        # run with generous credit, acking everything
        irq_seen = False
        pending: list[int] = []
        for _ in range(200):
            out = tick(
                lib, credit=255,
                rd_resp_count=min(len(pending), 4),
                rd_resp_seqs=(pending + [0] * 4)[:4],
                wr_acks=min(lib.core._writes_issued - lib.core._writes_acked, 7),
            )
            pending = [out["rd_seqs"][i] for i in range(out["rd_count"])]
            if out["irq"]:
                irq_seen = True
                break
        assert irq_seen

    def test_csb_read_through_wrapper(self):
        lib = NVDLASharedLibrary()
        lib.reset()
        out = tick(lib, csb_valid=1, csb_write=0, csb_addr=REG_ID)
        assert out["csb_rvalid"] == 1
        assert out["csb_rdata"] == NVDLA_ID_VALUE


def csb_write(lib, addr, value) -> dict:
    return tick(lib, csb_valid=1, csb_write=1, csb_addr=addr, csb_wdata=value)


class TestWriteLanes:
    def test_write_burst_wider_than_the_struct_still_completes(self):
        """Reads race ahead while credit is open, then responses arrive
        four a cycle with credit shut three cycles in four: up to eight
        output writes queue up behind each open cycle, and the struct
        carries four.  Every write must cross the boundary."""
        lib = NVDLASharedLibrary()
        lib.reset()
        for addr, value in (
            (REG_IN_ADDR_LO, 0x1000), (REG_OUT_ADDR_LO, 0x8000),
            (REG_IN_BLOCKS, 64), (REG_W_BLOCKS, 0),
            (REG_COMPUTE_X16, 1), (REG_BLOCKS_PER_OUT, 1),
            (REG_OP_ENABLE, 1),
        ):
            csb_write(lib, addr, value)
        outstanding: list[int] = []
        writes: list[int] = []
        unacked = 0
        for cycle in range(5_000):
            if cycle < 20:
                fields = {"credit": 255}
            else:
                seqs, outstanding = outstanding[:4], outstanding[4:]
                acks = min(unacked, 7)
                unacked -= acks
                fields = {
                    "credit": 255 if cycle % 4 == 0 else 0,
                    "rd_resp_count": len(seqs),
                    "rd_resp_seqs": seqs + [0] * (4 - len(seqs)),
                    "wr_acks": acks,
                }
            out = tick(lib, **fields)
            assert out["wr_count"] <= REQ_LANES
            outstanding += out["rd_seqs"][: out["rd_count"]]
            writes += out["wr_addrs"][: out["wr_count"]]
            unacked += out["wr_count"]
            if out["irq"]:
                break
        else:
            pytest.fail(f"no IRQ; the bridge saw {len(writes)} of 64 writes")
        assert writes == [0x8000 + 64 * i for i in range(64)]

    def test_wrapper_rejects_more_requests_than_lanes(self):
        lib = NVDLASharedLibrary()
        lib.reset()
        lib.core.step = lambda credit, seqs, acks: ([], [0] * (REQ_LANES + 1), 0)
        with pytest.raises(RuntimeError, match="lanes"):
            lib.tick(ZERO_IN)


def _saved(lib) -> dict:
    """*lib*'s checkpointed state."""
    return lib.serialize(SerializationContext())


class DenseReference(NVDLASharedLibrary):
    """The exchange as it was before it went sparse, on packed bytes:
    the input decoded to a dict, all nine output fields packed every
    cycle, lists padded then sliced."""

    def tick(self, input_bytes: bytes) -> bytes:
        inputs = self.input_spec.unpack(input_bytes)
        core = self.core
        csb_rvalid = csb_rdata = 0
        if inputs["csb_valid"]:
            if inputs["csb_write"]:
                core.csb_write(inputs["csb_addr"], inputs["csb_wdata"])
            else:
                csb_rdata = core.csb_read(inputs["csb_addr"])
                csb_rvalid = 1
        resp_seqs = inputs["rd_resp_seqs"][: inputs["rd_resp_count"]]
        reads, writes, irq = core.step(
            inputs["credit"], resp_seqs, inputs["wr_acks"]
        )
        reads = list(reads)[:REQ_LANES]
        writes = list(writes)[:REQ_LANES]
        pad = [0] * REQ_LANES
        self.ticks += 1
        return self.output_spec.pack(
            csb_rvalid=csb_rvalid,
            csb_rdata=csb_rdata,
            rd_count=len(reads),
            rd_seqs=([r[0] for r in reads] + pad)[:REQ_LANES],
            rd_addrs=([r[1] for r in reads] + pad)[:REQ_LANES],
            rd_ports=([r[2] for r in reads] + pad)[:REQ_LANES],
            wr_count=len(writes),
            wr_addrs=(writes + pad)[:REQ_LANES],
            irq=irq,
        )


class TestSparseExchange:
    LAYERS = (
        {REG_IN_ADDR_LO: 0x10_0000, REG_W_ADDR_LO: 0x20_0000,
         REG_OUT_ADDR_LO: 0x30_0000, REG_IN_BLOCKS: 900, REG_W_BLOCKS: 120,
         REG_COMPUTE_X16: 24, REG_BLOCKS_PER_OUT: 3, REG_SRAM_MODE: 0},
        {REG_IN_ADDR_LO: 0x40_0000, REG_W_ADDR_LO: 0x50_0000,
         REG_OUT_ADDR_LO: 0x60_0000, REG_IN_BLOCKS: 800, REG_W_BLOCKS: 0,
         REG_COMPUTE_X16: 6, REG_BLOCKS_PER_OUT: 1, REG_SRAM_MODE: 1},
    )
    READABLE = (REG_ID, REG_STATUS, REG_IN_BLOCKS, REG_PERF_CYCLES,
                REG_PERF_STALLS, REG_OUT_ADDR_LO, 0xFFC)

    def test_random_legal_stream_is_byte_identical_to_the_dense_exchange(self):
        rng = random.Random(20211)
        lib, ref = NVDLASharedLibrary(), DenseReference()
        lib.reset()
        ref.reset()
        pack, unpack = lib.input_spec.pack, lib.output_spec.unpack
        outstanding: list[int] = []     # read tags awaiting a response
        unacked = 0                     # writes awaiting an ack
        cycles = quiet = 0

        def cycle(write=None) -> tuple[dict, bool]:
            """One random legal cycle; *write* is a CSB write to play,
            which a random CSB read may displace (then False returns)."""
            nonlocal cycles, quiet, unacked
            rng.shuffle(outstanding)    # responses return out of order
            count = rng.randint(0, min(4, len(outstanding)))
            seqs = [outstanding.pop() for _ in range(count)]
            acks = rng.randint(0, min(7, unacked))
            unacked -= acks
            csb, played = {}, False
            if rng.random() < 0.15:
                csb = {"csb_valid": 1, "csb_addr": rng.choice(self.READABLE)}
            elif write is not None:
                csb = {"csb_valid": 1, "csb_write": 1,
                       "csb_addr": write[0], "csb_wdata": write[1]}
                played = True
            in_bytes = pack(
                credit=rng.choice((0, 0, 1, 2, 5, 255, rng.randrange(256))),
                rd_resp_count=count, rd_resp_seqs=seqs + [0] * (4 - count),
                wr_acks=acks, **csb,
            )
            fields = lib.tick(NVDLA_INPUT.values(in_bytes))
            got, want = NVDLA_OUTPUT.pack(*fields), ref.tick(in_bytes)
            assert got == want, f"cycle {cycles}: {unpack(got)} != {unpack(want)}"
            # the fields are the spec's own tuple: lanes as tuples
            assert fields == NVDLA_OUTPUT.values(want)
            out = unpack(want)
            outstanding.extend(out["rd_seqs"][: out["rd_count"]])
            unacked += out["wr_count"]
            cycles += 1
            quiet += want == lib.output_spec.zeros()
            return out, played

        def play(addr: int, value: int) -> None:
            while not cycle((addr, value))[1]:
                pass

        for layer in self.LAYERS:
            for addr, value in layer.items():
                play(addr, value)
            play(REG_OP_ENABLE, 1)
            while not cycle()[0]["irq"]:
                assert cycles < 50_000
            assert not outstanding and not unacked
            for _ in range(rng.randint(5, 40)):    # idle between layers
                cycle()
            play(REG_IRQ_CLEAR, 1)
        assert cycles >= 2_000 and 0 < quiet < cycles
        assert lib.core.csb_read(REG_STATUS) == 0
        assert _saved(lib) == _saved(ref)

    def test_hostile_input_is_masked_as_unpack_masks_it(self):
        """Bits above a field's width where its slot was wider: the
        wrapper and the dense reference (which reads the same fields
        packed, through ``unpack``) must see the same struct."""
        lib, ref = NVDLASharedLibrary(), DenseReference()
        lib.reset()
        ref.reset()
        for addr, value in (*self.LAYERS[0].items(), (REG_OP_ENABLE, 1)):
            csb_write(lib, addr, value)
            ref.tick(NVDLA_INPUT.pack(csb_valid=1, csb_write=1, csb_addr=addr,
                                      csb_wdata=value))
        stream = [
            # csb_valid 0xFF -> 1, csb_write 0xFE -> 0: a read of
            # csb_addr 0xF000 | REG_IN_BLOCKS -> REG_IN_BLOCKS
            (0xFF, 0xFE, 0xF000 | REG_IN_BLOCKS, 0, 255, 0, (0, 0, 0, 0), 0),
            # rd_resp_count 0xFA -> 2 responses, wr_acks 0xF8 -> 0
            (0, 0, 0, 0, 255, 0xFA, (0, 1, 7, 9), 0xF8),
            # rd_resp_count 7 > RESP_LANES: the four lanes, no more
            (0, 0, 0, 0, 3, 7, (2, 3, 4, 5), 0),
            # csb_valid 0xFE -> 0: no operation
            (0xFE, 1, REG_BLOCKS_PER_OUT, 99, 0, 0, (0, 0, 0, 0), 0),
            # csb_write 0xFF -> a write of csb_addr >= 2**12
            (1, 0xFF, 0x1000 | REG_COMPUTE_X16, 7, 0, 0, (0, 0, 0, 0), 0),
        ]
        outs = [NVDLA_OUTPUT.pack(*lib.tick(fields)) for fields in stream]
        assert outs == [ref.tick(NVDLA_INPUT.pack(*fields))
                        for fields in stream]
        first = NVDLA_OUTPUT.unpack(outs[0])
        assert (first["csb_rvalid"], first["csb_rdata"]) == (1, 900)
        # both bursts landed: two tags, then four (not seven)
        assert lib.core.consumed + len(lib.core._arrived) == 6
        cfg = lib.core.cfg
        assert (cfg.compute_x16, cfg.blocks_per_out) == (7, 3)
        assert _saved(lib) == _saved(ref)

    def test_wrong_length_input_raises(self):
        lib = NVDLASharedLibrary()
        lib.reset()
        for bad in ((), ZERO_IN[:-1], ZERO_IN + (0,)):
            with pytest.raises(ValueError, match="values to unpack"):
                lib.tick(bad)
        assert lib.ticks == 0

    def test_wrapper_rejects_more_reads_than_lanes(self):
        lib = NVDLASharedLibrary()
        lib.reset()
        five = [(i, 64 * i, 0) for i in range(REQ_LANES + 1)]
        lib.core.step = lambda credit, seqs, acks: (five, [], 0)
        with pytest.raises(RuntimeError, match="lanes"):
            lib.tick(ZERO_IN)


class ScriptedLibrary(NVDLASharedLibrary):
    """Answers a fixed list of output structs, whatever it is fed."""

    def __init__(self, script):
        super().__init__()
        self.script = list(script)

    def tick(self, inputs: tuple) -> tuple:
        self.ticks += 1
        return self.script.pop(0) if self.script else self.quiet


class DictConsume(NVDLARTLObject):
    """The gem5 side as it was before the scatter: the output struct
    packed and decoded to a dict, one ``send_mem_*`` call per beat."""

    def decode_output(self, outputs):
        return NVDLA_OUTPUT.unpack(NVDLA_OUTPUT.pack(*outputs))

    def consume_output(self, outputs: dict) -> None:
        if outputs["csb_rvalid"]:
            pkt = self._pending_csb_read
            if pkt is None:
                raise RuntimeError(f"{self.name}: CSB read data with no reader")
            self._pending_csb_read = None
            data = int(outputs["csb_rdata"]).to_bytes(4, "little")[: pkt.size]
            self.respond_cpu(pkt, data.ljust(pkt.size, b"\0"))
        rd_count = outputs["rd_count"]
        if rd_count:
            addrs, ports, seqs = (
                outputs["rd_addrs"], outputs["rd_ports"], outputs["rd_seqs"]
            )
            for i in range(rd_count):
                ok = self.send_mem_read(
                    addrs[i], 64, port_idx=ports[i],
                    translate=self.translate, meta={"seq": seqs[i]},
                )
                if not ok:
                    raise RuntimeError(
                        f"{self.name}: engine exceeded its credit (read)"
                    )
        wr_count = outputs["wr_count"]
        if wr_count:
            for addr in outputs["wr_addrs"][:wr_count]:
                ok = self.send_mem_write(
                    addr, 64, data=output_pattern(addr),
                    port_idx=DBBIF_PORT, translate=self.translate,
                )
                if not ok:
                    raise RuntimeError(
                        f"{self.name}: engine exceeded its credit (write)"
                    )
        if outputs["irq"]:
            self.st_irqs.inc()
            for handler in self._irq_handlers:
                handler(self.now)


class TestOutputScatter:
    """``NVDLARTLObject.consume_output`` against :class:`DictConsume`."""

    @staticmethod
    def _script():
        """Every rd_count x wr_count x irq x csb_rvalid, as the fields
        the library returns: the lanes past a count hold junk that must
        never reach a port, and every other cycle's tags and addresses
        carry bits above their 32 and 48 that must never reach one
        either."""
        out, n = [], 0
        for rd in range(REQ_LANES + 1):
            for wr in range(REQ_LANES + 1):
                for irq in (0, 1):
                    for rvalid in (0, 1):
                        n += 1
                        wide = n & 1
                        out.append((
                            rvalid, 0xC0DE0000 + n, rd,
                            tuple(1000 * n + i | wide << 32
                                  for i in range(REQ_LANES)),
                            tuple((n << 16) + 64 * i | wide << 48
                                  for i in range(REQ_LANES)),
                            tuple((n + i) & 1 for i in range(REQ_LANES)),
                            wr,
                            tuple((n << 24) + 64 * i | wide << 50
                                  for i in range(REQ_LANES)),
                            irq,
                        ))
        return out

    @staticmethod
    def _drive(cls, script, max_inflight=None):
        set_next_packet_id(0)
        sim = Simulation()
        rtl = cls(sim, "nvdla", library=ScriptedLibrary(script),
                  max_inflight=max_inflight)
        log: list[tuple] = []

        def sink(port):
            def recv(pkt: Packet) -> bool:
                log.append((port, pkt.cmd, pkt.addr, pkt.size,
                            pkt.meta.get("seq"), pkt.data, pkt.pkt_id))
                return True
            return recv

        for i, port in enumerate(rtl.mem_side):
            port.connect(ResponsePort(f"sink{i}", recv_timing_req=sink(i)))
        csb = RequestPort(
            "csb", recv_timing_resp=lambda pkt: log.append(
                ("csb", pkt.cmd, pkt.addr, pkt.size, None, pkt.data,
                 pkt.pkt_id)) or True)
        csb.connect(rtl.cpu_side[0])
        rtl.on_interrupt(lambda tick: log.append(("irq", tick)))
        sim.startup()
        sim.run(until=rtl.clock.period)     # up to, not into, the first tick
        for outputs in script:
            if outputs[0]:                  # csb_rvalid
                csb.send_timing_req(Packet(MemCmd.ReadReq, rtl.mmio_base + 4, 4))
            sim.run(until=sim.now + rtl.clock.period)
        assert not rtl.library.script
        return log, sim.stats_dump(), sim.now

    def test_every_burst_shape_issues_the_same_packets_and_stats(self):
        script = self._script()
        got = self._drive(NVDLARTLObject, script)
        want = self._drive(DictConsume, script)
        assert got == want
        log = got[0]
        assert sum(e[1] is MemCmd.ReadReq and e[0] != "csb" for e in log) == 200
        assert sum(e[1] is MemCmd.WriteReq for e in log) == 200
        assert sum(e[0] == "irq" for e in log) == 50
        assert sum(e[0] == "csb" for e in log) == 50
        # the wide cycles' tags and addresses arrived masked
        assert all(e[2] < 1 << 48 and (e[4] or 0) < 1 << 32
                   for e in log if e[0] != "irq")

    @pytest.mark.parametrize("fields,which", [
        ({"rd_count": 3}, "read"), ({"wr_count": 3}, "write"),
    ])
    def test_exceeding_the_credit_still_raises(self, fields, which):
        script = [NVDLA_OUTPUT.values(NVDLA_OUTPUT.pack(**fields))]
        for cls in (NVDLARTLObject, DictConsume):
            with pytest.raises(RuntimeError,
                               match=rf"exceeded its credit \({which}\)"):
                self._drive(cls, script, max_inflight=2)


def _output_pattern_loop(addr: int, size: int = 64) -> bytes:
    """``output_pattern`` as it was first written, one word at a time:
    the reference its bytes are pinned against."""
    word = (addr * 0x9E3779B97F4A7C15) & 0xFFFFFFFFFFFFFFFF
    out = bytearray()
    while len(out) < size:
        word = (word * 6364136223846793005 + 1442695040888963407) % (1 << 64)
        out += word.to_bytes(8, "little")
    return bytes(out[:size])


def test_output_pattern_is_the_word_loop():
    """Every output address of every bundled workload on four
    instances at full scale, and addresses above 2**32, 2**48 and
    2**64: the payload an NVDLA write stores is byte for byte what the
    word loop computed."""
    from repro.models.nvdla.workloads import WORKLOADS, for_instance

    addrs = {
        layer.out_addr + 64 * i
        for name in WORKLOADS for instance in range(4)
        for layer in for_instance(name, instance).layers
        for i in range(-(-(layer.in_blocks + layer.w_blocks)
                         // layer.blocks_per_out))
    }
    assert len(addrs) > 10_000
    rng = random.Random(7)
    addrs |= {base + 64 * rng.randrange(1 << 20) + rng.randrange(64)
              for base in (1 << 32, 1 << 48, (1 << 48) - (1 << 26), 1 << 64)
              for _ in range(500)}
    addrs |= {0, (1 << 32) - 64, (1 << 48) - 64, (1 << 64) - 64}
    for addr in addrs:
        assert output_pattern(addr) == _output_pattern_loop(addr), hex(addr)


class TestCreditOnlyInput:
    """A cycle with no CSB operation, response or ack carries the
    credit alone."""

    def test_build_input_takes_it_for_every_credit_and_counts_stalls(self, sim):
        rtl = NVDLARTLObject(sim, "nvdla", max_inflight=255)
        for credit in range(256):
            rtl.inflight = 255 - credit
            got = rtl.build_input()
            assert NVDLA_INPUT.pack(*got) == NVDLA_INPUT.pack(credit=credit)
            assert got == NVDLA_INPUT.values(NVDLA_INPUT.pack(credit=credit))
        assert rtl.st_credit_stalls.value() == 1
        rtl.inflight = 300              # over the cap: still a stall, not < 0
        assert rtl.build_input() == NVDLA_INPUT.values(
            NVDLA_INPUT.pack(credit=0))
        assert rtl.st_credit_stalls.value() == 2

    def test_budget_above_the_field_saturates(self, sim):
        saturated = NVDLA_INPUT.values(NVDLA_INPUT.pack(credit=255))
        wide = NVDLARTLObject(sim, "wide", max_inflight=1000)
        assert wide.build_input() == saturated
        uncapped = NVDLARTLObject(sim, "uncapped", max_inflight=None)
        uncapped.inflight = 5000
        assert uncapped.build_input() == saturated
        assert wide.st_credit_stalls.value() == 0
        assert uncapped.st_credit_stalls.value() == 0


@pytest.mark.parametrize("n_nvdla, ticks, pinned", [
    pytest.param(1, 915, 29_100, id="1nvdla"),
    pytest.param(4, 7_744, 156_974, id="4nvdla"),
])
def test_python_calls_per_nvdla_tick_stay_in_budget(n_nvdla, ticks, pinned):
    """A count, not a timer: Python-level calls for one small DSE point
    (DDR4-4ch, scale 0.2), on the second of two identical runs (the
    first pays the lazy imports).  The count is exact: the same under
    any ``PYTHONHASHSEED`` and on CPython 3.10 to 3.12.  Pinned when a
    quiet edge stopped decoding, DRAM decoded a packet once, a one-shot
    became one call to schedule and one to fire, and a port hop one
    call: 29 673 calls for 915 ticks (32.4 per tick) and 159 045 for
    7 744 (20.5), against 52 124 (57.0) and 275 599 (35.6) before.
    Re-pinned when the NVDLA's structs crossed the bridge as their
    fields instead of packed bytes: 29 100 (31.8) and 156 974 (20.3),
    against 29 666 and 159 038 just before; 5 % headroom, so none of
    the paths can quietly grow back."""
    import sys

    from repro.dse.nvdla_system import build_nvdla_system

    def point():
        return build_nvdla_system("sanity3", n_nvdla=n_nvdla,
                                  memory="DDR4-4ch", max_inflight=240,
                                  scale=0.2)

    point().run_to_completion()
    system = point()
    calls = 0

    def count(frame, event, arg):
        nonlocal calls
        calls += event == "call"

    outer = sys.getprofile()
    sys.setprofile(count)
    try:
        system.run_to_completion()
    finally:
        sys.setprofile(outer)
    assert sum(rtl.st_ticks.value() for rtl in system.rtls) == ticks
    assert calls <= pinned * 1.05, f"{calls / ticks:.1f} calls per tick"
