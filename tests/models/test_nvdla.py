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
    CREDIT_ONLY_INPUT,
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
            lib.tick(lib.input_spec.pack(
                csb_valid=1, csb_write=1, csb_addr=addr, csb_wdata=value
            ))
        assert lib.core.busy
        # run with generous credit, acking everything
        irq_seen = False
        pending: list[int] = []
        for _ in range(200):
            out = lib.output_spec.unpack(lib.tick(lib.input_spec.pack(
                credit=255,
                rd_resp_count=min(len(pending), 4),
                rd_resp_seqs=(pending + [0] * 4)[:4],
                wr_acks=min(lib.core._writes_issued - lib.core._writes_acked, 7),
            )))
            pending = [out["rd_seqs"][i] for i in range(out["rd_count"])]
            if out["irq"]:
                irq_seen = True
                break
        assert irq_seen

    def test_csb_read_through_wrapper(self):
        lib = NVDLASharedLibrary()
        lib.reset()
        out = lib.output_spec.unpack(lib.tick(lib.input_spec.pack(
            csb_valid=1, csb_write=0, csb_addr=REG_ID
        )))
        assert out["csb_rvalid"] == 1
        assert out["csb_rdata"] == NVDLA_ID_VALUE


def csb_write(lib, addr, value) -> bytes:
    return lib.tick(lib.input_spec.pack(
        csb_valid=1, csb_write=1, csb_addr=addr, csb_wdata=value
    ))


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
        pack, unpack = lib.input_spec.pack, lib.output_spec.unpack
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
            out = unpack(lib.tick(pack(**fields)))
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
            lib.tick(lib.input_spec.zeros())


def _saved(lib) -> dict:
    """*lib*'s checkpointed state."""
    return lib.serialize(SerializationContext())


class DenseReference(NVDLASharedLibrary):
    """The exchange as it was before it went sparse: all nine output
    fields packed every cycle, lists padded then sliced."""

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
            got, want = lib.tick(in_bytes), ref.tick(in_bytes)
            assert got == want, f"cycle {cycles}: {unpack(got)} != {unpack(want)}"
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
        """Bits above a field's width in its slot: the exchange and the
        dense reference (which goes through ``unpack``) must read the
        same struct out of the same bytes."""
        lib, ref = NVDLASharedLibrary(), DenseReference()
        raw = NVDLA_INPUT.struct.pack
        for lib_ in (lib, ref):
            lib_.reset()
            for addr, value in self.LAYERS[0].items():
                csb_write(lib_, addr, value)
            csb_write(lib_, REG_OP_ENABLE, 1)
        stream = [
            # csb_valid slot 0xFF -> 1, csb_write slot 0xFE -> 0: a read
            # of csb_addr 0xF000 | REG_IN_BLOCKS -> REG_IN_BLOCKS
            raw(0xFF, 0xFE, 0xF000 | REG_IN_BLOCKS, 0, 255, 0, 0, 0, 0, 0, 0),
            # rd_resp_count slot 0xFA -> 2 responses, wr_acks 0xF8 -> 0
            raw(0, 0, 0, 0, 255, 0xFA, 0, 1, 7, 9, 0xF8),
            # rd_resp_count 7 > RESP_LANES: the four lanes, no more
            raw(0, 0, 0, 0, 3, 7, 2, 3, 4, 5, 0),
            # csb_write slot 0xFF -> a write of csb_addr >= 2**12
            raw(1, 0xFF, 0x1000 | REG_IRQ_CLEAR, 1, 0, 0, 0, 0, 0, 0, 0),
        ]
        outs = [lib.tick(in_bytes) for in_bytes in stream]
        assert outs == [ref.tick(in_bytes) for in_bytes in stream]
        first = NVDLA_OUTPUT.unpack(outs[0])
        assert (first["csb_rvalid"], first["csb_rdata"]) == (1, 900)
        # both bursts landed: two tags, then four (not seven)
        assert lib.core.consumed + len(lib.core._arrived) == 6
        assert _saved(lib) == _saved(ref)

    def test_wrong_length_input_raises_the_specs_size_error(self):
        lib = NVDLASharedLibrary()
        lib.reset()
        for bad in (b"", NVDLA_INPUT.zeros()[:-1], NVDLA_INPUT.zeros() + b"\0"):
            with pytest.raises(ValueError) as err:
                lib.tick(bad)
            assert str(err.value) == str(NVDLA_INPUT.size_error(len(bad)))
        assert lib.ticks == 0

    def test_wrapper_rejects_more_reads_than_lanes(self):
        lib = NVDLASharedLibrary()
        lib.reset()
        five = [(i, 64 * i, 0) for i in range(REQ_LANES + 1)]
        lib.core.step = lambda credit, seqs, acks: (five, [], 0)
        with pytest.raises(RuntimeError, match="lanes"):
            lib.tick(lib.input_spec.zeros())


class ScriptedLibrary(NVDLASharedLibrary):
    """Answers a fixed list of output structs, whatever it is fed."""

    def __init__(self, script):
        super().__init__()
        self.script = list(script)

    def tick(self, input_bytes: bytes) -> bytes:
        self.ticks += 1
        return self.script.pop(0) if self.script else self.output_spec.zeros()


class DictConsume(NVDLARTLObject):
    """The gem5 side as it was before the scatter: the output struct
    decoded to a dict, one ``send_mem_*`` call per beat."""

    def decode_output(self, out_bytes):
        return self.library.output_spec.unpack(out_bytes)

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
        """Every rd_count x wr_count x irq x csb_rvalid, the lanes past
        a count holding junk that must never reach a port."""
        out, n = [], 0
        for rd in range(REQ_LANES + 1):
            for wr in range(REQ_LANES + 1):
                for irq in (0, 1):
                    for rvalid in (0, 1):
                        n += 1
                        out.append(NVDLA_OUTPUT.pack(
                            csb_rvalid=rvalid, csb_rdata=0xC0DE0000 + n,
                            rd_count=rd, wr_count=wr, irq=irq,
                            rd_seqs=[1000 * n + i for i in range(REQ_LANES)],
                            rd_addrs=[(n << 16) + 64 * i for i in range(REQ_LANES)],
                            rd_ports=[(n + i) & 1 for i in range(REQ_LANES)],
                            wr_addrs=[(n << 24) + 64 * i for i in range(REQ_LANES)],
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
        for out_bytes in script:
            if NVDLA_OUTPUT.unpack(out_bytes)["csb_rvalid"]:
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

    @pytest.mark.parametrize("fields,which", [
        ({"rd_count": 3}, "read"), ({"wr_count": 3}, "write"),
    ])
    def test_exceeding_the_credit_still_raises(self, fields, which):
        script = [NVDLA_OUTPUT.pack(**fields)]
        for cls in (NVDLARTLObject, DictConsume):
            with pytest.raises(RuntimeError,
                               match=rf"exceeded its credit \({which}\)"):
                self._drive(cls, script, max_inflight=2)


class TestCreditOnlyInput:
    def test_table_is_pack_of_the_credit_alone(self):
        assert list(CREDIT_ONLY_INPUT) == [
            NVDLA_INPUT.pack(credit=c) for c in range(256)
        ]

    def test_build_input_takes_it_for_every_credit_and_counts_stalls(self, sim):
        rtl = NVDLARTLObject(sim, "nvdla", max_inflight=255)
        for credit in range(256):
            rtl.inflight = 255 - credit
            assert rtl.build_input() == NVDLA_INPUT.pack(credit=credit)
        assert rtl.st_credit_stalls.value() == 1
        rtl.inflight = 300              # over the cap: still a stall, not < 0
        assert rtl.build_input() == NVDLA_INPUT.pack(credit=0)
        assert rtl.st_credit_stalls.value() == 2

    def test_budget_above_the_field_saturates(self, sim):
        wide = NVDLARTLObject(sim, "wide", max_inflight=1000)
        assert wide.build_input() == NVDLA_INPUT.pack(credit=255)
        uncapped = NVDLARTLObject(sim, "uncapped", max_inflight=None)
        uncapped.inflight = 5000
        assert uncapped.build_input() == NVDLA_INPUT.pack(credit=255)
        assert wide.st_credit_stalls.value() == 0
        assert uncapped.st_credit_stalls.value() == 0


@pytest.mark.parametrize("n_nvdla, ticks, pinned", [
    pytest.param(1, 915, 29_673, id="1nvdla"),
    pytest.param(4, 7_744, 159_045, id="4nvdla"),
])
def test_python_calls_per_nvdla_tick_stay_in_budget(n_nvdla, ticks, pinned):
    """A count, not a timer: Python-level calls for one small DSE point
    (DDR4-4ch, scale 0.2), on the second of two identical runs (the
    first pays the lazy imports).  The count is exact: the same under
    any ``PYTHONHASHSEED`` and on CPython 3.10 to 3.12.  Pinned when a
    quiet edge stopped decoding, DRAM decoded a packet once, a one-shot
    became one call to schedule and one to fire, and a port hop one
    call: 29 673 calls for 915 ticks (32.4 per tick) and 159 045 for
    7 744 (20.5), against 52 124 (57.0) and 275 599 (35.6) before; 5 %
    headroom, so none of the paths can quietly grow back."""
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
