"""RTLSimulator: settle/tick semantics, NBA atomicity, reset, checkpoints."""

import pytest

from repro.models.rtlcache.wrapper import RTLCacheSharedLibrary
from repro.rtl.kernel import Edge, RTLModule
from repro.rtl.simulator import RTLSimulator


def make_counter_module():
    """Handwritten kernel-level counter (no HDL frontend involved)."""
    m = RTLModule("ctr")
    clk = m.add_signal("clk", 1, is_input=True)
    rst = m.add_signal("rst", 1, is_input=True)
    en = m.add_signal("en", 1, is_input=True)
    cnt = m.add_signal("cnt", 8)
    out = m.add_signal("out", 8, is_output=True)

    def sync(v, mm, nba, nbm):
        if v[rst.index]:
            nba.append((cnt.index, 0))
        elif v[en.index]:
            nba.append((cnt.index, (v[cnt.index] + 1) & 0xFF))

    def comb(v, mm):
        v[out.index] = v[cnt.index]

    m.add_sync(sync, clk, reads={rst.index, en.index, cnt.index},
               writes={cnt.index})
    m.add_comb(comb, {cnt.index}, {out.index})
    return m


class TestBasicOperation:
    def test_counts_when_enabled(self):
        sim = RTLSimulator(make_counter_module())
        sim.reset()
        sim.poke("en", 1)
        sim.settle()
        sim.tick(5)
        assert sim.peek("out") == 5

    def test_holds_when_disabled(self):
        sim = RTLSimulator(make_counter_module())
        sim.reset()
        sim.poke("en", 1); sim.settle(); sim.tick(3)
        sim.poke("en", 0); sim.settle(); sim.tick(10)
        assert sim.peek("out") == 3

    def test_reset_via_signal(self):
        sim = RTLSimulator(make_counter_module())
        sim.reset()
        sim.poke("en", 1); sim.settle(); sim.tick(3)
        sim.reset()
        assert sim.peek("out") == 0

    def test_peek_unknown_signal(self):
        sim = RTLSimulator(make_counter_module())
        with pytest.raises(KeyError):
            sim.peek("nope")

    def test_poke_masks_value(self):
        sim = RTLSimulator(make_counter_module())
        sim.poke("cnt", 0x1FF)
        assert sim.peek("cnt") == 0xFF

    def test_cycle_counter(self):
        sim = RTLSimulator(make_counter_module())
        sim.reset()
        base = sim.cycle
        sim.tick(7)
        assert sim.cycle == base + 7


class TestNBASemantics:
    def test_swap_is_atomic(self):
        """Two registers exchanging values must swap, not duplicate."""
        m = RTLModule("swap")
        clk = m.add_signal("clk", 1, is_input=True)
        a = m.add_signal("a", 8, init=1)
        b = m.add_signal("b", 8, init=2)

        def p1(v, mm, nba, nbm):
            nba.append((a.index, v[b.index]))

        def p2(v, mm, nba, nbm):
            nba.append((b.index, v[a.index]))

        m.add_sync(p1, clk, reads={b.index}, writes={a.index})
        m.add_sync(p2, clk, reads={a.index}, writes={b.index})
        sim = RTLSimulator(m)
        sim.tick()
        assert (sim.peek("a"), sim.peek("b")) == (2, 1)
        sim.tick()
        assert (sim.peek("a"), sim.peek("b")) == (1, 2)

    def test_memory_nba_applied_after_sampling(self):
        m = RTLModule("mem")
        clk = m.add_signal("clk", 1, is_input=True)
        mem = m.add_memory("ram", 8, 4)
        probe = m.add_signal("probe", 8)

        def p(v, mm, nba, nbm):
            # read old value into probe, then write new one
            nba.append((probe.index, mm[mem.index][0]))
            nbm.append((mem.index, 0, (mm[mem.index][0] + 1) & 0xFF))

        m.add_sync(p, clk, writes={probe.index})
        sim = RTLSimulator(m)
        sim.tick()
        assert sim.peek("probe") == 0 and sim.peek_mem("ram", 0) == 1
        sim.tick()
        assert sim.peek("probe") == 1 and sim.peek_mem("ram", 0) == 2

    def test_negedge_process(self):
        m = RTLModule("neg")
        clk = m.add_signal("clk", 1, is_input=True)
        c = m.add_signal("c", 8)

        def p(v, mm, nba, nbm):
            nba.append((c.index, (v[c.index] + 1) & 0xFF))

        m.add_sync(p, clk, edge=Edge.NEG, reads={c.index}, writes={c.index})
        sim = RTLSimulator(m)
        sim.tick(3)
        assert sim.peek("c") == 3


class TestCheckpoint:
    def test_save_restore_roundtrip(self):
        sim = RTLSimulator(make_counter_module())
        sim.reset()
        sim.poke("en", 1); sim.settle(); sim.tick(5)
        ckpt = sim.save_checkpoint()
        sim.tick(10)
        assert sim.peek("out") == 15
        sim.restore_checkpoint(ckpt)
        assert sim.peek("out") == 5
        assert sim.cycle == ckpt.cycle
        sim.tick(2)
        assert sim.peek("out") == 7

    def test_checkpoint_deep_copies_memories(self):
        m = RTLModule("m")
        m.add_signal("clk", 1, is_input=True)
        m.add_memory("ram", 8, 4)
        sim = RTLSimulator(m)
        sim.poke_mem("ram", 1, 42)
        ckpt = sim.save_checkpoint()
        sim.poke_mem("ram", 1, 99)
        sim.restore_checkpoint(ckpt)
        assert sim.peek_mem("ram", 1) == 42

    def test_mismatched_checkpoint_rejected(self):
        sim1 = RTLSimulator(make_counter_module())
        m2 = RTLModule("other")
        m2.add_signal("x", 1)
        sim2 = RTLSimulator(m2)
        with pytest.raises(ValueError):
            sim2.restore_checkpoint(sim1.save_checkpoint())

    def test_checkpoint_of_other_memory_geometry_rejected(self):
        # idxw sizes the tag and data arrays, not the signal count
        small = RTLCacheSharedLibrary(idxw=4)
        big = RTLCacheSharedLibrary(idxw=6)
        assert len(small.sim.values) == len(big.sim.values)
        before = big.save_checkpoint()
        with pytest.raises(ValueError, match="does not match"):
            big.load_checkpoint_state(small.checkpoint_state())
        with pytest.raises(ValueError, match="does not match"):
            big.restore_checkpoint(small.save_checkpoint())
        assert big.sim.mems == before[0].mems
        big.sim.peek_mem("tags", 40)

    def test_checkpoint_of_other_memory_count_rejected(self):
        m1, m2 = RTLModule("one"), RTLModule("two")
        for m in (m1, m2):
            m.add_memory("ram", 8, 4)
        m2.add_memory("rom", 8, 4)
        with pytest.raises(ValueError, match="does not match"):
            RTLSimulator(m1).restore_checkpoint(
                RTLSimulator(m2).save_checkpoint())


class TestMemoryPokes:
    def test_poke_mem_masks(self):
        m = RTLModule("m")
        m.add_memory("ram", 4, 2)
        sim = RTLSimulator(m)
        sim.poke_mem("ram", 0, 0xFF)
        assert sim.peek_mem("ram", 0) == 0xF


class TestCompiledOncePerProcess:
    """Generated text is compiled once per process; every simulator
    still executes it in a namespace of its own."""

    CHAIN = "\n".join(
        f"  wire [7:0] t{i};\n"
        f"  assign t{i} = t{i-1} ^ (t{i-1} + 8'd{i});"
        for i in range(1, 20)
    )
    SOURCE = f"""
module fatmem(input clk, input rst, input [7:0] x,
              output reg [7:0] r, output [7:0] y);
  reg [7:0] ram [0:3];
  wire [7:0] t0;
  assign t0 = x + 8'd1;
{CHAIN}
  assign y = t19 ^ r;
  always @(posedge clk) begin
    if (rst) r <= 8'd0; else r <= r + x;
    ram[r[1:0]] <= y;
  end
endmodule
"""

    def _sim(self):
        from repro.hdl.verilog import compile_verilog

        module = compile_verilog(self.SOURCE, top="fatmem")
        return RTLSimulator(module, backend="codegen")

    @staticmethod
    def _snapshot(sim):
        return (list(sim.values), [list(mem) for mem in sim.mems],
                sim.cycle)

    def test_one_design_shares_code_objects_and_no_state(self):
        sim_a, sim_b = self._sim(), self._sim()
        assert sim_a._codegen.source == sim_b._codegen.source
        for fn in ("tick_batch", "settle"):
            a, b = getattr(sim_a._codegen, fn), getattr(sim_b._codegen, fn)
            assert a.__code__ is b.__code__
            assert a is not b and a.__globals__ is not b.__globals__

        before = self._snapshot(sim_b)
        sim_a.poke("x", 5)
        sim_a.tick(100)
        assert self._snapshot(sim_a) != before
        assert self._snapshot(sim_b) == before

        fresh = self._sim()
        for sim in (sim_b, fresh):
            sim.poke("x", 9)
            sim.tick()
        assert self._snapshot(sim_b) == self._snapshot(fresh)

    def test_second_build_compiles_nothing(self, monkeypatch):
        import builtins

        self._sim()
        calls = []
        real = builtins.compile
        monkeypatch.setattr(
            builtins, "compile",
            lambda *a, **k: calls.append(a[1]) or real(*a, **k))
        self._sim()
        assert not [name for name in calls if name.startswith("<codegen:")]
