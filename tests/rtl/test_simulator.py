"""RTLSimulator: settle/tick semantics, NBA atomicity, reset, checkpoints."""

import pytest

from repro.rtl import Edge, RTLModule, RTLSimulator


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


class TestMemoryPokes:
    def test_poke_mem_masks(self):
        m = RTLModule("m")
        m.add_memory("ram", 4, 2)
        sim = RTLSimulator(m)
        sim.poke_mem("ram", 0, 0xFF)
        assert sim.peek_mem("ram", 0) == 0xF


class TestResetStateInvalidation:
    """``reset_state`` must be a no-op path when the optimiser emitted
    zero guarded cones — internal pokes on -O0/-O1 builds used to pay
    a useless invalidation call in the hottest driver loop."""

    FAT_CONE = None  # built lazily (long assign chain)

    @classmethod
    def _fat_cone_source(cls):
        if cls.FAT_CONE is None:
            chain = "\n".join(
                f"  wire [7:0] t{i};\n"
                f"  assign t{i} = t{i-1} ^ (t{i-1} + 8'd{i});"
                for i in range(1, 20)
            )
            cls.FAT_CONE = f"""
module fatcone(input clk, input rst, input [7:0] x,
               output reg [7:0] r, output [7:0] y);
  wire [7:0] t0;
  assign t0 = r + 8'd1;
{chain}
  assign y = t19;
  always @(posedge clk) begin
    if (rst) r <= 8'd0; else r <= r + x;
  end
endmodule
"""
        return cls.FAT_CONE

    def _compile(self, opt_level):
        from repro.hdl.common import ElabOptions
        from repro.hdl.verilog import compile_verilog

        return compile_verilog(
            self._fat_cone_source(), top="fatcone",
            options=ElabOptions(opt_level=opt_level),
        )

    def _count_calls(self, sim):
        calls = {"n": 0}
        orig = sim._codegen.reset_state

        def counted():
            calls["n"] += 1
            orig()

        sim._codegen.reset_state = counted
        return calls

    def test_unguarded_build_never_invalidates(self):
        sim = RTLSimulator(self._compile(0), backend="codegen")
        assert sim._codegen.guarded_cones == 0
        assert not sim._invalidates
        calls = self._count_calls(sim)
        sim.reset()
        for _ in range(5):
            sim.poke("r", 3)          # internal register
            sim.poke("x", 1)          # input
            sim.tick()
        sim.restore_checkpoint(sim.save_checkpoint())
        assert calls["n"] == 0

    def test_guarded_build_invalidates_exactly_per_mutation(self):
        sim = RTLSimulator(self._compile(2), backend="codegen")
        assert sim._codegen.guarded_cones > 0
        assert sim._invalidates
        calls = self._count_calls(sim)
        sim.poke("x", 1)              # input poke: key compare handles it
        assert calls["n"] == 0
        sim.poke("r", 3)              # internal poke: must invalidate
        assert calls["n"] == 1
        sim.reset()
        assert calls["n"] == 2
        sim.restore_checkpoint(sim.save_checkpoint())
        assert calls["n"] == 3

    def test_guarded_and_unguarded_builds_agree(self):
        sims = [
            RTLSimulator(self._compile(0), backend="codegen"),
            RTLSimulator(self._compile(2), backend="codegen"),
        ]
        for sim in sims:
            sim.reset()
            sim.poke("x", 5)
            sim.tick(9)
            sim.poke("r", 0x2A)       # bypasses generated code
            sim.tick(3)
        assert sims[0].peek("y") == sims[1].peek("y")
        assert sims[0].peek("r") == sims[1].peek("r")


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

    def _sim(self, opt_level):
        from repro.hdl.common import ElabOptions
        from repro.hdl.verilog import compile_verilog

        module = compile_verilog(
            self.SOURCE, top="fatmem",
            options=ElabOptions(opt_level=opt_level),
        )
        return RTLSimulator(module, backend="codegen")

    @staticmethod
    def _snapshot(sim):
        return (list(sim.values), [list(mem) for mem in sim.mems],
                sim.cycle, list(sim._codegen.namespace["_act"]))

    def test_one_design_shares_code_objects_and_no_state(self):
        sim_a, sim_b = self._sim(2), self._sim(2)
        assert sim_a._codegen.guarded_cones > 0
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

        fresh = self._sim(2)
        for sim in (sim_b, fresh):
            sim.poke("x", 9)
            sim.tick()
        assert self._snapshot(sim_b) == self._snapshot(fresh)

    def test_opt_levels_do_not_share(self):
        sim_o0, sim_o2 = self._sim(0), self._sim(2)
        assert sim_o0._codegen.source != sim_o2._codegen.source
        assert (sim_o0._codegen.tick_batch.__code__
                is not sim_o2._codegen.tick_batch.__code__)
        assert sim_o0._codegen.guarded_cones == 0

    def test_second_build_compiles_nothing(self, monkeypatch):
        import builtins

        self._sim(2)
        calls = []
        real = builtins.compile
        monkeypatch.setattr(
            builtins, "compile",
            lambda *a, **k: calls.append(a[1]) or real(*a, **k))
        self._sim(2)
        assert not [name for name in calls if name.startswith("<codegen:")]
