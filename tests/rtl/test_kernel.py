"""RTL kernel: signals, memories, levelization, comb-loop detection."""

import pytest

from repro.rtl.kernel import CombLoopError, Edge, RTLModule, mask_for


class TestConstruction:
    def test_signal_indices_sequential(self):
        m = RTLModule("m")
        a = m.add_signal("a", 8)
        b = m.add_signal("b", 16)
        assert a.index == 0 and b.index == 1
        assert m.num_signals() == 2

    def test_duplicate_signal_rejected(self):
        m = RTLModule("m")
        m.add_signal("a", 1)
        with pytest.raises(ValueError):
            m.add_signal("a", 2)

    def test_masks(self):
        assert mask_for(1) == 1
        assert mask_for(8) == 0xFF
        assert mask_for(32) == 0xFFFFFFFF
        with pytest.raises(ValueError):
            mask_for(0)

    def test_initial_values_masked(self):
        m = RTLModule("m")
        m.add_signal("a", 4, init=0x1F)
        assert m.fresh_values()[0] == 0xF

    def test_memory_construction(self):
        m = RTLModule("m")
        mem = m.add_memory("ram", 8, 16)
        assert mem.depth == 16 and mem.mask == 0xFF
        assert m.fresh_mems() == [[0] * 16]

    def test_duplicate_memory_rejected(self):
        m = RTLModule("m")
        m.add_memory("ram", 8, 4)
        with pytest.raises(ValueError):
            m.add_memory("ram", 8, 4)

    def test_bad_memory_depth(self):
        m = RTLModule("m")
        with pytest.raises(ValueError):
            m.add_memory("ram", 8, 0)

    def test_io_markers(self):
        m = RTLModule("m")
        m.add_signal("i", 1, is_input=True)
        m.add_signal("o", 1, is_output=True)
        m.add_signal("w", 1)
        assert [s.name for s in m.inputs] == ["i"]
        assert [s.name for s in m.outputs] == ["o"]


class TestLevelization:
    def test_chain_ordered_by_dependency(self):
        m = RTLModule("m")
        a = m.add_signal("a", 8)
        b = m.add_signal("b", 8)
        c = m.add_signal("c", 8)

        # deliberately registered out of order: c<-b then b<-a
        def f_bc(v, mm):
            v[c.index] = v[b.index] + 1 & 0xFF

        def f_ab(v, mm):
            v[b.index] = v[a.index] + 1 & 0xFF

        m.add_comb(f_bc, {b.index}, {c.index}, name="bc")
        m.add_comb(f_ab, {a.index}, {b.index}, name="ab")
        order = m.levelize()
        assert [p.name for p in order] == ["ab", "bc"]

    def test_comb_loop_detected(self):
        m = RTLModule("m")
        a = m.add_signal("a", 1)
        b = m.add_signal("b", 1)
        m.add_comb(lambda v, mm: None, {a.index}, {b.index}, name="p1")
        m.add_comb(lambda v, mm: None, {b.index}, {a.index}, name="p2")
        with pytest.raises(CombLoopError):
            m.levelize()

    def test_self_loop_allowed_if_same_process(self):
        # a process reading and writing the same signal is not treated as
        # a loop with itself (common for read-modify-write assigns)
        m = RTLModule("m")
        a = m.add_signal("a", 8)
        m.add_comb(lambda v, mm: None, {a.index}, {a.index}, name="rmw")
        assert len(m.levelize()) == 1

    def test_independent_processes_any_order(self):
        m = RTLModule("m")
        sigs = [m.add_signal(f"s{i}", 1) for i in range(4)]
        for i in range(0, 4, 2):
            m.add_comb(lambda v, mm: None, {sigs[i].index},
                       {sigs[i + 1].index}, name=f"p{i}")
        assert len(m.levelize()) == 2


class TestSyncProcs:
    def test_edge_registration(self):
        m = RTLModule("m")
        clk = m.add_signal("clk", 1)
        m.add_sync(lambda v, mm, nba, nbm: None, clk, edge=Edge.NEG)
        assert m.sync_procs[0].edge == Edge.NEG
        assert m.sync_procs[0].clock == clk.index
