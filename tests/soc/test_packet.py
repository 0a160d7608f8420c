"""Packet and MemCmd semantics."""

import pytest

from repro.soc.packet import MemCmd, Packet


class TestMemCmd:
    def test_read_classification(self):
        assert MemCmd.ReadReq.is_read and MemCmd.ReadReq.is_request
        assert MemCmd.ReadResp.is_read and MemCmd.ReadResp.is_response

    def test_write_classification(self):
        assert MemCmd.WriteReq.is_write and MemCmd.WriteReq.needs_response
        assert MemCmd.WritebackDirty.is_write
        assert not MemCmd.WritebackDirty.needs_response

    def test_response_mapping(self):
        assert MemCmd.ReadReq.response_for() is MemCmd.ReadResp
        assert MemCmd.WriteReq.response_for() is MemCmd.WriteResp
        assert MemCmd.PrefetchReq.response_for() is MemCmd.PrefetchResp

    def test_response_for_nonrequest_rejected(self):
        with pytest.raises(ValueError):
            MemCmd.ReadResp.response_for()
        with pytest.raises(ValueError):
            MemCmd.WritebackDirty.response_for()


class TestMemCmdTable:
    """Every member against the membership lists written out here."""

    M = MemCmd
    MEMBERS = {
        "is_read": [M.ReadReq, M.ReadResp, M.PrefetchReq, M.PrefetchResp,
                    M.ReadExReq, M.ReadExResp],
        "is_write": [M.WriteReq, M.WriteResp, M.WritebackDirty],
        "is_request": [M.ReadReq, M.WriteReq, M.WritebackDirty,
                       M.PrefetchReq, M.ReadExReq, M.UpgradeReq, M.SnoopReq],
        "is_response": [M.ReadResp, M.WriteResp, M.PrefetchResp,
                        M.ReadExResp, M.UpgradeResp, M.SnoopResp],
        "needs_response": [M.ReadReq, M.WriteReq, M.PrefetchReq,
                           M.ReadExReq, M.UpgradeReq],
    }
    RESPONSES = {
        M.ReadReq: M.ReadResp,
        M.WriteReq: M.WriteResp,
        M.PrefetchReq: M.PrefetchResp,
        M.ReadExReq: M.ReadExResp,
        M.UpgradeReq: M.UpgradeResp,
        M.SnoopReq: M.SnoopResp,
    }

    @pytest.mark.parametrize("cmd", list(MemCmd), ids=lambda c: c.name)
    def test_predicates(self, cmd):
        for predicate, members in self.MEMBERS.items():
            assert getattr(cmd, predicate) is (cmd in members), predicate
            pkt = Packet(cmd, 0x40, 64)
            assert getattr(pkt, predicate) is (cmd in members), predicate

    @pytest.mark.parametrize("cmd", list(MemCmd), ids=lambda c: c.name)
    def test_response_for(self, cmd):
        if cmd in self.RESPONSES:
            assert cmd.response_for() is self.RESPONSES[cmd]
        else:
            with pytest.raises(ValueError, match="does not take a response"):
                cmd.response_for()


class TestPacket:
    def test_ids_are_unique(self):
        a = Packet(MemCmd.ReadReq, 0, 8)
        b = Packet(MemCmd.ReadReq, 0, 8)
        assert a.pkt_id != b.pkt_id

    def test_block_addr(self):
        pkt = Packet(MemCmd.ReadReq, 0x1234, 8)
        assert pkt.block_addr(64) == 0x1200

    def test_negative_addr_rejected(self):
        with pytest.raises(ValueError):
            Packet(MemCmd.ReadReq, -1, 8)

    def test_zero_size_rejected(self):
        with pytest.raises(ValueError):
            Packet(MemCmd.ReadReq, 0, 0)

    def test_make_response_in_place(self):
        pkt = Packet(MemCmd.ReadReq, 0x100, 4)
        resp = pkt.make_response(b"\x01\x02\x03\x04")
        assert resp is pkt
        assert pkt.cmd is MemCmd.ReadResp
        assert pkt.data == b"\x01\x02\x03\x04"

    def test_make_response_validates_length(self):
        pkt = Packet(MemCmd.ReadReq, 0, 4)
        with pytest.raises(ValueError):
            pkt.make_response(b"\x00")

    def test_sender_state_stack_lifo(self):
        pkt = Packet(MemCmd.ReadReq, 0, 8)
        pkt.push_state("a")
        pkt.push_state("b")
        assert pkt.pop_state() == "b"
        assert pkt.pop_state() == "a"

    def test_sender_state_underflow(self):
        pkt = Packet(MemCmd.ReadReq, 0, 8)
        with pytest.raises(RuntimeError):
            pkt.pop_state()

    def test_meta_is_per_packet(self):
        a = Packet(MemCmd.ReadReq, 0, 8)
        b = Packet(MemCmd.ReadReq, 0, 8)
        a.meta["x"] = 1
        assert "x" not in b.meta
