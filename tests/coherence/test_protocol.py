"""Unit tests for the MESI state table (repro.coherence.protocol)."""

from __future__ import annotations

import pytest

from repro.coherence.protocol import (
    EVENTS,
    TRANSITIONS,
    ProtocolError,
    State,
    next_state,
)

M = State.MODIFIED
E = State.EXCLUSIVE
S = State.SHARED
I = State.INVALID  # noqa: E741 - the canonical MESI letter


class TestTableShape:
    def test_every_key_is_a_known_state_event_pair(self):
        for (state, event), succ in TRANSITIONS.items():
            assert isinstance(state, State)
            assert isinstance(succ, State)
            assert event in EVENTS

    def test_next_state_agrees_with_the_table(self):
        for (state, event), succ in TRANSITIONS.items():
            assert next_state(state, event) is succ


class TestLegalTransitions:
    def test_read_hits_do_not_move_state(self):
        for state in (M, E, S):
            assert next_state(state, "read_hit") is state

    def test_exclusive_write_is_a_silent_upgrade(self):
        assert next_state(E, "write_hit") is M
        assert next_state(M, "write_hit") is M

    def test_fills_land_only_on_invalid(self):
        assert next_state(I, "fill_shared") is S
        assert next_state(I, "fill_exclusive") is E
        assert next_state(I, "fill_modified") is M

    def test_shared_upgrade_reaches_modified(self):
        assert next_state(S, "upgrade") is M

    def test_snoop_share_demotes_owners_to_shared(self):
        for state in (M, E, S):
            assert next_state(state, "snoop_share") is S

    def test_snoop_invalidate_always_ends_invalid(self):
        for state in (M, E, S):
            assert next_state(state, "snoop_invalidate") is I

    def test_every_state_can_evict(self):
        for state in (M, E, S):
            assert next_state(state, "evict") is I


class TestIllegalTransitions:
    def test_write_hit_in_shared_must_upgrade_first(self):
        with pytest.raises(ProtocolError):
            next_state(S, "write_hit")

    def test_snoop_against_invalid_is_a_directory_lie(self):
        for event in ("snoop_share", "snoop_invalidate"):
            with pytest.raises(ProtocolError):
                next_state(I, event)

    def test_fill_over_a_live_line(self):
        for state in (M, E, S):
            with pytest.raises(ProtocolError):
                next_state(state, "fill_shared")

    def test_unknown_event(self):
        with pytest.raises(ProtocolError):
            next_state(M, "flush")

    def test_error_carries_cache_and_block_context(self):
        with pytest.raises(ProtocolError) as err:
            next_state(S, "write_hit", cache="l1_3", block=0x40080)
        assert "l1_3" in str(err.value)
        assert "0x40080" in str(err.value)
