"""Fuzz determinism, corpus minimisation and persistence."""

from __future__ import annotations

import json

from repro.hdl.common import CoverageOptions
from repro.verify.designs import get_design
from repro.verify.stimulus import (
    Stimulus,
    fuzz,
    load_corpus,
    minimize_corpus,
    save_corpus,
)


def make_sim():
    return get_design("pmu").make_sim(instrument=CoverageOptions())


class TestDeterminism:
    def test_same_seed_same_corpus_and_coverage(self):
        a = fuzz(make_sim, seed=13, runs=6, cycles=24)
        b = fuzz(make_sim, seed=13, runs=6, cycles=24)
        assert [s.to_dict() for s in a.corpus] == \
               [s.to_dict() for s in b.corpus]
        assert a.summary == b.summary
        assert a.total_keys == b.total_keys

    def test_different_seed_differs(self):
        a = fuzz(make_sim, seed=13, runs=6, cycles=24)
        b = fuzz(make_sim, seed=14, runs=6, cycles=24)
        assert [s.to_dict() for s in a.corpus] != \
               [s.to_dict() for s in b.corpus]

    def test_stimulus_replay_is_deterministic(self):
        stim = Stimulus("uniform", 99, 32)
        outs = []
        for _ in range(2):
            sim = make_sim()
            stim.apply(sim)
            outs.append(list(sim.values))
        assert outs[0] == outs[1]


class TestCoverageGuidance:
    def test_corpus_only_keeps_coverage_increasing_runs(self):
        result = fuzz(make_sim, seed=3, runs=12, cycles=24)
        assert 0 < len(result.corpus) <= result.runs
        # every kept entry contributed keys; their union is the replayable set
        assert result.replay_keys() <= result.total_keys

    def test_minimized_corpus_preserves_coverage(self):
        result = fuzz(make_sim, seed=3, runs=12, cycles=24, minimize=False)
        kept, kept_keys = minimize_corpus(result.corpus, result.corpus_keys)
        union_before = set().union(*result.corpus_keys) \
            if result.corpus_keys else set()
        union_after = set().union(*kept_keys) if kept_keys else set()
        assert union_after == union_before
        assert len(kept) <= len(result.corpus)

    def test_summary_shape(self):
        result = fuzz(make_sim, seed=1, runs=4, cycles=16)
        stmt = result.summary["statement"]
        assert set(stmt) == {"covered", "total", "pct"}
        assert 0 < stmt["covered"] <= stmt["total"]
        assert result.summary["toggle"]["total_bits"] > 0


class TestPersistence:
    def test_corpus_roundtrip(self, tmp_path):
        result = fuzz(make_sim, seed=21, runs=6, cycles=16)
        path = tmp_path / "pmu.json"
        save_corpus(path, "pmu", 21, result)
        loaded = load_corpus(path)
        assert [s.to_dict() for s in loaded] == \
               [s.to_dict() for s in result.corpus]
        doc = json.loads(path.read_text())
        assert doc["design"] == "pmu"
        assert doc["seed"] == 21
        assert doc["coverage"] == result.summary

    def test_saved_json_is_byte_deterministic(self, tmp_path):
        texts = []
        for name in ("a.json", "b.json"):
            result = fuzz(make_sim, seed=8, runs=5, cycles=16)
            path = tmp_path / name
            save_corpus(path, "pmu", 8, result)
            texts.append(path.read_text())
        assert texts[0] == texts[1]
