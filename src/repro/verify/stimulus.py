"""Constrained-random stimulus and the coverage-guided fuzz loop.

Everything here is **seeded and deterministic**: a :class:`Stimulus` is
just ``(strategy, seed, cycles)`` — the concrete per-cycle input values
are re-derived from ``random.Random(seed)`` on every replay, inputs
visited in sorted-name order.  Running ``fuzz`` twice with the same seed
produces byte-identical corpora and coverage
(``tests/verify/test_fuzz.py`` locks this down).

The fuzz loop is the classic coverage-guided shape: generate a
candidate, run it on a fresh simulator, keep it in the corpus iff it
covers something no earlier corpus member covered (statement points,
toggle bits or FSM states/edges — :meth:`CoverageCollector.covered_keys`
is the currency).  A greedy minimisation pass then drops corpus entries
made redundant by later, richer ones.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from typing import Callable, Iterable, Optional, Sequence

from .coverage import CoverageCollector

#: inputs the strategies never drive (the simulator owns the clock; the
#: reset-pulse strategy drives reset explicitly)
CLOCK_NAMES = ("clk", "clock")
RESET_NAMES = ("rst", "reset", "rst_n", "reset_n")

STRATEGIES = ("uniform", "onehot", "weighted", "range", "reset_pulse")


def _drivable(sim) -> list:
    """Inputs to draw for: not the clock or reset, nor one no process
    reads (a union port), whose draws would only shift later cycles."""
    module = sim.module
    read = set().union(*(p.reads for p in module.comb_procs),
                       *(p.reads for p in module.sync_procs))
    return [
        s for s in module.inputs
        if s.name not in CLOCK_NAMES and s.name not in RESET_NAMES
        and s.index in read
    ]


def _reset_name(sim) -> Optional[str]:
    for name in RESET_NAMES:
        if name in sim.module.signals:
            return name
    return None


@dataclass(frozen=True)
class Stimulus:
    """One replayable stimulus: strategy + seed + length."""

    strategy: str
    seed: int
    cycles: int

    def to_dict(self) -> dict:
        return {"strategy": self.strategy, "seed": self.seed,
                "cycles": self.cycles}

    @staticmethod
    def from_dict(d: dict) -> "Stimulus":
        return Stimulus(d["strategy"], d["seed"], d["cycles"])

    # -- replay ------------------------------------------------------------

    def apply(self, sim, collector: Optional[CoverageCollector] = None,
              on_cycle: Optional[Callable[[int], None]] = None) -> None:
        """Reset *sim*, then drive it for :attr:`cycles` clock cycles.

        *on_cycle* (if given) runs after each tick — the equivalence
        checker uses it to compare backends in lockstep.
        """
        if self.strategy not in STRATEGIES:
            raise ValueError(f"unknown stimulus strategy {self.strategy!r}")
        rng = random.Random(self.seed)
        inputs = sorted(_drivable(sim), key=lambda s: s.name)
        reset = _reset_name(sim)
        sim.reset()
        if collector is not None:
            collector.sample()
        held = {s.name: 0 for s in inputs}
        for cycle in range(self.cycles):
            if self.strategy == "uniform":
                for s in inputs:
                    sim.poke(s.name, rng.getrandbits(s.width))
            elif self.strategy == "onehot":
                for s in inputs:
                    sim.poke(s.name, 0)
                if inputs:
                    s = inputs[rng.randrange(len(inputs))]
                    sim.poke(s.name, 1 << rng.randrange(s.width))
            elif self.strategy == "weighted":
                # each bit flips with ~1/8 probability: slow-moving
                # values that exercise sticky state (busy flags, FSMs)
                for s in inputs:
                    flips = 0
                    for bit in range(s.width):
                        if rng.randrange(8) == 0:
                            flips |= 1 << bit
                    held[s.name] = (held[s.name] ^ flips) & s.mask
                    sim.poke(s.name, held[s.name])
            elif self.strategy == "range":
                # small values: address-map / low-index corner traffic
                for s in inputs:
                    sim.poke(s.name, rng.randrange(min(s.mask, 15) + 1))
            elif self.strategy == "reset_pulse":
                for s in inputs:
                    sim.poke(s.name, rng.getrandbits(s.width))
                if reset is not None:
                    # ~1-in-8 cycles spent in a mid-run reset pulse
                    sim.poke(reset, 1 if rng.randrange(8) == 0 else 0)
            sim.tick()
            if collector is not None:
                collector.sample()
            if on_cycle is not None:
                on_cycle(cycle)


def corner_stimuli(cycles: int = 32) -> list[Stimulus]:
    """The fixed corner set every equivalence run includes."""
    return [
        Stimulus("range", 0, cycles),
        Stimulus("onehot", 1, cycles),
        Stimulus("weighted", 2, cycles),
        Stimulus("reset_pulse", 3, cycles),
    ]


# ---------------------------------------------------------------------------
# Coverage-guided fuzz loop
# ---------------------------------------------------------------------------


@dataclass
class FuzzResult:
    """Outcome of one fuzz run (before/after minimisation)."""

    corpus: list[Stimulus]
    corpus_keys: list[set]          # covered_keys per corpus entry
    total_keys: set                 # union over every run (kept or not)
    runs: int
    summary: dict

    def replay_keys(self) -> set:
        out: set = set()
        for keys in self.corpus_keys:
            out |= keys
        return out


def _aggregate_summary(module, keys: set) -> dict:
    """Roll a key set up into the same covered/total shape as a report."""
    stmt_total = len(module.coverage_points)
    stmt_cov = sum(1 for k in keys if k[0] == "stmt")
    tog_total = sum(2 * s.width for s in module.visible_signals())
    tog_cov = sum(1 for k in keys if k[0] in ("t01", "t10"))
    fsm_total = sum(len(f.states) for f in module.fsm_infos)
    fsm_cov = sum(1 for k in keys if k[0] == "fsm_state")
    return {
        "statement": {
            "covered": stmt_cov,
            "total": stmt_total,
            "pct": round(100.0 * stmt_cov / stmt_total, 2)
            if stmt_total else 100.0,
        },
        "toggle": {
            "covered_bits": tog_cov,
            "total_bits": tog_total,
            "pct": round(100.0 * tog_cov / tog_total, 2)
            if tog_total else 100.0,
        },
        "fsm": {"states_covered": fsm_cov, "states_total": fsm_total},
    }


def minimize_corpus(
    corpus: Sequence[Stimulus], corpus_keys: Sequence[set]
) -> tuple[list[Stimulus], list[set]]:
    """Greedy set-cover reduction: drop entries adding nothing new.

    Entries are considered richest-first, ties broken by original order
    so the result is deterministic.
    """
    order = sorted(
        range(len(corpus)), key=lambda i: (-len(corpus_keys[i]), i)
    )
    target: set = set()
    for keys in corpus_keys:
        target |= keys
    kept_idx: list[int] = []
    covered: set = set()
    for i in order:
        new = corpus_keys[i] - covered
        if new:
            kept_idx.append(i)
            covered |= corpus_keys[i]
        if covered == target:
            break
    kept_idx.sort()
    return ([corpus[i] for i in kept_idx],
            [corpus_keys[i] for i in kept_idx])


def fuzz(
    make_sim: Callable[[], object],
    seed: int,
    runs: int = 32,
    cycles: int = 64,
    strategies: Iterable[str] = STRATEGIES,
    minimize: bool = True,
) -> FuzzResult:
    """Coverage-guided fuzz: keep stimuli that increase coverage.

    *make_sim* returns a **fresh** simulator per run (so per-run
    coverage is independent); determinism comes from deriving every
    stimulus seed from ``random.Random(seed)``.
    """
    strategies = list(strategies)
    if not strategies:
        raise ValueError("need at least one stimulus strategy")
    master = random.Random(seed)
    corpus: list[Stimulus] = []
    corpus_keys: list[set] = []
    total: set = set()
    module = None
    for i in range(runs):
        stim = Stimulus(
            strategies[i % len(strategies)], master.getrandbits(32), cycles
        )
        sim = make_sim()
        module = sim.module
        collector = CoverageCollector(sim)
        stim.apply(sim, collector)
        keys = collector.covered_keys()
        if keys - total:
            corpus.append(stim)
            corpus_keys.append(keys)
        total |= keys
    if minimize:
        corpus, corpus_keys = minimize_corpus(corpus, corpus_keys)
    summary = _aggregate_summary(module, total) if module is not None else {}
    return FuzzResult(corpus, corpus_keys, total, runs, summary)


# ---------------------------------------------------------------------------
# Corpus persistence
# ---------------------------------------------------------------------------


def save_corpus(path, design: str, seed: int, result: FuzzResult) -> None:
    """Write a fuzz corpus as deterministic JSON (under benchmarks/out/)."""
    doc = {
        "design": design,
        "seed": seed,
        "runs": result.runs,
        "entries": [
            {**stim.to_dict(), "new_keys": len(keys)}
            for stim, keys in zip(result.corpus, result.corpus_keys)
        ],
        "coverage": result.summary,
    }
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")


def load_corpus(path) -> list[Stimulus]:
    with open(path) as fh:
        doc = json.load(fh)
    return [Stimulus.from_dict(e) for e in doc.get("entries", [])]
