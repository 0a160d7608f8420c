"""Cross-backend equivalence: interp vs codegen, first divergence wins.

The codegen fast path must be a *perfect* stand-in for the interpreter.
This checker replays stimuli through both backends in lockstep and
compares every visible signal and memory word after reset and after
every clock edge, reporting the **first** divergence with the offending
signal, cycle and the stimulus that exposed it — the most actionable
possible failure for a backend bug.

Stimuli come from the fixed corner set (:func:`corner_stimuli`), any
persisted fuzz corpus, and fresh seeded randoms — so ``repro verify
equiv`` keeps paying off as corpora grow.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable, Iterable, Optional

from .stimulus import Stimulus, corner_stimuli


@dataclass(frozen=True)
class Divergence:
    """First point where the two backends disagreed."""

    stimulus: Stimulus
    cycle: int              # -1 = right after reset, n = after tick n
    signal: str             # signal name, or "mem[addr]" form
    interp_value: int
    codegen_value: int

    def format(self) -> str:
        where = "after reset" if self.cycle < 0 else f"cycle {self.cycle}"
        return (
            f"divergence at {where}, signal '{self.signal}': "
            f"interp={self.interp_value:#x} "
            f"codegen={self.codegen_value:#x} "
            f"(stimulus {self.stimulus.strategy} seed={self.stimulus.seed})"
        )


@dataclass
class EquivResult:
    design: str
    stimuli_run: int
    cycles_checked: int
    divergence: Optional[Divergence] = None
    skipped: str = ""       # non-empty = check not meaningful (why)

    @property
    def ok(self) -> bool:
        return self.divergence is None

    def format(self) -> str:
        if self.skipped:
            return f"equiv: {self.design}: SKIPPED ({self.skipped})"
        if self.ok:
            return (
                f"equiv: {self.design}: PASS "
                f"({self.stimuli_run} stimuli, "
                f"{self.cycles_checked} cycles compared)"
            )
        return f"equiv: {self.design}: FAIL — {self.divergence.format()}"


class _DivergenceFound(Exception):
    def __init__(self, cycle: int, signal: str, a: int, b: int) -> None:
        super().__init__(signal)
        self.cycle = cycle
        self.signal = signal
        self.a = a
        self.b = b


class _LockstepPair:
    """Drives two simulators identically, comparing after every edge.

    Quacks enough like an :class:`~repro.rtl.RTLSimulator` for
    :meth:`Stimulus.apply` to drive it directly.
    """

    def __init__(self, interp, codegen) -> None:
        self.a = interp
        self.b = codegen
        self.module = interp.module
        self.cycle = -1
        self.cycles_compared = 0

    def reset(self, *args, **kwargs) -> None:
        self.a.reset(*args, **kwargs)
        self.b.reset(*args, **kwargs)
        self.cycle = -1
        self._compare()

    def poke(self, name: str, value: int) -> None:
        self.a.poke(name, value)
        self.b.poke(name, value)

    def tick(self, cycles: int = 1) -> None:
        for _ in range(cycles):
            self.a.tick()
            self.b.tick()
            self.cycle += 1
            self._compare()

    def _compare(self) -> None:
        self.cycles_compared += 1
        va, vb = self.a.values, self.b.values
        for sig in self.module.visible_signals():
            x = va[sig.index] & sig.mask
            y = vb[sig.index] & sig.mask
            if x != y:
                raise _DivergenceFound(self.cycle, sig.name, x, y)
        ma, mb = self.a.mems, self.b.mems
        for mem in self.module.memories.values():
            wa, wb = ma[mem.index], mb[mem.index]
            if wa == wb:
                continue
            for addr, (x, y) in enumerate(zip(wa, wb)):
                if x != y:
                    raise _DivergenceFound(
                        self.cycle, f"{mem.name}[{addr}]",
                        x & mem.mask, y & mem.mask,
                    )


def check_equivalence(
    make_sim: Callable[[str], object],
    design: str = "<design>",
    stimuli: Iterable[Stimulus] = (),
    seed: int = 0,
    random_runs: int = 4,
    cycles: int = 64,
    make_ref: Optional[Callable[[], object]] = None,
) -> EquivResult:
    """Run corners + *stimuli* + seeded randoms through both backends.

    *make_sim* takes a backend name (``"interp"`` / ``"codegen"``) and
    returns a fresh simulator.  Fresh simulators per stimulus keep runs
    independent (and coverage counters out of the comparison baseline).

    *make_ref* optionally supplies the reference simulator instead of
    ``make_sim("interp")``.  The optimizer's differential battery uses
    this to compare, say, ``-O2`` codegen against an unoptimized
    interpreter build — any reference works as long as the two designs
    share a signal table (netlist optimisation never changes it).
    """
    if make_sim("codegen").backend != "codegen":
        return EquivResult(
            design, 0, 0,
            skipped="design needs iterative settling; codegen backend "
                    "falls back to the interpreter (nothing to compare)",
        )
    if make_ref is None:
        make_ref = lambda: make_sim("interp")  # noqa: E731
    plan = list(corner_stimuli(cycles)) + list(stimuli)
    master = random.Random(seed)
    for _ in range(random_runs):
        plan.append(Stimulus("uniform", master.getrandbits(32), cycles))
    total_cycles = 0
    for stim in plan:
        pair = _LockstepPair(make_ref(), make_sim("codegen"))
        try:
            stim.apply(pair)
        except _DivergenceFound as d:
            return EquivResult(
                design, len(plan), total_cycles + pair.cycles_compared,
                divergence=Divergence(
                    stim, d.cycle, d.signal, d.a, d.b
                ),
            )
        total_cycles += pair.cycles_compared
    return EquivResult(design, len(plan), total_cycles)
