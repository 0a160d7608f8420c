"""Activity analysis: partition the comb netlist into input cones.

GSIM and Manticore both observe that most of a design is *inactive* on
most cycles; the win is not evaluating it.  This module computes the
static structure that lets the codegen backend act on that observation:

* the combinational processes are grouped into **cones** — weakly
  connected components of the writes→reads dependency graph (two procs
  share a cone iff a value can flow between them without crossing a
  register);
* each cone's **external inputs** are the signals it reads but does not
  produce: module inputs, registers written by sync processes, and
  constants.  A cone is a pure function of its external inputs, so the
  generated settle code may skip it whenever those inputs hold the same
  values as the previous evaluation — its outputs are provably already
  correct (the *activity-cone invariant*);
* a cone is only **guarded** when skipping is provably safe *and*
  profitable: every process must carry a body tree, none may touch
  a memory (memory state is not captured by the input key), none may
  read cone-internal state before it is written in levelized order
  (the cone would not be a pure function of its inputs), none may
  contain a statement-coverage counter (counters must increment on
  every settle in every backend, bit-identically), and the key must be
  small relative to the body.

The plan also decides whether the design is eligible for the
**quiescence fast path**: inside a ``run_cycles`` batch the inputs are
frozen, so if one full clock cycle leaves every non-counter signal and
every memory word unchanged, all remaining cycles are provably
identical — the generated batch loop exits early and extrapolates the
coverage counters exactly (``counter += per_cycle_delta * remaining``).
This is the RTL analogue of the event queue's idle fast path.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import ir
from .kernel import CombLoopError, RTLModule

#: a cone whose key would exceed this many signals is not worth
#: guarding — comparing the key costs as much as the body
MAX_CONE_INPUTS = 8

#: minimum total body lines before a guard pays for itself
MIN_CONE_LINES = 2

#: required body-lines-per-key-input ratio.  A guard that always misses
#: still pays its compare chain every settle, so ``-O2`` stays no slower
#: than ``-O0`` on an always-busy design (``coherence_stress`` phase
#: ``rtl`` in ``bench/``) only if a guarded body dwarfs its key; thin
#: cones (e.g. sorting-network compare-exchange stages) run unguarded
#: and rely on batch quiescence for their idle-time win.
GUARD_BODY_FACTOR = 8


@dataclass(frozen=True)
class Cone:
    """One comb component: process indices into ``module.comb_procs``."""

    procs: tuple[int, ...]      # in levelized evaluation order
    inputs: tuple[int, ...]     # external signal indices, sorted
    guarded: bool
    reason: str = ""            # why an unguarded cone was rejected


@dataclass(frozen=True)
class ActivityPlan:
    """The codegen backend's contract with the optimiser."""

    cones: tuple[Cone, ...]
    quiescence: bool

    @property
    def guarded_cones(self) -> int:
        return sum(1 for c in self.cones if c.guarded)

    def summary(self) -> dict:
        return {
            "cones": len(self.cones),
            "guarded_cones": self.guarded_cones,
            "guarded_procs": sum(
                len(c.procs) for c in self.cones if c.guarded
            ),
            "quiescence": self.quiescence,
        }


def _cone_eligibility(
    module: RTLModule, order: list[int], sync_writes: set[int],
) -> tuple[bool, str]:
    """Is the cone (procs *order*, levelized) safe + worth guarding?"""
    procs = [module.comb_procs[i] for i in order]
    if any(p.body is None for p in procs):
        return False, "handwritten process (no source)"
    kinds = {type(s) for p in procs for s in ir.walk(p.body)}
    if ir.MemStore in kinds or any(
        type(leaf) is ir.MemRead for p in procs for leaf in ir.operands(p.body)
    ):
        return False, "touches a memory"
    if ir.Cover in kinds:
        return False, "contains coverage counters"
    internal: set[int] = set()
    for p in procs:
        internal |= p.writes
    # A skipped cone leaves its outputs untouched; if sync logic also
    # writes one of them, the interpreter's settle would overwrite that
    # write and a skipped cone would not.
    if internal & sync_writes:
        return False, "output also written by sync logic"
    # The cone must be a pure function of its external inputs: no proc
    # may read cone-internal state that has not yet been produced this
    # pass (read-modify-write part-selects, latch-like feedback).
    written: set[int] = set()
    for p in procs:
        stale = (p.reads & internal) - written
        if stale:
            return False, "reads internal state before it is written"
        written |= p.writes
    ext = set()
    for p in procs:
        ext |= p.reads
    ext -= internal
    if len(ext) > MAX_CONE_INPUTS:
        return False, f"key too wide ({len(ext)} inputs)"
    lines = sum(len(ir.render(p.body)) for p in procs)
    # A guard that always misses still pays one compare per input;
    # demand the body outweigh the key by a wide margin, not just exist.
    if lines < max(MIN_CONE_LINES, GUARD_BODY_FACTOR * len(ext)):
        return False, "body smaller than the guard"
    return True, ""


def plan_activity(
    module: RTLModule, quiescence: bool = True
) -> ActivityPlan | None:
    """Partition *module*'s comb graph into cones; None if not levelizable.

    Designs that need iterative fixpoint settling never reach the
    codegen backend, so there is nothing to plan for them.
    """
    try:
        levelized = module.levelize()
    except CombLoopError:
        return None
    procs = module.comb_procs
    index_of = {id(p): i for i, p in enumerate(procs)}
    level_order = [index_of[id(p)] for p in levelized]

    # Union-find over processes: all writers of a signal share a cone,
    # and every reader of a comb-produced signal joins its writer.
    parent = list(range(len(procs)))

    def find(i: int) -> int:
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    def union(a: int, b: int) -> None:
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[rb] = ra

    writer_of: dict[int, int] = {}
    for i, p in enumerate(procs):
        for sig in p.writes:
            if sig in writer_of:
                union(i, writer_of[sig])
            else:
                writer_of[sig] = i
    for i, p in enumerate(procs):
        for sig in p.reads:
            if sig in writer_of:
                union(i, writer_of[sig])

    by_root: dict[int, list[int]] = {}
    for i in level_order:  # levelized order within each cone
        by_root.setdefault(find(i), []).append(i)

    sync_writes: set[int] = set()
    for sp in module.sync_procs:
        sync_writes |= sp.writes
    cones: list[Cone] = []
    for order in sorted(by_root.values(), key=lambda o: o[0]):
        internal: set[int] = set()
        reads: set[int] = set()
        for i in order:
            internal |= procs[i].writes
            reads |= procs[i].reads
        guarded, reason = _cone_eligibility(module, order, sync_writes)
        cones.append(Cone(
            procs=tuple(order),
            inputs=tuple(sorted(reads - internal)),
            guarded=guarded,
            reason=reason,
        ))

    # The quiescence fast path replays state algebraically, which is
    # only sound when every process is a pure function of the value
    # arrays — handwritten (sourceless) processes may close over host
    # state the snapshot cannot see.
    all_sourced = all(
        p.body is not None
        for p in list(module.comb_procs) + list(module.sync_procs)
    )
    return ActivityPlan(
        cones=tuple(cones),
        quiescence=bool(quiescence and all_sourced),
    )
