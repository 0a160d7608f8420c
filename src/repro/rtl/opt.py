"""Netlist optimisation pipeline: rewrite the elaborated design in place.

Runs between :mod:`repro.hdl.elaborator` and :mod:`repro.rtl.codegen`,
on the *process body trees* (:mod:`repro.rtl.ir`) — the netlist
representation both execution backends share.  Because passes replace
bodies (and the interpreter function is recompiled from each new one),
an optimised design is
faster under **both** backends and, crucially, stays a single design:
the interpreter, the codegen fast path, the VCD writer and the coverage
collector all see the same optimised processes, so the PR 5 equivalence
and coverage-identity harnesses gate every pass.

Passes (canonical order, selected by :class:`~repro.hdl.common.ElabOptions`):

``const_fold``
    Signals with no driver at all (tied-off wires, unconnected ports)
    are constants at their initial value; their reads are replaced by
    literals.  Single-statement combinational drivers whose right-hand
    side folds to a literal become literal drivers, which can cascade
    (a tied input constant-folds the mux it feeds, and so on to a
    fixpoint).  The folded literal is exactly what the interpreter
    would have computed (:func:`repro.rtl.ir.evaluate`).

``dedup``
    Structural hashing of single-statement combinational drivers: two
    processes computing equal right-hand-side trees keep one
    evaluation; the duplicate becomes a copy (``v[b] = v[a]``).  Both
    signals remain in the design with identical values, so waveforms
    and equivalence are unaffected.

``dce``
    Dead *logic* elimination, deliberately conservative: only drivers
    proven constant (a literal right-hand side) are deleted, with the
    literal moved into the signal's initial value.  The signal itself
    — and anything observable through it (VCD, toggle coverage, the
    equivalence checker's full-state compare) — is never removed,
    which is also why logic feeding only a coverage counter survives:
    coverage counters pin their whole input cone.

``activity``
    No rewriting — attaches an :class:`~repro.rtl.activity.ActivityPlan`
    describing input cones the codegen backend may guard, and whether
    the quiescence fast path is sound for this design.

Every pass is value-preserving for *input-driven* stimulus (the
simulator API contract: drive inputs, read anything).  Poking a
non-input signal between cycles remains supported — the simulator
invalidates the activity state — but a poked value that elaborated
logic used to recompute may persist once that logic has been folded
away at ``-O1``+.
"""

from __future__ import annotations

from typing import Optional

from ..hdl.common import ElabOptions
from . import ir
from .activity import plan_activity
from .kernel import CombLoopError, CombProcess, RTLModule


def _single_assign(proc: CombProcess) -> Optional[tuple[int, ir.Expr]]:
    """``(target, rhs)`` if *proc* is one plain ``v[K] = RHS`` statement."""
    if proc.body is None or len(proc.body) != 1:
        return None
    stmt = proc.body[0]
    if type(stmt) is not ir.Store:
        return None
    return stmt.index, stmt.value


class _Netlist:
    """Shared per-run analysis over the module."""

    def __init__(self, module: RTLModule) -> None:
        self.module = module
        self.writers: dict[int, int] = {}
        for p in list(module.comb_procs) + list(module.sync_procs):
            for s in p.writes:
                self.writers[s] = self.writers.get(s, 0) + 1
        self.cov = {pt.index for pt in module.coverage_points}
        self.clocks = {p.clock for p in module.sync_procs}
        try:
            module.levelize()
            self.levelizable = True
        except CombLoopError:
            self.levelizable = False

    def foldable(self, idx: int) -> bool:
        sig = self._by_index().get(idx)
        return (
            sig is not None
            and not sig.is_input
            and idx not in self.cov
            and idx not in self.clocks
        )

    def _by_index(self):
        cached = getattr(self, "_idx_cache", None)
        if cached is None:
            cached = {s.index: s for s in self.module.signals.values()}
            self._idx_cache = cached
        return cached


# -- const_fold -----------------------------------------------------------

def _substitute(net: _Netlist, known: dict[int, int],
                pending: set[int]) -> int:
    """Replace reads of *pending* constants with literals, everywhere."""
    replaced = 0
    for proc in list(net.module.comb_procs) + list(net.module.sync_procs):
        if proc.body is None:
            continue
        # never touch a proc's own targets (left-hand sides / RMW reads)
        live = pending & proc.reads - proc.writes
        if not live:
            continue
        proc.rebuild(ir.rewrite(
            proc.body, expr=ir.folding({i: known[i] for i in live})))
        replaced += len(live)
    return replaced


def _const_fold(net: _Netlist) -> dict:
    module = net.module
    known: dict[int, int] = {}
    for sig in module.signals.values():
        if net.writers.get(sig.index, 0) == 0 and net.foldable(sig.index):
            known[sig.index] = module.initial_values.get(sig.index, 0)
    stats = {"tied": len(known), "folded_procs": 0, "substituted_reads": 0}
    pending = set(known)
    while True:
        if pending:
            stats["substituted_reads"] += _substitute(net, known, pending)
            pending = set()
        if not net.levelizable:
            break  # substitution of true constants is all that is safe
        progress = False
        for proc in module.comb_procs:
            sa = _single_assign(proc)
            if sa is None:
                continue
            target, rhs = sa
            if (
                target in known
                or net.writers.get(target) != 1
                or not net.foldable(target)
            ):
                continue
            # The value of a closed RHS is the value of its print — the
            # very text the interpreter executes — so it is exactly
            # what every settle stores.
            value = ir.evaluate(rhs)
            if value is None:
                continue
            known[target] = value
            pending.add(target)
            proc.rebuild((ir.Store(target, ir.Const(value, rhs.width)),))
            stats["folded_procs"] += 1
            progress = True
        if not pending and not progress:
            break
    stats["constants"] = len(known)
    return stats


# -- dedup ---------------------------------------------------------------

def _dedup(net: _Netlist) -> dict:
    stats = {"merged": 0}
    if not net.levelizable:
        return stats
    canonical: dict[ir.Expr, int] = {}
    for proc in net.module.comb_procs:
        sa = _single_assign(proc)
        if sa is None:
            continue
        target, rhs = sa
        if (
            net.writers.get(target) != 1
            or not net.foldable(target)
            or target in proc.reads
            or any(type(leaf) is ir.MemRead for leaf in ir.leaves(rhs))
        ):
            continue
        first = canonical.get(rhs)
        if first is None or first == target:
            canonical[rhs] = target
            continue
        # equal nodes ⇒ equal value once the canonical driver has run;
        # levelize orders the copy after it via the new read
        proc.rebuild((ir.Store(target, ir.Sig(first, rhs.width)),))
        stats["merged"] += 1
    return stats


# -- dce -----------------------------------------------------------------

def _dce(net: _Netlist) -> dict:
    stats = {"removed_procs": 0}
    module = net.module
    kept: list[CombProcess] = []
    for proc in module.comb_procs:
        target, rhs = _single_assign(proc) or (None, None)
        if (
            type(rhs) is ir.Const
            and net.writers.get(target) == 1
            and net.foldable(target)
        ):
            value = rhs.value
            if value:
                module.initial_values[target] = value
            else:
                module.initial_values.pop(target, None)
            net.writers[target] -= 1
            stats["removed_procs"] += 1
        else:
            kept.append(proc)
    module.comb_procs[:] = kept
    return stats


# -- driver --------------------------------------------------------------

_PASS_FNS = {
    "const_fold": _const_fold,
    "dedup": _dedup,
    "dce": _dce,
}


def optimize(module: RTLModule, options: ElabOptions) -> RTLModule:
    """Run the selected passes over a freshly elaborated *module*.

    Mutates and returns *module*; meant to be called exactly once, by
    the HDL frontends, before the design is published (and cached).
    """
    net = _Netlist(module)
    stats: dict = {}
    for name in options.passes():
        if name == "activity":
            plan = plan_activity(module)
            if plan is not None:
                module.activity_plan = plan
                stats["activity"] = plan.summary()
            continue
        stats[name] = _PASS_FNS[name](net)
    module.opt_stats = stats
    module.opt_options = options
    return module
