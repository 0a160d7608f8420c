"""Deterministic fault injection (chaos harness).

A :class:`FaultPlan` is a seeded, serializable list of :class:`Fault`
records.  The same plan applied to the same system always produces the
same fault schedule — faults trigger on deterministic counters (the
N-th DRAM read completion, an absolute injector-clock cycle, a sweep
point index), never on wall-clock time — so a failure found under
injection replays exactly from the seed.

Simulation-side faults (applied by :class:`FaultInjector`, a SimObject):

* ``dram-drop@N`` — swallow the N-th DRAM read completion: the response
  never reaches the requester (a true deadlock for whoever waits on it);
* ``dram-delay@N:C`` — hold the N-th read completion for C extra
  injector-clock cycles before delivering it;
* ``retry-storm@T:D`` — from cycle T for D cycles (0 = forever), every
  crossbar rejects every request while retries are kicked each cycle: a
  genuine livelock (events fire constantly, nothing progresses);
* ``rtl-flip@T:NAME.B`` — at cycle T, flip bit B of the named flop
  signal (``busy.0``) or memory word (``counters[3].7``) in every
  RTL-backed model that has it.  Targets resolve by *name*, so the same
  spec lands on the same state bit on every backend and at every
  ``-O`` level;
* ``rtl-flip@T:B`` — legacy bare-index form: B indexes (modulo) the
  name-sorted flop-signal bit space — again backend/opt-level
  invariant, unlike the old raw-state-vector modulo.

Worker-side faults (applied by :func:`apply_worker_faults` inside a
parallel sweep worker):

* ``worker-kill@I`` — hard-kill the worker the first time it runs sweep
  point I (``os._exit``, as a segfault would);
* ``worker-hang@I:S`` — hang point I for S seconds the first time it
  runs (exercises the runner's per-point timeout).

Both are once-only across retries, coordinated through marker files so
the retried attempt succeeds — exactly the convergence the CI chaos
job asserts.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

from ..soc.event import EventPriority
from ..soc.simobject import SimObject, Simulation

SIM_FAULT_KINDS = ("dram-drop", "dram-delay", "retry-storm", "rtl-flip")
WORKER_FAULT_KINDS = ("worker-kill", "worker-hang")
FAULT_KINDS = SIM_FAULT_KINDS + WORKER_FAULT_KINDS


@dataclass(frozen=True)
class Fault:
    """One fault: *kind* fires at *trigger* with parameter *arg*.

    The trigger unit depends on the kind: a DRAM read-completion ordinal
    (``dram-*``), an injector-clock cycle (``retry-storm``,
    ``rtl-flip``), or a sweep point index (``worker-*``).

    For ``rtl-flip``, *signal* names the flop signal (``busy``) or
    memory word (``counters[3]``) whose bit *arg* is flipped; with
    ``signal=None`` *arg* is a legacy flat bit index resolved over the
    name-sorted flop space (see :func:`flip_targets`).
    """

    kind: str
    trigger: int
    arg: int = 0
    signal: Optional[str] = None

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise ValueError(f"unknown fault kind {self.kind!r}")
        if self.trigger < 0 or self.arg < 0:
            raise ValueError(f"fault parameters must be >= 0: {self}")
        if self.signal is not None and self.kind != "rtl-flip":
            raise ValueError(
                f"only rtl-flip faults take a signal target: {self}"
            )

    def spec(self) -> str:
        base = f"{self.kind}@{self.trigger}"
        if self.signal is not None:
            return f"{base}:{self.signal}.{self.arg}"
        return f"{base}:{self.arg}" if self.arg else base


def _parse_one(spec: str, design=None) -> Fault:
    """Parse a single ``kind@trigger[:arg]`` spec (ValueError on junk)."""
    kind, _, rest = spec.partition("@")
    if not rest:
        raise ValueError("want kind@trigger[:arg]")
    trigger_text, _, arg = rest.partition(":")
    try:
        trigger = int(trigger_text)
    except ValueError:
        raise ValueError(f"trigger {trigger_text!r} is not an integer") from None
    if kind == "rtl-flip" and arg and not arg.lstrip("-").isdigit():
        # named-target form: NAME.BIT, where NAME may itself contain
        # dots (flattened hierarchy) — the bit index is the last field
        signal, dot, bit_text = arg.rpartition(".")
        if not dot or not signal:
            raise ValueError(
                f"flip target {arg!r} must be SIGNAL.BIT or MEM[WORD].BIT"
            )
        try:
            bit = int(bit_text)
        except ValueError:
            raise ValueError(
                f"flip bit {bit_text!r} is not an integer"
            ) from None
        fault = Fault(kind, trigger, bit, signal=signal)
        if design is not None:
            validate_flip_target(design, signal, bit)
        return fault
    try:
        arg_value = int(arg) if arg else 0
    except ValueError:
        raise ValueError(f"argument {arg!r} is not an integer") from None
    if kind == "rtl-flip" and design is not None:
        # pin the bare index to a named target now, so the plan digest
        # (and therefore checkpoint compatibility) names the real bit
        resolved = resolve_flip_index(design, arg_value)
        if resolved is not None:
            return Fault(kind, trigger, resolved[1], signal=resolved[0])
    return Fault(kind, trigger, arg_value)


def validate_flip_target(module, signal: str, bit: int) -> None:
    """Check a named flip target against an elaborated module.

    Accepts plain signal names (``busy``) and memory-word targets
    (``counters[3]``); raises ``ValueError`` for unknown names and
    out-of-range bits/words.
    """
    if signal.endswith("]") and "[" in signal:
        mem_name, _, word_text = signal[:-1].partition("[")
        mem = module.memories.get(mem_name)
        if mem is None:
            known = ", ".join(sorted(module.memories)) or "<none>"
            raise ValueError(
                f"unknown memory {mem_name!r} in {module.name!r} "
                f"(memories: {known})"
            )
        try:
            word = int(word_text)
        except ValueError:
            raise ValueError(
                f"memory word {word_text!r} is not an integer"
            ) from None
        if not 0 <= word < mem.depth:
            raise ValueError(
                f"word {word} out of range for memory {mem_name!r} "
                f"(depth {mem.depth})"
            )
        if not 0 <= bit < mem.width:
            raise ValueError(
                f"bit {bit} out of range for memory {mem_name!r} "
                f"(width {mem.width})"
            )
        return
    sig = module.signals.get(signal)
    if sig is None or signal.startswith("__cov__"):
        raise ValueError(
            f"unknown signal {signal!r} in design {module.name!r}"
        )
    if not 0 <= bit < sig.width:
        raise ValueError(
            f"bit {bit} out of range for signal {signal!r} "
            f"(width {sig.width})"
        )


def flip_targets(module, include_memories: bool = False) -> list:
    """Flippable state targets of *module*, as ``(name, width)`` pairs.

    The list is ordered by name, independent of elaboration order,
    backend and optimisation level (the signal table is invariant
    across ``-O`` levels by the PR 6 contract) — this is the resolution
    space for bare-index ``rtl-flip`` faults and the enumeration space
    for fault-injection campaigns.

    Signals are *flops*: visible (no coverage counters), non-input
    signals written by a synchronous process.  With *include_memories*
    every memory word is appended as ``name[word]``.
    """
    flop_indices: set = set()
    for proc in module.sync_procs:
        flop_indices |= proc.writes
    targets = [
        (s.name, s.width)
        for s in module.visible_signals()
        if not s.is_input and (not flop_indices or s.index in flop_indices)
    ]
    targets.sort()
    if include_memories:
        mem_targets = []
        for name in sorted(module.memories):
            mem = module.memories[name]
            mem_targets += [
                (f"{name}[{word}]", mem.width) for word in range(mem.depth)
            ]
        targets += mem_targets
    return targets


def resolve_flip_index(module, index: int):
    """Resolve a legacy flat bit *index* to a named ``(signal, bit)``.

    The index is taken modulo the total bit count of
    :func:`flip_targets`, so any integer lands on the same named bit on
    every backend and ``-O`` level.  Returns ``None`` for a stateless
    module.
    """
    targets = flip_targets(module)
    total = sum(width for _name, width in targets)
    if not total:
        return None
    idx = index % total
    for name, width in targets:
        if idx < width:
            return name, idx
        idx -= width
    raise AssertionError("unreachable")


class FaultPlan:
    """An ordered, hashable set of faults plus the seed that made it."""

    def __init__(self, faults: list[Fault], seed: Optional[int] = None) -> None:
        self.faults = list(faults)
        self.seed = seed

    def __iter__(self):
        return iter(self.faults)

    def __len__(self) -> int:
        return len(self.faults)

    def sim_faults(self) -> list[Fault]:
        return [f for f in self.faults if f.kind in SIM_FAULT_KINDS]

    def worker_faults(self) -> list[Fault]:
        return [f for f in self.faults if f.kind in WORKER_FAULT_KINDS]

    # -- construction ------------------------------------------------------

    @classmethod
    def parse(
        cls,
        specs: list[str],
        seed: Optional[int] = None,
        design=None,
    ) -> "FaultPlan":
        """Build a plan from CLI specs like ``dram-delay@3:200``.

        With *design* (an elaborated :class:`~repro.rtl.RTLModule`),
        named ``rtl-flip`` targets are validated at parse time — an
        unknown signal or out-of-range bit raises ``ValueError`` here
        instead of mid-simulation.
        """
        faults = []
        for spec in specs:
            try:
                faults.append(_parse_one(spec, design))
            except ValueError as err:
                raise ValueError(f"bad fault spec {spec!r}: {err}") from None
        return cls(faults, seed=seed)

    @classmethod
    def generate(
        cls,
        seed: int,
        n_faults: int = 3,
        kinds: tuple = SIM_FAULT_KINDS,
        max_trigger: int = 50,
        points: int = 0,
    ) -> "FaultPlan":
        """Seeded random plan; same seed → identical plan, always."""
        rng = random.Random(seed)
        faults = []
        for _ in range(n_faults):
            kind = rng.choice(kinds)
            if kind in ("dram-drop", "dram-delay"):
                fault = Fault(kind, rng.randrange(1, max_trigger + 1),
                              rng.randrange(50, 500) if kind == "dram-delay"
                              else 0)
            elif kind == "retry-storm":
                fault = Fault(kind, rng.randrange(1, max_trigger + 1),
                              rng.randrange(100, 1000))
            elif kind == "rtl-flip":
                fault = Fault(kind, rng.randrange(1, max_trigger + 1),
                              rng.randrange(0, 4096))
            else:  # worker faults need a point universe
                if points <= 0:
                    continue
                fault = Fault(kind, rng.randrange(points),
                              2 if kind == "worker-hang" else 0)
            faults.append(fault)
        return cls(faults, seed=seed)

    # -- identity ----------------------------------------------------------

    def to_json(self) -> str:
        faults = []
        for f in self.faults:
            doc = {"kind": f.kind, "trigger": f.trigger, "arg": f.arg}
            if f.signal is not None:
                # only present for named targets, so signal-less plans
                # keep their historical schedule digests
                doc["signal"] = f.signal
            faults.append(doc)
        return json.dumps({"seed": self.seed, "faults": faults},
                          sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "FaultPlan":
        doc = json.loads(text)
        return cls(
            [
                Fault(f["kind"], f["trigger"], f["arg"],
                      signal=f.get("signal"))
                for f in doc["faults"]
            ],
            seed=doc["seed"],
        )

    def schedule_digest(self) -> str:
        """Stable hash of the fault schedule (used by determinism tests)."""
        return hashlib.sha256(self.to_json().encode()).hexdigest()[:16]

    def __repr__(self) -> str:
        specs = ",".join(f.spec() for f in self.faults)
        return f"FaultPlan([{specs}], seed={self.seed})"


class FaultInjector(SimObject):
    """Applies a plan's simulation-side faults to a running system.

    Installs itself as the ``fault_hook`` of every DRAM controller and
    schedules cycle-triggered faults as checkpoint-tagged events, so an
    injected run can itself be checkpointed and restored mid-chaos.
    """

    def __init__(
        self,
        sim: Simulation,
        plan: FaultPlan,
        name: str = "faultinjector",
        absolute_cycles: bool = False,
        parent: Optional[SimObject] = None,
    ) -> None:
        super().__init__(sim, name, parent)
        self.plan = plan
        #: campaign mode: cycle triggers are absolute clock cycles, not
        #: offsets from attach time — a flip lands on the same tick
        #: whether the run started from reset or from a checkpoint
        self.absolute_cycles = absolute_cycles
        self._read_count = 0
        self._storming = False
        self._drops = {f.trigger for f in plan if f.kind == "dram-drop"}
        self._delays = {
            f.trigger: f.arg for f in plan if f.kind == "dram-delay"
        }
        s = self.stats
        self.st_dropped = s.scalar("dropped", "DRAM responses dropped")
        self.st_delayed = s.scalar("delayed", "DRAM responses delayed")
        self.st_flips = s.scalar("flips", "RTL state bits flipped")
        self.st_storm_cycles = s.scalar("storm_cycles", "retry-storm cycles")

    # -- wiring ------------------------------------------------------------

    def startup(self) -> None:
        from ..soc.mem.dram import DRAMController

        for obj in self.sim.objects:
            if isinstance(obj, DRAMController):
                obj.fault_hook = self
        for fault in self.plan.sim_faults():
            if self.absolute_cycles:
                when = max(fault.trigger * self.clock.period, self.now)
            else:
                when = self.now + fault.trigger * self.clock.period
            if fault.kind == "retry-storm":
                self.sched_ckpt("storm_on", fault.arg, when,
                                EventPriority.CLOCK)
            elif fault.kind == "rtl-flip":
                self.sched_ckpt("flip", (fault.signal, fault.arg), when,
                                EventPriority.CLOCK)

    # -- DRAM faults (counter-triggered via the controller hook) -----------

    def on_dram_read(self, ctrl, pkt) -> bool:
        """Called by the controller before completing a read; True = eat it."""
        self._read_count += 1
        n = self._read_count
        if n in self._drops:
            self.st_dropped.inc()
            return True
        delay = self._delays.get(n)
        if delay is not None:
            self.st_delayed.inc()
            self.sched_ckpt(
                "dram_redo", (ctrl.path(), pkt),
                self.now + delay * self.clock.period,
            )
            return True
        return False

    # -- tagged-event dispatch --------------------------------------------

    def ckpt_dispatch(self, kind: str, payload) -> None:
        if kind == "dram_redo":
            ctrl_path, pkt = payload
            ctrl = self._find_object(ctrl_path)
            # re-deliver without re-counting the completion
            hook, ctrl.fault_hook = ctrl.fault_hook, None
            try:
                ctrl.complete_read(pkt)
            finally:
                ctrl.fault_hook = hook
        elif kind == "storm_on":
            self._storming = True
            for xbar in self._crossbars():
                xbar.fault_reject = True
            if payload:  # finite duration in cycles
                self.sched_ckpt(
                    "storm_off", None,
                    self.now + payload * self.clock.period,
                    EventPriority.CLOCK,
                )
            # first kick this very cycle: storm_off at T+D precedes the
            # kick at T+D (earlier seq), so a D-cycle storm kicks D times
            self.sched_ckpt("storm_kick", None, self.now,
                            EventPriority.CLOCK)
        elif kind == "storm_kick":
            if not self._storming:
                return
            self.st_storm_cycles.inc()
            for xbar in self._crossbars():
                xbar._issue_retries()
            self.sched_ckpt("storm_kick", None,
                            self.now + self.clock.period,
                            EventPriority.CLOCK)
        elif kind == "storm_off":
            self._storming = False
            for xbar in self._crossbars():
                xbar.fault_reject = False
                xbar._issue_retries()
        elif kind == "flip":
            if isinstance(payload, int):  # checkpoint from an older plan
                payload = (None, payload)
            self._flip_bit(payload[1], signal=payload[0])
        else:
            raise ValueError(f"{self.name}: unknown event kind {kind!r}")

    # -- helpers -----------------------------------------------------------

    def _crossbars(self):
        from ..soc.interconnect.xbar import Crossbar

        return [o for o in self.sim.objects if isinstance(o, Crossbar)]

    def _find_object(self, path: str):
        return self.sim.find(path)

    def _flip_bit(self, bit: int, signal: Optional[str] = None) -> None:
        """Flip one state bit of every RTL-backed model.

        Named targets (``signal``) resolve through the module's signal
        table — identical on every backend and ``-O`` level; models
        without the named signal/memory are skipped.  Bare indices
        resolve over the name-sorted flop space from
        :func:`flip_targets` (modulo its total bit count), never the
        raw state vector, for the same invariance.
        """
        from ..bridge.rtl_object import RTLObject

        for obj in self.sim.objects:
            if not isinstance(obj, RTLObject):
                # duck-typed hook: behavioural objects that carry
                # protocol metadata (e.g. the coherence directory)
                # expose flip_state_bit(signal, bit) -> bool
                flip = getattr(obj, "flip_state_bit", None)
                if flip is not None and signal is not None:
                    if flip(signal, bit):
                        self.st_flips.inc()
                continue
            rtl_sim = getattr(obj.library, "sim", None)
            if rtl_sim is None:
                continue  # behavioural model: no flop state to corrupt
            if self._flip_on(rtl_sim, signal, bit):
                self.st_flips.inc()

    @staticmethod
    def _flip_on(rtl_sim, signal: Optional[str], bit: int) -> bool:
        module = rtl_sim.module
        if signal is None:
            resolved = resolve_flip_index(module, bit)
            if resolved is None:
                return False
            signal, bit = resolved
        if signal.endswith("]") and "[" in signal:
            mem_name, _, word_text = signal[:-1].partition("[")
            mem = module.memories.get(mem_name)
            if mem is None:
                return False
            word = int(word_text)
            if not (0 <= word < mem.depth and 0 <= bit < mem.width):
                return False
            rtl_sim.poke_mem(mem_name, word,
                             rtl_sim.peek_mem(mem_name, word) ^ (1 << bit))
            # poke_mem does not invalidate cached activity-cone keys the
            # way an internal-signal poke does; a skipped cone must not
            # un-flip the corrupted word
            if getattr(rtl_sim, "_invalidates", False):
                rtl_sim._codegen.reset_state()
            return True
        sig = module.signals.get(signal)
        if sig is None or not 0 <= bit < sig.width:
            return False
        # poke() masks the value and drops cached cone keys for
        # internal signals, so the corruption survives the fast path
        rtl_sim.poke(signal, rtl_sim.peek(signal) ^ (1 << bit))
        return True

    # -- checkpointing -----------------------------------------------------

    def serialize(self, ctx) -> dict:
        return {
            "plan_digest": self.plan.schedule_digest(),
            "read_count": self._read_count,
            "storming": self._storming,
        }

    def unserialize(self, state: dict, ctx) -> None:
        if state["plan_digest"] != self.plan.schedule_digest():
            raise ValueError(
                f"{self.name}: checkpoint was taken under a different "
                "fault plan"
            )
        self._read_count = state["read_count"]
        self._storming = state["storming"]


def apply_worker_faults(
    plan: Optional[FaultPlan], point_index: int, marker_dir: str
) -> None:
    """Apply worker-side faults for *point_index* (call inside the worker).

    Each fault fires exactly once across retries: the first attempt to
    run the targeted point creates a marker file (atomically) and
    misbehaves; the retried attempt sees the marker and runs clean.
    """
    if plan is None:
        return
    for fault in plan.worker_faults():
        if fault.trigger != point_index:
            continue
        marker = Path(marker_dir) / f"{fault.kind}-{fault.trigger}"
        try:
            marker.parent.mkdir(parents=True, exist_ok=True)
            with open(marker, "x"):
                pass
        except FileExistsError:
            continue  # already fired on a previous attempt
        if fault.kind == "worker-kill":
            os._exit(13)  # simulate a segfault: no teardown, no traceback
        elif fault.kind == "worker-hang":
            time.sleep(fault.arg or 3600)
