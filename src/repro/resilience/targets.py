"""Campaign targets: self-contained systems a fault campaign can build,
golden-run, checkpoint, and triage.

A target bundles everything :mod:`repro.resilience.campaign` needs to
treat a design uniformly: a builder for the full rig (system + traffic +
observables), an elaborated-module accessor for fault-space enumeration,
and per-target run budgets.  Rigs are deliberately closed systems — all
stimulus is generated internally from the target parameters, so the same
``(target, params)`` pair replays bit-identically in any worker process.

The golden-digest contract: ``observables()`` returns the architectural
end-state a fault must not change (committed instructions, data
checksums, memory digests).  Micro-architectural counters that a
*detected-and-corrected* fault may legitimately move (cache hit/miss
counts under an ECC refetch) are excluded; detection counters are
reported separately via ``detection()``.
"""

from __future__ import annotations

import hashlib
import time
from dataclasses import dataclass, field
from typing import Callable, Optional

from ..soc.event import Event
from ..soc.simobject import SimObject, Simulation
from .watchdog import Watchdog


class CycleBudgetExceeded(TimeoutError):
    """The experiment's simulated-cycle budget ran out (livelock)."""


class WallClockExceeded(TimeoutError):
    """The experiment's host wall-clock backstop ran out."""


#: cycles between the polls of :func:`run_on_grid`, and after completion
GRID_STEP_CYCLES = 2_000
GRID_DRAIN_CYCLES = 500


def run_on_grid(
    sim: Simulation,
    done: Callable[[], bool],
    max_cycles: int,
    wall_deadline: Optional[float] = None,
    step_cycles: int = GRID_STEP_CYCLES,
    drain_cycles: int = GRID_DRAIN_CYCLES,
    progress: Optional[list] = None,
) -> int:
    """Run *sim* until ``done()``, then a fixed drain; returns the end tick.

    Step boundaries sit on absolute multiples of *step_cycles* so a run
    restored from a checkpoint observes the same boundaries (and hence
    the same event interleavings) as an uninterrupted one.  The cycle
    budget is likewise absolute — counted from reset, not from restore.

    Deliberately a polling grid and not ``Simulation.request_exit``: a
    campaign classifies an experiment by state read after the run (the
    PMU's cycle counter among it), so the cycles between completion and
    the next boundary are part of every pinned report.

    *progress*, if given, receives ``[tick, Watchdog.progress_vector]``
    at the start and at every boundary up to completion.
    """
    sim.startup()
    clock = sim.default_clock
    step = clock.cycles_to_ticks(step_cycles)
    end = clock.cycles_to_ticks(max_cycles)
    while True:
        if progress is not None:
            progress.append([sim.now, Watchdog.progress_vector(sim)])
        if done():
            break
        if sim.now >= end:
            raise CycleBudgetExceeded(
                f"no completion within {max_cycles} cycles"
            )
        if wall_deadline is not None and time.monotonic() >= wall_deadline:
            raise WallClockExceeded("experiment wall-clock budget exhausted")
        boundary = (sim.now // step + 1) * step
        sim.run(until=min(boundary, end))
    if drain_cycles:
        sim.run(until=sim.now + clock.cycles_to_ticks(drain_cycles))
    return sim.now


# ---------------------------------------------------------------------------
# Deterministic MMIO traffic for the cache targets
# ---------------------------------------------------------------------------

_FNV_OFFSET = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3
_MASK64 = (1 << 64) - 1


class CacheTrafficDriver(SimObject):
    """Issues a deterministic read/write stream through an IOMaster.

    Request *i* is derived from ``sha256(seed, i)``: the address lands in
    a small working set (so lines are revisited and fault-corrupted data
    is actually consumed), roughly one in four requests is a write, and
    every read response is folded into an FNV-1a checksum — the
    architectural observable an SDC must disturb to be counted.
    """

    def __init__(
        self,
        sim: Simulation,
        name: str,
        io,
        n_requests: int = 48,
        seed: int = 0,
        gap_cycles: int = 60,
        base_addr: int = 0x1_0000,
        span_lines: int = 8,
        parent: Optional[SimObject] = None,
    ) -> None:
        super().__init__(sim, name, parent)
        self.io = io
        self.n_requests = n_requests
        self.seed = seed
        self.gap_cycles = gap_cycles
        self.base_addr = base_addr
        self.span_lines = span_lines
        self._event = Event(self._step, f"{name}.step")
        self.issued = 0
        self.responses = 0
        self.checksum = _FNV_OFFSET
        self.st_issued = self.stats.formula("issued", lambda: self.issued)

    def startup(self) -> None:
        if self.issued < self.n_requests and not self._event.scheduled:
            self.schedule_cycles(self._event, self.gap_cycles)

    @property
    def done(self) -> bool:
        return (self.issued >= self.n_requests
                and self.responses >= self.n_requests)

    def _request(self, i: int) -> tuple[int, Optional[bytes]]:
        h = hashlib.sha256(f"{self.seed}:{i}".encode()).digest()
        word = int.from_bytes(h[:4], "little") % (self.span_lines * 8)
        addr = self.base_addr + 8 * word
        data = h[8:16] if h[4] % 4 == 0 else None   # ~25 % writes
        return addr, data

    def _step(self) -> None:
        if self.issued >= self.n_requests:
            return
        addr, data = self._request(self.issued)
        self.issued += 1
        if data is not None:
            self.io.write(addr, data, callback=self._on_resp)
        else:
            self.io.read(addr, size=8, callback=self._on_resp)
        if self.issued < self.n_requests:
            self.schedule_cycles(self._event, self.gap_cycles)

    def _on_resp(self, pkt) -> None:
        self.responses += 1
        if pkt.is_read and pkt.data:
            c = self.checksum
            for b in pkt.data:
                c = ((c ^ b) * _FNV_PRIME) & _MASK64
            self.checksum = c

    # -- checkpointing ----------------------------------------------------
    # The IOMaster vetoes saves while a callback-carrying request is in
    # flight, so at every committed checkpoint issued == responses and
    # no host callback needs serializing.

    def ckpt_named_events(self):
        return {"step": self._event}

    def serialize(self, ctx) -> dict:
        return {
            "issued": self.issued,
            "responses": self.responses,
            "checksum": self.checksum,
        }

    def unserialize(self, state: dict, ctx) -> None:
        self.issued = state["issued"]
        self.responses = state["responses"]
        self.checksum = state["checksum"]


# ---------------------------------------------------------------------------
# Rigs
# ---------------------------------------------------------------------------


class _GridRig:
    """A rig's run: its ``sim`` on the grid until its ``done()``."""

    def run(self, max_cycles: int, wall_deadline: Optional[float] = None,
            progress: Optional[list] = None) -> int:
        return run_on_grid(self.sim, self.done, max_cycles, wall_deadline,
                           progress=progress)


class PMURig(_GridRig):
    """PMU counting a sort workload's commits, misses, and cycles.

    The PMU is programmed over callback-free MMIO and left passive (no
    interrupt handlers), so the core's timing is independent of PMU
    state and every PMU-internal upset surfaces purely through the
    counters — the cleanest possible SDC/masked split.
    """

    def __init__(self, params: dict) -> None:
        from ..dse.pmu_experiment import (
            COMMIT_LANES, CYCLE_LANE, MISS_LANE, build_pmu_system,
        )

        self.soc, self.pmu, self.drv = build_pmu_system(
            n_sort=params["n_sort"],
            memory=params["memory"],
            sleep_cycles=params["sleep_cycles"],
        )
        assert self.pmu is not None and self.drv is not None
        self.sim = self.soc.sim
        self.core = self.soc.cores[0]
        self._lanes = tuple(COMMIT_LANES) + (MISS_LANE, CYCLE_LANE)
        self.drv.enable(sum(1 << lane for lane in self._lanes))

    def done(self) -> bool:
        return self.core.done and not self.soc.iomaster.busy

    def observables(self) -> dict:
        rtl = self.pmu.library.sim
        obs = {
            "committed": int(self.core.st_committed.value()),
            "interrupts": int(self.pmu.st_interrupts.value()),
            "irq": int(rtl.peek("irq")),
            "end_tick": int(self.sim.now),
        }
        for lane in self._lanes:
            obs[f"counter[{lane}]"] = int(rtl.peek_mem("counters", lane))
        return obs

    def detection(self) -> dict:
        return {}

    def finish(self) -> None:
        self.pmu.stop()


class CacheRig(_GridRig):
    """RTL cache (plain or parity-protected) under deterministic traffic.

    Observables are the traffic checksum and a digest of backing memory
    — NOT the hit/miss counters, which an ECC refetch legitimately
    moves.  The ECC variant reports its correction counter through
    ``detection()``, turning would-be SDCs into detected-and-corrected
    outcomes.
    """

    BASE_ADDR = 0x1_0000

    def __init__(self, params: dict) -> None:
        from ..models.rtlcache import (
            RTLCacheECCSharedLibrary, RTLCacheObject, RTLCacheSharedLibrary,
        )
        from ..soc.iomaster import IOMaster
        from ..soc.mem import IdealMemory

        sim = Simulation()
        idxw = params["idxw"]
        lib = (RTLCacheECCSharedLibrary(idxw=idxw) if params["ecc"]
               else RTLCacheSharedLibrary(idxw=idxw))
        self.rtlc = RTLCacheObject(sim, "rtlc", lib)
        self.mem = IdealMemory(sim, "mem", latency_cycles=4)
        self.io = IOMaster(sim, "io")
        self.io.port.connect(self.rtlc.cpu_side[0])
        self.rtlc.mem_side[0].connect(self.mem.port)
        # backing-store contents must survive checkpoint/restore (the
        # SoC registers its physmem the same way)
        sim.register_extra("physmem", self.mem.physmem)

        self._span = params["span_lines"] * 64
        pattern = bytes((i * 37 + 11) & 0xFF for i in range(self._span))
        self.mem.physmem.write(self.BASE_ADDR, pattern)
        self.drv = CacheTrafficDriver(
            sim, "traffic", self.io,
            n_requests=params["requests"], seed=params["seed"],
            gap_cycles=params["gap_cycles"], base_addr=self.BASE_ADDR,
            span_lines=params["span_lines"],
        )
        self.sim = sim

    def done(self) -> bool:
        return self.drv.done and not self.io.busy and not self.rtlc.inflight

    def observables(self) -> dict:
        memory = hashlib.sha256(
            self.mem.physmem.read(self.BASE_ADDR, self._span)
        ).hexdigest()[:16]
        return {
            "checksum": int(self.drv.checksum),
            "responses": int(self.drv.responses),
            "memory": memory,
        }

    def detection(self) -> dict:
        library = self.rtlc.library
        if library.params["ECC"]:
            return {"corrections": int(library.sim.peek("corrections"))}
        return {}

    def finish(self) -> None:
        self.rtlc.stop()


class CoherenceRig(_GridRig):
    """Sharing drivers over MESI L1s, a snooping directory, and the RTL
    write-through cache as a coherence participant.

    Observables are the per-driver read checksums and a digest of the
    shared + private memory windows — the architectural state a lost or
    phantom invalidation must disturb to count as an SDC.  Protocol
    upsets that trip the MESI engine's own audits raise
    :class:`~repro.coherence.protocol.ProtocolError` and triage as
    crashes (detected); ``detection()`` additionally runs a final
    invariant sweep so silent metadata corruption that survives the run
    is reported as a detected violation rather than blamed on memory.
    """

    def __init__(self, params: dict) -> None:
        from ..coherence.check import build_sharing_system

        self.system = build_sharing_system(
            cores=params["cores"],
            ops=params["ops"],
            seed=params["seed"],
            rtl=True,
            paranoid=bool(params["paranoid"]),
            gap_cycles=params["gap_cycles"],
            l1_size=params["l1_size"],
            mshrs=params["mshrs"],
        )
        self.sim = self.system.sim

    def done(self) -> bool:
        system = self.system
        if not all(d.done for d in system.drivers):
            return False
        if not all(getattr(c, "quiet", True) for c in system.caches):
            return False
        if system.rtl is not None and system.rtl.inflight:
            return False
        return system.directory.quiet

    def observables(self) -> dict:
        system = self.system
        layout = system.layout
        digest = hashlib.sha256()
        digest.update(system.mem.physmem.read(
            layout.shared_base, layout.shared_lines * 64))
        for c in range(system.n_drivers):
            digest.update(system.mem.physmem.read(
                layout.priv_region(c), layout.priv_lines * 64))
        obs = {"memory": digest.hexdigest()[:16]}
        for i, drv in enumerate(system.drivers):
            obs[f"checksum[{i}]"] = int(drv.checksum)
            obs[f"responses[{i}]"] = int(drv.responses)
        return obs

    def detection(self) -> dict:
        from ..coherence.check import check_coherence_invariants
        from ..coherence.protocol import ProtocolError

        try:
            check_coherence_invariants(self.system)
        except ProtocolError:
            return {"invariant_violations": 1}
        return {"invariant_violations": 0}

    def finish(self) -> None:
        if self.system.rtl is not None:
            self.system.rtl.stop()


# ---------------------------------------------------------------------------
# Registry
# ---------------------------------------------------------------------------


@dataclass
class CampaignTarget:
    """Everything the campaign engine needs to know about one design."""

    name: str
    description: str
    defaults: dict = field(default_factory=dict)
    build: Callable[[dict], object] = None  # type: ignore[assignment]
    module: Callable[[dict], object] = None  # type: ignore[assignment]
    checkpoint_every: int = 10_000     # cycles between golden checkpoints
    max_cycles: int = 1_000_000        # per-experiment cycle budget


def _pmu_build(params: dict) -> PMURig:
    return PMURig(params)


def _pmu_module(params: dict):
    from ..models.pmu import PMUSharedLibrary

    return PMUSharedLibrary.design()


def _cache_build(params: dict) -> CacheRig:
    return CacheRig(params)


def _cache_module(params: dict):
    from ..models.rtlcache import (
        RTLCacheECCSharedLibrary, RTLCacheSharedLibrary,
    )

    cls = RTLCacheECCSharedLibrary if params["ecc"] else RTLCacheSharedLibrary
    return cls.design(idxw=params["idxw"])


class _DirStatePseudoMem:
    """Shape-only stand-in so flip_targets enumerates directory words."""

    def __init__(self, depth: int, width: int) -> None:
        self.depth = depth
        self.width = width


class _CoherenceFaultSpace:
    """A :func:`~repro.resilience.faults.flip_targets`-compatible view
    of the coherence target: the RTL participant's flops and memories
    plus a ``dir_state`` pseudo-memory covering the directory's
    (behavioural) sharer/owner metadata.  ``dir_state[k]`` faults are
    routed to :meth:`DirectoryController.flip_state_bit` by the
    injector's duck-typed hook; real RTL modules have no such memory,
    so the same named fault is a no-op on them (and vice versa).
    """

    def __init__(self, module) -> None:
        from ..coherence.directory import DIR_STATE_DEPTH, DIR_STATE_WIDTH

        self._module = module
        self.sync_procs = module.sync_procs
        self.memories = dict(module.memories)
        self.memories["dir_state"] = _DirStatePseudoMem(
            DIR_STATE_DEPTH, DIR_STATE_WIDTH)

    def visible_signals(self):
        return self._module.visible_signals()


def _coherence_build(params: dict) -> CoherenceRig:
    return CoherenceRig(params)


def _coherence_module(params: dict):
    from ..models.rtlcache import RTLCacheCohSharedLibrary

    # idxw is pinned to the testbench's participant geometry (see
    # build_sharing_system), not a campaign parameter
    return _CoherenceFaultSpace(RTLCacheCohSharedLibrary.design(idxw=4))


_CACHE_DEFAULTS = {
    "idxw": 4,
    "requests": 48,
    "seed": 7,
    "gap_cycles": 60,
    "span_lines": 8,
}

TARGETS: dict[str, CampaignTarget] = {}


def register_target(target: CampaignTarget) -> CampaignTarget:
    TARGETS[target.name] = target
    return target


register_target(CampaignTarget(
    name="pmu",
    description="PMU counting a sort workload (commit/miss/cycle lanes)",
    defaults={"n_sort": 48, "memory": "DDR4-1ch", "sleep_cycles": 2_000},
    build=_pmu_build,
    module=_pmu_module,
    checkpoint_every=20_000,
    max_cycles=500_000,
))

register_target(CampaignTarget(
    name="rtlcache",
    description="direct-mapped write-through RTL cache under MMIO traffic",
    defaults=dict(_CACHE_DEFAULTS, ecc=False),
    build=_cache_build,
    module=_cache_module,
    checkpoint_every=1_000,
    max_cycles=100_000,
))

register_target(CampaignTarget(
    name="rtlcache_ecc",
    description="parity-protected RTL cache (SDCs become detected+corrected)",
    defaults=dict(_CACHE_DEFAULTS, ecc=True),
    build=_cache_build,
    module=_cache_module,
    checkpoint_every=1_000,
    max_cycles=100_000,
))

register_target(CampaignTarget(
    name="coherence",
    description=("MESI sharers + RTL participant; flips cover the "
                 "directory's sharer/owner metadata (dir_state[k])"),
    defaults={
        "cores": 2,
        "ops": 96,
        "seed": 7,
        "gap_cycles": 20,
        "l1_size": 1024,
        "mshrs": 2,
        "paranoid": False,
    },
    build=_coherence_build,
    module=_coherence_module,
    checkpoint_every=5_000,
    max_cycles=400_000,
))


def get_target(name: str) -> CampaignTarget:
    try:
        return TARGETS[name]
    except KeyError:
        raise ValueError(
            f"unknown campaign target {name!r}; known: {sorted(TARGETS)}"
        ) from None


def _coerce(template, text):
    if isinstance(template, bool):
        if str(text).lower() in ("1", "true", "yes", "on"):
            return True
        if str(text).lower() in ("0", "false", "no", "off"):
            return False
        raise ValueError(f"expected a boolean, got {text!r}")
    return type(template)(text)


def normalize_params(target: CampaignTarget, overrides=None) -> dict:
    """Canonical parameter dict: defaults + validated/coerced overrides."""
    params = dict(target.defaults)
    for key, value in (overrides or {}).items():
        if key not in params:
            raise ValueError(
                f"unknown parameter {key!r} for target {target.name!r}; "
                f"known: {sorted(params)}"
            )
        params[key] = _coerce(params[key], value)
    return params
