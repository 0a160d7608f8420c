"""Protocol-invariant verification under seeded random sharing traffic.

This is the harness behind ``repro verify coherence``: N drivers (one
per private L1, optionally one behind the RTL write-through cache) issue
a deterministic mix of shared and private accesses, and the run is
repeatedly audited against the protocol invariants:

* **single owner** — at most one cache holds a block in M/E, and the
  directory's owner field names exactly that cache;
* **no stale-S reads** — every S/E copy anywhere is byte-identical to
  memory (the directory keeps memory current at each serialization
  point, so any divergence is a protocol bug, not a timing artifact);
* **directory completeness** — the sharer sets and the caches' resident
  lines describe the same world in both directions;
* **data integrity** — the final memory image equals a *golden* replay
  of every driver's writes.  Shared-line stores are word-disjoint per
  core and private regions never overlap, so the golden image is a pure
  function of (seed, cores, ops): no simulation needed, and identical
  for every legal interleaving.

Everything is derived from ``sha256(seed, core, i)``, so a failure
replays exactly from its parameters — which is also what lets the DSE
layer cache stress points content-addressed.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Optional

from ..soc.cache.sets import BLOCK
from ..soc.event import Event
from ..soc.packet import MemCmd, Packet
from ..soc.ports import RequestPort
from ..soc.simobject import SimObject, Simulation
from .directory import DirectoryController
from .l1 import CoherentL1Cache
from .protocol import ProtocolError, State

_FNV_OFFSET = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3
_MASK64 = (1 << 64) - 1


@dataclass(frozen=True)
class SharingLayout:
    """Address map for the sharing stress: one shared window + one
    private window per driver.  Private windows never overlap and every
    shared-line store by driver *c* lands in word ``c % 8`` only, so
    the final memory image is interleaving-independent."""

    shared_base: int = 0x4_0000
    shared_lines: int = 4
    priv_base: int = 0x10_0000
    priv_stride: int = 0x1_0000
    priv_lines: int = 16

    def priv_region(self, core: int) -> int:
        return self.priv_base + core * self.priv_stride


def init_pattern(base: int, length: int) -> bytes:
    """Deterministic fill, a function of absolute address."""
    return bytes(((base + i) * 131 + 17) & 0xFF for i in range(length))


def derive_op(seed: int, core: int, i: int,
              layout: SharingLayout) -> tuple[int, Optional[bytes]]:
    """Op *i* of driver *core*: ``(addr, write_data | None)``, 8 bytes."""
    h = hashlib.sha256(f"{seed}:{core}:{i}".encode()).digest()
    write = h[1] % 5 < 2  # ~40 % stores
    if h[0] % 2 == 0:  # shared window
        line = h[2] % layout.shared_lines
        word = (core % 8) if write else h[3] % 8
        addr = layout.shared_base + line * BLOCK + word * 8
    else:  # private window
        line = h[2] % layout.priv_lines
        addr = layout.priv_region(core) + line * BLOCK + (h[3] % 8) * 8
    return addr, (h[8:16] if write else None)


def golden_regions(
    n_drivers: int, ops: int, seed: int, layout: SharingLayout
) -> tuple[bytes, list[bytes]]:
    """Expected final (shared, [private...]) images: init + all writes."""
    shared = bytearray(init_pattern(layout.shared_base,
                                    layout.shared_lines * BLOCK))
    privs = [
        bytearray(init_pattern(layout.priv_region(c),
                               layout.priv_lines * BLOCK))
        for c in range(n_drivers)
    ]
    for c in range(n_drivers):
        for i in range(ops):
            addr, data = derive_op(seed, c, i, layout)
            if data is None:
                continue
            if addr >= layout.priv_base:
                off = addr - layout.priv_region(c)
                privs[c][off:off + 8] = data
            else:
                off = addr - layout.shared_base
                shared[off:off + 8] = data
    return bytes(shared), [bytes(p) for p in privs]


class SharingDriver(SimObject):
    """One core's worth of sequential, seeded sharing traffic.

    Issues one 8-byte access at a time (wait for the response, idle for
    ``gap_cycles``, go again) and folds every read response into an
    FNV-1a checksum.  An access in flight vetoes checkpoints, so the
    serialized state is three integers.
    """

    def __init__(
        self,
        sim: Simulation,
        name: str,
        core: int,
        n_ops: int,
        seed: int = 0,
        gap_cycles: int = 20,
        layout: SharingLayout = SharingLayout(),
        parent: Optional[SimObject] = None,
    ) -> None:
        super().__init__(sim, name, parent)
        self.core = core
        self.n_ops = n_ops
        self.seed = seed
        self.gap_cycles = gap_cycles
        self.layout = layout
        self.port = RequestPort(
            f"{name}.port", recv_timing_resp=self._on_resp)
        self._event = Event(self._step, f"{name}.step")
        self._outstanding = False
        self.issued = 0
        self.responses = 0
        self.checksum = _FNV_OFFSET
        self.st_reads = self.stats.scalar("reads", "read ops completed")
        self.st_writes = self.stats.scalar("writes", "write ops completed")

    @property
    def done(self) -> bool:
        return self.responses >= self.n_ops

    def startup(self) -> None:
        if not self.done and not self._event.scheduled:
            self.schedule_cycles(self._event, self.gap_cycles)

    def _step(self) -> None:
        if self._outstanding or self.issued >= self.n_ops:
            return
        addr, data = derive_op(self.seed, self.core, self.issued, self.layout)
        if data is not None:
            pkt = Packet(MemCmd.WriteReq, addr, 8, data=data,
                         requestor=self.name)
        else:
            pkt = Packet(MemCmd.ReadReq, addr, 8, requestor=self.name)
        self.issued += 1
        self._outstanding = True
        self.port.send(pkt)  # waits in the port if the L1 is busy

    def _on_resp(self, pkt: Packet) -> bool:
        self._outstanding = False
        self.responses += 1
        if pkt.is_read:
            self.st_reads.inc()
            if pkt.data:
                c = self.checksum
                for b in pkt.data:
                    c = ((c ^ b) * _FNV_PRIME) & _MASK64
                self.checksum = c
        else:
            self.st_writes.inc()
        if self.issued < self.n_ops:
            self.schedule_cycles(self._event, self.gap_cycles)
        return True

    # -- checkpointing ----------------------------------------------------

    def ckpt_veto(self) -> Optional[str]:
        if self._outstanding:
            return f"{self.name}: access in flight"
        return None

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


@dataclass
class SharingSystem:
    """A built coherent testbench, ready to run."""

    sim: Simulation
    xbar: object
    directory: DirectoryController
    mem: object
    caches: list  # CoherentL1Cache and/or RTLCoherentCacheObject
    drivers: list
    rtl: object  # the first RTL participant, or None
    layout: SharingLayout
    ops: int
    seed: int
    rtls: list = field(default_factory=list)

    @property
    def n_drivers(self) -> int:
        return len(self.drivers)


def build_sharing_system(
    cores: int = 2,
    ops: int = 200,
    seed: int = 0,
    rtl: bool | int = False,
    paranoid: bool = True,
    gap_cycles: int = 20,
    l1_size: int = 2048,
    mshrs: int = 4,
    layout: SharingLayout = SharingLayout(),
) -> SharingSystem:
    """N private L1s (plus optional RTL write-through participants)
    behind a coherent crossbar and a snooping directory.  The L1s are
    2-way with a 2-cycle hit, the directory answers in 4 cycles and
    memory in 20.

    *rtl* is a participant count (``True`` means one); two or more
    write-through RTL caches invalidate each other through the
    directory.
    """
    from ..soc.interconnect.coherent import CoherentXbar
    from ..soc.mem.ideal import IdealMemory

    sim = Simulation()
    xbar = CoherentXbar(sim, "cohbus")
    directory = DirectoryController(sim, "l2dir", latency_cycles=4)
    mem = IdealMemory(sim, "mem", latency_cycles=20)
    xbar.new_mem_port().connect(directory.cpu_side)
    directory.mem_side.connect(mem.port)
    sim.register_extra("physmem", mem.physmem)

    n_rtl = int(rtl)
    n_drivers = cores + n_rtl
    mem.physmem.write(layout.shared_base,
                      init_pattern(layout.shared_base,
                                   layout.shared_lines * BLOCK))
    for c in range(n_drivers):
        base = layout.priv_region(c)
        mem.physmem.write(base, init_pattern(base, layout.priv_lines * BLOCK))

    caches, drivers = [], []
    for c in range(cores):
        l1 = CoherentL1Cache(sim, f"l1_{c}", size=l1_size, assoc=2,
                             latency_cycles=2, mshrs=mshrs,
                             paranoid=paranoid)
        l1.mem_side.connect(xbar.new_cpu_port())
        drv = SharingDriver(sim, f"drv{c}", core=c, n_ops=ops, seed=seed,
                            gap_cycles=gap_cycles, layout=layout)
        drv.port.connect(l1.cpu_side)
        caches.append(l1)
        drivers.append(drv)

    rtl_objs = []
    if n_rtl:
        from ..models.rtlcache.coherent import (
            RTLCacheCohSharedLibrary,
            RTLCoherentCacheObject,
        )

        for j in range(n_rtl):
            lib = RTLCacheCohSharedLibrary(idxw=4)
            name = "rtl_l1" if j == 0 else f"rtl_l1_{j}"
            rtl_obj = RTLCoherentCacheObject(sim, name, lib)
            rtl_obj.mem_side[0].connect(xbar.new_cpu_port())
            drv = SharingDriver(sim, f"drv{cores + j}", core=cores + j,
                                n_ops=ops, seed=seed, gap_cycles=gap_cycles,
                                layout=layout)
            drv.port.connect(rtl_obj.cpu_side[0])
            caches.append(rtl_obj)
            drivers.append(drv)
            rtl_objs.append(rtl_obj)

    return SharingSystem(sim=sim, xbar=xbar, directory=directory, mem=mem,
                         caches=caches, drivers=drivers,
                         rtl=rtl_objs[0] if rtl_objs else None,
                         layout=layout, ops=ops, seed=seed, rtls=rtl_objs)


def check_coherence_invariants(system: SharingSystem) -> None:
    """Audit the whole system against the MESI invariants, right now."""
    directory = system.directory
    directory.check_invariants()
    view = directory.entry_view()
    physmem = system.mem.physmem
    holders: dict[int, dict[str, State]] = {}
    for cache in system.caches:
        for block, state, data in cache.iter_lines():
            sharers, owner = view.get(block, ([], None))
            if cache.coh_id not in sharers:
                raise ProtocolError(
                    f"{cache.coh_id} holds untracked block {block:#x} "
                    f"in {state}"
                )
            if state in (State.MODIFIED, State.EXCLUSIVE):
                if owner != cache.coh_id:
                    raise ProtocolError(
                        f"{cache.coh_id} holds block {block:#x} in "
                        f"{state} but directory owner is {owner}"
                    )
            elif owner == cache.coh_id:
                raise ProtocolError(
                    f"directory owner {owner} holds block {block:#x} "
                    f"in {state}"
                )
            # data=None marks a line whose memory image is in flight
            # (a posted RTL write-through): skip the byte-compare only
            if state in (State.SHARED, State.EXCLUSIVE) and data is not None:
                mem_bytes = physmem.read(block, BLOCK)
                if data != mem_bytes:
                    raise ProtocolError(
                        f"stale {state} copy of block {block:#x} in "
                        f"{cache.coh_id}: line bytes differ from memory"
                    )
            holders.setdefault(block, {})[cache.coh_id] = state
    for block, (sharers, owner) in view.items():
        held = holders.get(block, {})
        for sharer in sharers:
            if sharer not in held:
                raise ProtocolError(
                    f"directory lists {sharer} for block {block:#x} "
                    "but it holds no copy"
                )
        exclusive = [c for c, st in held.items()
                     if st in (State.MODIFIED, State.EXCLUSIVE)]
        if len(exclusive) > 1:
            raise ProtocolError(
                f"block {block:#x} has multiple M/E holders: {exclusive}"
            )


def run_sharing_stress(
    cores: int = 2,
    ops: int = 200,
    seed: int = 0,
    rtl: bool | int = False,
    paranoid: bool = True,
    check_every: int = 2_000,
    max_cycles: int = 4_000_000,
    **build_kwargs,
) -> dict:
    """Run the sharing stress to completion with periodic invariant
    audits and a final golden-memory compare; returns a result dict
    (digests + full stats) suitable for bit-identity comparison."""
    system = build_sharing_system(cores=cores, ops=ops, seed=seed, rtl=rtl,
                                  paranoid=paranoid, **build_kwargs)
    sim = system.sim
    sim.startup()

    clock = sim.default_clock
    step = clock.cycles_to_ticks(check_every)
    end = clock.cycles_to_ticks(max_cycles)

    def quiet() -> bool:
        if not all(d.done for d in system.drivers):
            return False
        if not all(getattr(c, "quiet", True) for c in system.caches):
            return False
        if any(r.inflight for r in system.rtls):
            return False
        return system.directory.quiet

    while not quiet():
        if sim.now >= end:
            raise TimeoutError(
                f"sharing stress did not converge within {max_cycles} "
                f"cycles "
                f"({sum(d.responses for d in system.drivers)} responses)"
            )
        sim.run(until=sim.now + step)
        check_coherence_invariants(system)
    check_coherence_invariants(system)

    # golden data-integrity: sync dirty lines, then the memory image
    # must equal the replayed write sets exactly
    for cache in system.caches:
        if isinstance(cache, CoherentL1Cache):
            cache.flush_dirty()
    layout = system.layout
    shared, privs = golden_regions(system.n_drivers, ops, seed, layout)
    got_shared = system.mem.physmem.read(layout.shared_base, len(shared))
    if got_shared != shared:
        raise ProtocolError(
            "data integrity violation in the shared window: final memory "
            "does not match the golden write replay"
        )
    for c, expected in enumerate(privs):
        base = layout.priv_region(c)
        got = system.mem.physmem.read(base, len(expected))
        if got != expected:
            raise ProtocolError(
                f"data integrity violation in driver {c}'s private window"
            )

    digest = hashlib.sha256(
        got_shared + b"".join(system.mem.physmem.read(layout.priv_region(c),
                                                      len(privs[c]))
                              for c in range(system.n_drivers))
    ).hexdigest()[:16]
    return {
        "cores": cores,
        "ops": ops,
        "seed": seed,
        "rtl": rtl,
        "ticks": sim.now,
        "memory": digest,
        "checksums": [d.checksum for d in system.drivers],
        "stats": sim.stats_dump(),
    }
