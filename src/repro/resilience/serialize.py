"""Full-system checkpoint/restore (gem5's ``serialize()`` protocol).

Format
------
A checkpoint is one gzipped JSON document::

    {
      "version":  7,
      "meta":     {"tick", "structure", "next_pkt_id", "saved_name"},
      "eventq":   {"cur_tick", "seq", "executed", "compactions"},
      "stats":    <root StatGroup state_dict>,
      "objects":  {path: {"state", "named_events", "tagged_events"}},
                  # "state": the object's declared state (below)
      "extras":   {name: state},
      "packets":  [<encoded Packet>, ...]
    }

``version`` gates the whole layout (2: a core's stall window being
stepped over and an RTLObject's last consumed output struct joined the
object state; 3: tag arrays are sparse, below; 4: the single-stepped
RTL objects of one clock domain tick from one named event, saved under
the domain's first member; 5: RTL objects no longer save the
``batched_ticks`` stat of the run-ahead windows; 6: a core's ``skip``
is the first edge it owes, without the end its cycle event holds; 7:
response ports save no queue, and what hooks wrote is declared in the
tables; an older file is refused, not misread);
``meta.structure`` is a digest over the object tree (paths + types) so
a checkpoint can only be restored onto an identically built system.

Tag arrays
----------
Every set-associative array (``Cache`` tags, ``CoherentL1Cache`` sets,
the directory's L2 tags) is one
:class:`~repro.soc.cache.sets.SparseSets` and serialises as::

    {"num_sets", "assoc", "lines": [[set_idx, [[tag, line...], ...]], ...]}

Only occupied sets are written, in ascending set index, the ways of a
set in LRU order (victim first).  An empty set is not state: a lookup
miss allocates one, a restored run never had it, and both must write
the same bytes at the next checkpoint.  The digest above does not see
sizes, so ``load`` compares the recorded geometry with the built one
and refuses (:class:`CheckpointError` naming the object) a file whose
tags were computed for a cache of another shape, as it does a set index
or way count that does not fit.

Bit-identical continuation
--------------------------
The engine does **not** drain the system first — draining would change
timing relative to an uninterrupted run.  Instead every in-flight event
is serialized with its original ``(tick, priority, seq)`` heap key, so
the restored queue replays the exact same-tick ordering.  Components
make their transient events visible through two class declarations
(:class:`~repro.soc.simobject.Checkpointed`):

* ``ckpt_events`` — long-lived re-armable events (cycle/tick events),
  re-scheduled as the same objects on restore.  An event several
  objects declare (a clock domain's, by each member) is saved under
  the first of them in registration order;
* ``ckpt_kinds`` — the handler of each kind of tagged one-shot that
  ``sched_ckpt(kind, payload, ...)`` schedules.  Each one-shot is its
  heap entry and nothing else: the engine reads ``(owner, kind,
  payload)`` off ``eventq.live_entries()``, which it walks anyway (the
  handle's ``owner`` and ``kind``, and the payload as the last argument
  of its callback), and restore pushes the same entry back through
  ``sched_ckpt`` with its checkpointed ``seq``.

An object's ``"state"`` is what its ``ckpt_state`` table declares, an
``OWNED`` entry nested as the owned object's own state (an RTL object's
``"library"``: an RTL kernel's ``cycle``, ``values``, ``mems`` and
``ticks``, or a behavioural model's ``ticks`` and ``model``), plus what
the ``ckpt_save``/``ckpt_load`` hook of the few classes that keep one
adds for the attributes that ``ckpt_hooked`` names.

An event the engine cannot attribute to either declaration (a bare
closure), or a component veto (``ckpt_veto``), makes the current instant
non-checkpointable; :func:`save_checkpoint` then single-steps the
simulation until the blocker clears.  The uninterrupted run passes
through the same states, so stepping forward preserves bit-identity.

In-flight :class:`~repro.soc.packet.Packet` objects are shared and
mutated in place (gem5's ``make_response`` discipline), so the engine
keeps a memoized packet table: every reference to the same packet
object restores to the same object.
"""

from __future__ import annotations

import base64
import gzip
import hashlib
import json
import os
import tempfile
from typing import Any, Optional

from ..soc.packet import MemCmd, Packet, peek_packet_id, set_next_packet_id

CHECKPOINT_VERSION = 7

__all__ = [
    "CHECKPOINT_VERSION",
    "CheckpointError",
    "DeserializationContext",
    "NotCheckpointable",
    "SerializationContext",
    "canonical_digest",
    "checkpoint_document",
    "restore_checkpoint",
    "save_checkpoint",
    "structure_digest",
    "write_checkpoint",
]


class CheckpointError(RuntimeError):
    """A checkpoint could not be written or read."""


class NotCheckpointable(CheckpointError):
    """The simulation holds state the engine cannot serialize."""


# -- value encoding ----------------------------------------------------------
#
# JSON scalars pass through; containers and packets get tagged wrappers
# so tuples survive the round-trip (heap keys and sender states are
# tuples) and dict payloads cannot collide with the tags.


class SerializationContext:
    """Save-side helper: value packing + the memoized packet table."""

    def __init__(self) -> None:
        self._packets: list[Packet] = []
        self._ids: dict[int, int] = {}

    def ref(self, pkt: Packet) -> dict:
        """Memoized ``{"__pkt__": index}`` reference for *pkt*."""
        idx = self._ids.get(id(pkt))
        if idx is None:
            idx = len(self._packets)
            self._ids[id(pkt)] = idx
            self._packets.append(pkt)
        return {"__pkt__": idx}

    def pack(self, value: Any) -> Any:
        if value is None or isinstance(value, (bool, int, float, str)):
            return value
        if isinstance(value, Packet):
            return self.ref(value)
        if isinstance(value, (bytes, bytearray)):
            return {"__b__": base64.b64encode(bytes(value)).decode("ascii")}
        if isinstance(value, tuple):
            return {"__t__": [self.pack(v) for v in value]}
        if isinstance(value, list):
            return [self.pack(v) for v in value]
        if isinstance(value, dict):
            return {"__d__": {str(k): self.pack(v) for k, v in value.items()}}
        raise NotCheckpointable(f"cannot serialize {type(value).__name__}")

    def _encode_packet(self, pkt: Packet) -> dict:
        data = pkt.data
        return {
            "cmd": pkt.cmd.name,
            "addr": pkt.addr,
            "size": pkt.size,
            "data": None if data is None
            else base64.b64encode(bytes(data)).decode("ascii"),
            "pkt_id": pkt.pkt_id,
            "req_tick": pkt.req_tick,
            "resp_tick": pkt.resp_tick,
            "requestor": pkt.requestor,
            "sender_states": [self.pack(s) for s in pkt.sender_states],
            "dest_port": pkt.dest_port,
            "vaddr": pkt.vaddr,
            "meta": self.pack(pkt.meta),
            "birth_tick": pkt.birth_tick,
            "hops": None if pkt.hops is None
            else [list(h) for h in pkt.hops],
        }

    def encode_packets(self) -> list[dict]:
        """Encode the packet table (worklist: encoding a packet's meta
        or sender states may reference — and thus register — more)."""
        out: list[dict] = []
        i = 0
        while i < len(self._packets):
            out.append(self._encode_packet(self._packets[i]))
            i += 1
        return out


class DeserializationContext:
    """Load-side helper: the decoded packet table + value unpacking.

    Packets are built in two passes — allocate all shells, then fill
    fields — so references between packets (however they arise) resolve.
    """

    def __init__(self, packet_states: list[dict]) -> None:
        self._packets = [Packet.__new__(Packet) for _ in packet_states]
        for pkt, state in zip(self._packets, packet_states):
            self._fill_packet(pkt, state)

    def packet(self, index: int) -> Packet:
        return self._packets[index]

    def unpack(self, value: Any) -> Any:
        if value is None or isinstance(value, (bool, int, float, str)):
            return value
        if isinstance(value, list):
            return [self.unpack(v) for v in value]
        if isinstance(value, dict):
            if "__pkt__" in value:
                return self._packets[value["__pkt__"]]
            if "__b__" in value:
                return base64.b64decode(value["__b__"])
            if "__t__" in value:
                return tuple(self.unpack(v) for v in value["__t__"])
            if "__d__" in value:
                return {k: self.unpack(v) for k, v in value["__d__"].items()}
        raise CheckpointError(f"malformed packed value: {value!r}")

    def _fill_packet(self, pkt: Packet, state: dict) -> None:
        pkt.cmd = MemCmd[state["cmd"]]
        pkt.addr = state["addr"]
        pkt.size = state["size"]
        pkt.data = (None if state["data"] is None
                    else base64.b64decode(state["data"]))
        pkt.pkt_id = state["pkt_id"]
        pkt.req_tick = state["req_tick"]
        pkt.resp_tick = state["resp_tick"]
        pkt.requestor = state["requestor"]
        pkt.sender_states = [self.unpack(s) for s in state["sender_states"]]
        pkt.dest_port = state["dest_port"]
        pkt.vaddr = state["vaddr"]
        pkt.meta = self.unpack(state["meta"])
        pkt.birth_tick = state["birth_tick"]
        pkt.hops = (None if state["hops"] is None
                    else [tuple(h) for h in state["hops"]])


# -- structure validation ----------------------------------------------------


def structure_digest(sim) -> str:
    """Digest of the object tree: a checkpoint only restores onto a
    system built with the same objects in the same order."""
    digest = hashlib.sha256()
    for obj in sim.objects:
        digest.update(f"{obj.path()}|{type(obj).__name__}\n".encode())
    for name, extra in sim.extras.items():
        digest.update(f"extra:{name}|{type(extra).__name__}\n".encode())
    return digest.hexdigest()[:16]


# -- checkpointability -------------------------------------------------------


def declared_events(obj) -> dict:
    """The events *obj*'s class declares in ``ckpt_events``, by name."""
    return {name: get(obj) for name, get in obj._ckpt_events.items()}


def checkpoint_blockers(sim) -> list[str]:
    """Why the simulation cannot be checkpointed *right now* (empty if
    it can): component vetoes plus unclaimed in-flight events."""
    problems: list[str] = []
    for obj in sim.objects:
        veto = obj.ckpt_veto()
        if veto:
            problems.append(f"{obj.path()}: {veto}")
    named = {
        id(ev._entry)
        for obj in sim.objects
        for ev in declared_events(obj).values()
        if ev.scheduled
    }
    for tick, _pri, _seq, handle in sim.eventq.live_entries():
        if handle.owner is None and id(handle) not in named:
            problems.append(
                f"unclaimed event {handle.name!r} at tick {tick}"
            )
    return problems


# -- save --------------------------------------------------------------------


def save_checkpoint(sim, path, max_wait: int = 10**9) -> int:
    """Write a checkpoint of *sim* to *path*; returns the save tick.

    If the current instant is not checkpointable (a bare-closure event
    or a component veto), the engine single-steps the event queue until
    it is — at most *max_wait* ticks past the starting point.  Stepping
    forward is safe for bit-identity: the uninterrupted run executes
    the very same events.
    """
    doc = checkpoint_document(sim, max_wait)
    write_checkpoint(doc, path)
    return doc["meta"]["tick"]


def checkpoint_document(sim, max_wait: int = 10**9) -> dict:
    """The checkpoint of *sim* as a document, stepping to a
    checkpointable instant first (see :func:`save_checkpoint`)."""
    sim.startup()
    start = sim.now
    while True:
        problems = checkpoint_blockers(sim)
        if not problems:
            break
        if sim.now - start > max_wait:
            raise NotCheckpointable(
                f"no checkpointable instant within {max_wait} ticks of "
                f"{start}; blockers: " + "; ".join(problems[:5])
            )
        if not sim.eventq.service_one():
            raise NotCheckpointable(
                "event queue drained while blockers remain: "
                + "; ".join(problems[:5])
            )

    # Every object settles the edges it owes; no lag crosses a
    # checkpoint (a core's stall window does, as core state).
    for obj in sim.objects:
        obj.catch_up(end=True)

    ctx = SerializationContext()
    eventq = sim.eventq
    live = eventq.live_entries()
    entries = {id(handle): (tick, pri, seq) for tick, pri, seq, handle in live}
    # Each owner's tagged one-shots in scheduling order: packing a
    # payload numbers the packets it is first to mention, and an
    # uninterrupted run and a restored one must number them alike.
    tagged_of: dict[int, list] = {}
    for entry in sorted(live, key=lambda e: e[2]):
        owner = entry[3].owner
        if owner is not None:
            tagged_of.setdefault(id(owner), []).append(entry)

    objects: dict[str, dict] = {}
    # an event several objects declare (a clock domain's, by each
    # member) is saved once, under the first of them registered
    saved_events: set = set()
    for obj in sim.objects:
        named: dict[str, Optional[list]] = {}
        for name, ev in declared_events(obj).items():
            if id(ev) in saved_events:
                continue
            saved_events.add(id(ev))
            if ev.scheduled:
                named[name] = list(entries[id(ev._entry)])
            else:
                named[name] = None
        tagged = []
        for tick, pri, seq, handle in tagged_of.get(id(obj), ()):
            kind, payload = handle.kind, handle.callback.args[-1]
            tagged.append({
                "kind": kind,
                "payload": ctx.pack(payload),
                "tick": tick,
                "priority": pri,
                "seq": seq,
                "name": handle.name,
            })
        # Deterministic file contents: tagged order follows the heap key.
        tagged.sort(key=lambda t: (t["tick"], t["priority"], t["seq"]))
        objects[obj.path()] = {
            "state": obj.serialize(ctx),
            "named_events": named,
            "tagged_events": tagged,
        }

    extras = {
        name: extra.serialize(ctx) for name, extra in sim.extras.items()
    }

    return {
        "version": CHECKPOINT_VERSION,
        "meta": {
            "tick": sim.now,
            "structure": structure_digest(sim),
            "next_pkt_id": peek_packet_id(),
            "saved_name": sim.name,
        },
        "eventq": {
            "cur_tick": eventq.cur_tick,
            "seq": eventq._seq,
            "executed": eventq.executed,
            "compactions": eventq.compactions,
        },
        "stats": sim.root_stats.state_dict(),
        "objects": objects,
        "extras": extras,
        "packets": ctx.encode_packets(),
    }


def write_checkpoint(doc: dict, path) -> None:
    """Write a :func:`checkpoint_document` to *path* (atomically)."""
    path = os.fspath(path)
    parent = os.path.dirname(path) or "."
    os.makedirs(parent, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=parent, suffix=".ckpt.tmp")
    try:
        with os.fdopen(fd, "wb") as raw:
            # mtime=0 keeps identical state byte-identical on disk
            with gzip.GzipFile(fileobj=raw, mode="wb", mtime=0) as gz:
                gz.write(json.dumps(doc, sort_keys=True).encode("utf-8"))
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


# -- canonical state ---------------------------------------------------------


#: path of the ``PeriodicCheckpointer`` whose file names a digest drops
_CHECKPOINTER = "checkpointer"


def canonical_digest(doc: dict, observers=()) -> str:
    """sha256 of the simulated state a checkpoint document holds.

    Two runs whose digests are equal at one tick produce the same
    observables from there on.  What a document holds beyond that state
    is removed or renumbered (DESIGN.md "A masked flip ends where it
    rejoins golden" says why none of it is observable):

    * the objects named in *observers* (attached after a restore, so
      absent from the run compared against) and their stats;
    * the periodic checkpointer's file paths and manifest;
    * ``meta`` and the event queue's counters (``cur_tick`` stays);
    * every event ``seq``, replaced by its rank among the kept events;
    * every packet id — the packet table's ``pkt_id`` and the keys of
      an ``inflight`` map (``OoOCore``'s) — replaced by its rank.
    """
    dropped = set(observers)
    kept = {p: s for p, s in doc["objects"].items() if p not in dropped}
    seqs = []
    pkt_ids = {pkt["pkt_id"] for pkt in doc["packets"]}
    for section in kept.values():
        seqs += [e[2] for e in section["named_events"].values() if e]
        seqs += [t["seq"] for t in section["tagged_events"]]
        inflight = section["state"].get("inflight")
        if isinstance(inflight, dict):
            pkt_ids.update(int(k) for k in inflight)
    seq_rank = {seq: i for i, seq in enumerate(sorted(seqs))}
    pkt_rank = {pkt: i for i, pkt in enumerate(sorted(pkt_ids))}

    objects = {}
    for obj_path, section in kept.items():
        state = section["state"]
        if obj_path == _CHECKPOINTER:
            state = {k: v for k, v in state.items()
                     if k not in ("last_path", "manifest")}
        elif isinstance(state.get("inflight"), dict):
            state = dict(state, inflight={
                str(pkt_rank[int(k)]): v for k, v in state["inflight"].items()
            })
        objects[obj_path] = {
            "state": state,
            "named_events": {
                name: None if e is None else [e[0], e[1], seq_rank[e[2]]]
                for name, e in section["named_events"].items()
            },
            "tagged_events": [dict(t, seq=seq_rank[t["seq"]])
                              for t in section["tagged_events"]],
        }

    def stats(group: dict, prefix: str) -> dict:
        return {
            "stats": group["stats"],
            "children": {
                name: stats(child, prefix + name + ".")
                for name, child in group["children"].items()
                if prefix + name not in dropped
            },
        }

    canon = {
        "version": doc["version"],
        "eventq": {"cur_tick": doc["eventq"]["cur_tick"]},
        "stats": stats(doc["stats"], ""),
        "objects": objects,
        "extras": doc["extras"],
        "packets": [dict(pkt, pkt_id=pkt_rank[pkt["pkt_id"]])
                    for pkt in doc["packets"]],
    }
    text = json.dumps(canon, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


# -- restore -----------------------------------------------------------------


def load_checkpoint_doc(path) -> dict:
    """Read and structurally validate a checkpoint file."""
    try:
        with gzip.open(path, "rb") as fh:
            doc = json.loads(fh.read().decode("utf-8"))
    except (OSError, ValueError, EOFError) as exc:
        # EOFError: gzip stream truncated (a killed writer's torn file)
        raise CheckpointError(f"cannot read checkpoint {path}: {exc}") from exc
    if not isinstance(doc, dict) or "version" not in doc:
        raise CheckpointError(f"{path} is not a checkpoint file")
    if doc["version"] != CHECKPOINT_VERSION:
        raise CheckpointError(
            f"{path}: checkpoint version {doc['version']} != "
            f"supported version {CHECKPOINT_VERSION}"
        )
    for section in ("meta", "eventq", "stats", "objects", "extras",
                    "packets"):
        if section not in doc:
            raise CheckpointError(f"{path}: missing section {section!r}")
    return doc


def restore_checkpoint(sim, path) -> None:
    """Overwrite *sim*'s dynamic state from the checkpoint at *path*.

    The caller must have built *sim* identically to the saving process
    (same config, same workloads attached); this is validated with the
    structure digest.  Safe to call before or after ``startup()`` —
    whatever initial events startup scheduled are discarded.
    """
    doc = load_checkpoint_doc(path)
    sim.startup()

    expect = structure_digest(sim)
    if doc["meta"]["structure"] != expect:
        raise CheckpointError(
            f"checkpoint was taken on a differently built system "
            f"(structure {doc['meta']['structure']} != {expect}); "
            "rebuild with the same configuration to restore"
        )

    by_path = {obj.path(): obj for obj in sim.objects}
    missing = [p for p in doc["objects"] if p not in by_path]
    if missing:
        raise CheckpointError(f"objects missing from system: {missing[:5]}")

    ctx = DeserializationContext(doc["packets"])
    eventq = sim.eventq

    # Drop everything startup scheduled; the checkpoint replaces it all.
    eventq.clear()

    eq = doc["eventq"]
    eventq.cur_tick = eq["cur_tick"]
    eventq._seq = eq["seq"]
    eventq.executed = eq["executed"]
    eventq.compactions = eq["compactions"]

    sim.root_stats.load_state(doc["stats"])

    for obj_path, section in doc["objects"].items():
        obj = by_path[obj_path]
        obj.unserialize(section["state"], ctx)
        named = declared_events(obj)
        for name, entry in section["named_events"].items():
            if name not in named:
                raise CheckpointError(
                    f"{obj_path}: unknown named event {name!r}"
                )
            if entry is not None:
                tick, pri, seq = entry
                eventq.restore_entry(named[name], tick, pri, seq)
        for tev in section["tagged_events"]:
            obj.sched_ckpt(
                tev["kind"], ctx.unpack(tev["payload"]),
                tev["tick"], tev["priority"], tev["name"], tev["seq"],
            )

    for name, state in doc["extras"].items():
        if name not in sim.extras:
            raise CheckpointError(f"extra {name!r} missing from system")
        sim.extras[name].unserialize(state, ctx)

    set_next_packet_id(doc["meta"]["next_pkt_id"])
