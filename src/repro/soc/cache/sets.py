"""Sparse set store: every set-associative model's tag array and geometry.

``store[set_idx]`` is that set's ``OrderedDict(tag -> line)`` in LRU
order (insertion order, victim first), created the first time the set
is touched.  A cache therefore costs what the run touched, not what it
models: building a 16 MiB LLC allocates nothing, and a checkpoint of it
writes the occupied sets only.

Two rules keep state a function of what is resident, not of how it got
there:

* iteration (:meth:`occupied`) is in ascending set index, never in the
  order sets were first touched;
* an empty set is not state.  A lookup miss leaves one behind; it is
  skipped by :meth:`occupied` and :meth:`state`, so a run restored from
  a checkpoint (which holds only occupied sets) and the uninterrupted
  one write the same bytes at the next checkpoint.
"""

from __future__ import annotations

from collections import OrderedDict
from operator import itemgetter
from typing import Any, Callable, Iterable

#: cache line size, bytes
BLOCK = 64

_SET_INDEX = itemgetter(0)


class SparseSets(dict):
    """set index -> ``OrderedDict(tag -> line)``, allocated on first touch."""

    __slots__ = ("num_sets", "assoc")

    def __init__(self, num_sets: int, assoc: int) -> None:
        super().__init__()
        self.num_sets = num_sets
        self.assoc = assoc

    @classmethod
    def sized(cls, owner: str, size: int, assoc: int) -> "SparseSets":
        """The array of a *size*-byte, *assoc*-way cache called *owner*."""
        if size % (assoc * BLOCK) != 0:
            raise ValueError(
                f"{owner}: size {size} not divisible by assoc*block "
                f"({assoc}*{BLOCK})"
            )
        return cls(size // (assoc * BLOCK), assoc)

    def __missing__(self, set_idx: int) -> OrderedDict:
        ways = self[set_idx] = OrderedDict()
        return ways

    def split(self, addr: int) -> tuple[int, int]:
        """``(set_idx, tag)`` of the line holding *addr*."""
        block = addr // BLOCK
        return block % self.num_sets, block // self.num_sets

    def block_addr(self, set_idx: int, tag: int) -> int:
        """Inverse of :meth:`split`: the line's first byte address."""
        return (tag * self.num_sets + set_idx) * BLOCK

    def occupied(self) -> list[tuple[int, OrderedDict]]:
        """``(set_idx, ways)`` of every non-empty set, ascending."""
        return sorted(
            (item for item in self.items() if item[1]), key=_SET_INDEX
        )

    # -- checkpointing -----------------------------------------------------

    def state(self, pack_line: Callable[[Any], Iterable]) -> dict:
        """Geometry plus ``[set_idx, [[tag, *pack_line(line)], ...]]``
        per occupied set, ways in LRU order."""
        return {
            "num_sets": self.num_sets,
            "assoc": self.assoc,
            "lines": [
                [set_idx,
                 [[tag, *pack_line(line)] for tag, line in ways.items()]]
                for set_idx, ways in self.occupied()
            ],
        }

    def load(self, state: dict, unpack_line: Callable[..., Any],
             where: str) -> None:
        """Replace the contents with *state* (from :meth:`state`), lines
        rebuilt by ``unpack_line(*fields)``.  *where* names the owner in
        the error a checkpoint of another geometry is refused with: its
        tags were computed for that geometry, not this one."""
        recorded = (state["num_sets"], state["assoc"])
        if recorded != (self.num_sets, self.assoc):
            _refuse(
                f"{where}: checkpoint holds {recorded[0]} sets x "
                f"{recorded[1]} ways, the built system has "
                f"{self.num_sets} x {self.assoc}"
            )
        self.clear()
        for set_idx, ways in state["lines"]:
            if not (0 <= set_idx < self.num_sets
                    and 0 < len(ways) <= self.assoc):
                _refuse(
                    f"{where}: set {set_idx} with {len(ways)} lines does "
                    f"not fit {self.num_sets} sets x {self.assoc} ways"
                )
            self[set_idx] = OrderedDict(
                (tag, unpack_line(*fields)) for tag, *fields in ways
            )


def _refuse(message: str) -> None:
    # imported here as simobject.py imports the engine: resilience sits
    # above soc and imports it at module level
    from ...resilience.serialize import CheckpointError

    raise CheckpointError(message)
