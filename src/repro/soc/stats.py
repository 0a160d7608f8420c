"""gem5-style statistics framework.

Every :class:`~repro.soc.simobject.SimObject` owns a :class:`StatGroup`;
stats register themselves with their group at construction.  The root
group can be dumped to a flat ``{dotted.name: value}`` dict or rendered as
an m5out-style ``stats.txt`` block, and supports *interval* dumps (dump and
reset) — which is exactly what the paper's Fig. 5 does every 10 k cycles to
compare PMU counters against gem5 statistics.
"""

from __future__ import annotations

import math
from typing import Callable, Iterable, Optional, Union

Number = Union[int, float]


class Stat:
    """Base class for a named statistic."""

    def __init__(self, name: str, desc: str = "") -> None:
        if not name or any(c.isspace() for c in name):
            raise ValueError(f"invalid stat name {name!r}")
        self.name = name
        self.desc = desc

    def value(self):
        raise NotImplementedError

    def reset(self) -> None:
        raise NotImplementedError

    def rows(self) -> Iterable[tuple[str, Number]]:
        """(suffix, value) pairs for flat dumping; scalar stats yield one."""
        yield "", self.value()

    # -- checkpointing ---------------------------------------------------

    def state_dict(self) -> Optional[dict]:
        """JSON-able internal state, or None for stateless stats."""
        return None

    def load_state(self, state: dict) -> None:
        raise NotImplementedError(f"{type(self).__name__} holds no state")


class Scalar(Stat):
    """A simple accumulating counter."""

    def __init__(self, name: str, desc: str = "") -> None:
        super().__init__(name, desc)
        self._value: Number = 0

    def inc(self, amount: Number = 1) -> None:
        self._value += amount

    def set(self, value: Number) -> None:
        self._value = value

    def value(self) -> Number:
        return self._value

    def reset(self) -> None:
        self._value = 0

    def __iadd__(self, amount: Number) -> "Scalar":
        self.inc(amount)
        return self

    def state_dict(self) -> dict:
        return {"value": self._value}

    def load_state(self, state: dict) -> None:
        self._value = state["value"]


class SettledScalar(Scalar):
    """A counter its owner may owe edges to.

    An object that steps over cycles or lags behind the event queue
    counts what it owes when it settles; a read, reset or checkpoint
    first calls ``owner.catch_up()``, which brings the count up to the
    event being dispatched (gem5's ``updateCycleCounters``)."""

    def __init__(self, name: str, desc: str, owner) -> None:
        super().__init__(name, desc)
        self._owner = owner

    def value(self):
        self._owner.catch_up()
        return self._value

    def reset(self) -> None:
        self._owner.catch_up()
        self._value = 0

    def state_dict(self) -> dict:
        self._owner.catch_up()
        return {"value": self._value}


class Vector(Stat):
    """A fixed-length vector of counters (e.g. per-bank, per-port)."""

    def __init__(self, name: str, size: int, desc: str = "") -> None:
        super().__init__(name, desc)
        if size <= 0:
            raise ValueError("vector size must be positive")
        self._values: list[Number] = [0] * size

    def inc(self, index: int, amount: Number = 1) -> None:
        self._values[index] += amount

    def __getitem__(self, index: int) -> Number:
        return self._values[index]

    def __len__(self) -> int:
        return len(self._values)

    def value(self) -> list[Number]:
        return list(self._values)

    def total(self) -> Number:
        return sum(self._values)

    def reset(self) -> None:
        for i in range(len(self._values)):
            self._values[i] = 0

    def rows(self) -> Iterable[tuple[str, Number]]:
        for i, v in enumerate(self._values):
            yield f"::{i}", v
        yield "::total", self.total()

    def state_dict(self) -> dict:
        return {"values": list(self._values)}

    def load_state(self, state: dict) -> None:
        if len(state["values"]) != len(self._values):
            raise ValueError(
                f"vector {self.name}: size {len(self._values)} != "
                f"checkpointed size {len(state['values'])}"
            )
        self._values = list(state["values"])


class Distribution(Stat):
    """A bucketed histogram over a closed integer range.

    Out-of-range samples accumulate in underflow/overflow buckets, like
    gem5's ``Stats::Distribution``.
    """

    def __init__(
        self, name: str, lo: int, hi: int, bucket_size: int = 1, desc: str = ""
    ) -> None:
        super().__init__(name, desc)
        if hi < lo or bucket_size <= 0:
            raise ValueError("bad distribution parameters")
        self.lo, self.hi, self.bucket_size = lo, hi, bucket_size
        nbuckets = (hi - lo) // bucket_size + 1
        self._buckets = [0] * nbuckets
        self.underflow = 0
        self.overflow = 0
        self._count = 0
        self._sum = 0.0
        self._sum_sq = 0.0
        self._min: Optional[Number] = None
        self._max: Optional[Number] = None

    def sample(self, value: Number, count: int = 1) -> None:
        self._count += count
        self._sum += value * count
        self._sum_sq += value * value * count
        self._min = value if self._min is None else min(self._min, value)
        self._max = value if self._max is None else max(self._max, value)
        if value < self.lo:
            self.underflow += count
        elif value > self.hi:
            self.overflow += count
        else:
            self._buckets[int((value - self.lo) // self.bucket_size)] += count

    @property
    def count(self) -> int:
        return self._count

    def mean(self) -> float:
        return self._sum / self._count if self._count else 0.0

    def stdev(self) -> float:
        if self._count < 2:
            return 0.0
        var = (self._sum_sq - self._sum**2 / self._count) / (self._count - 1)
        return math.sqrt(max(var, 0.0))

    def value(self) -> dict:
        return {
            "count": self._count,
            "mean": self.mean(),
            "stdev": self.stdev(),
            "min": self._min,
            "max": self._max,
            "underflow": self.underflow,
            "overflow": self.overflow,
            "buckets": list(self._buckets),
        }

    def reset(self) -> None:
        self._buckets = [0] * len(self._buckets)
        self.underflow = self.overflow = 0
        self._count = 0
        self._sum = self._sum_sq = 0.0
        self._min = self._max = None

    def rows(self) -> Iterable[tuple[str, Number]]:
        yield "::count", self._count
        yield "::mean", self.mean()
        yield "::stdev", self.stdev()

    def state_dict(self) -> dict:
        return {
            "buckets": list(self._buckets),
            "underflow": self.underflow,
            "overflow": self.overflow,
            "count": self._count,
            "sum": self._sum,
            "sum_sq": self._sum_sq,
            "min": self._min,
            "max": self._max,
        }

    def load_state(self, state: dict) -> None:
        if len(state["buckets"]) != len(self._buckets):
            raise ValueError(
                f"distribution {self.name}: bucket count mismatch"
            )
        self._buckets = list(state["buckets"])
        self.underflow = state["underflow"]
        self.overflow = state["overflow"]
        self._count = state["count"]
        self._sum = state["sum"]
        self._sum_sq = state["sum_sq"]
        self._min = state["min"]
        self._max = state["max"]


class Formula(Stat):
    """A derived statistic evaluated lazily from other stats.

    >>> ipc = Formula("ipc", lambda: committed.value() / max(cycles.value(), 1))
    """

    def __init__(self, name: str, fn: Callable[[], Number], desc: str = "") -> None:
        super().__init__(name, desc)
        self._fn = fn

    def value(self) -> Number:
        return self._fn()

    def reset(self) -> None:  # formulas have no state of their own
        pass


class StatGroup:
    """A named collection of stats, arranged in a tree mirroring SimObjects."""

    def __init__(self, name: str, parent: Optional["StatGroup"] = None) -> None:
        self.name = name
        self.parent = parent
        self.children: dict[str, StatGroup] = {}
        self.stats: dict[str, Stat] = {}
        if parent is not None:
            if name in parent.children:
                raise ValueError(f"duplicate stat group {name!r} under {parent.name!r}")
            parent.children[name] = self

    # -- registration ----------------------------------------------------

    def add(self, stat: Stat) -> Stat:
        if stat.name in self.stats:
            raise ValueError(f"duplicate stat {stat.name!r} in group {self.name!r}")
        self.stats[stat.name] = stat
        return stat

    def scalar(self, name: str, desc: str = "") -> Scalar:
        return self.add(Scalar(name, desc))  # type: ignore[return-value]

    def vector(self, name: str, size: int, desc: str = "") -> Vector:
        return self.add(Vector(name, size, desc))  # type: ignore[return-value]

    def distribution(
        self, name: str, lo: int, hi: int, bucket_size: int = 1, desc: str = ""
    ) -> Distribution:
        return self.add(Distribution(name, lo, hi, bucket_size, desc))  # type: ignore[return-value]

    def formula(self, name: str, fn: Callable[[], Number], desc: str = "") -> Formula:
        return self.add(Formula(name, fn, desc))  # type: ignore[return-value]

    # -- dumping ---------------------------------------------------------

    def path(self) -> str:
        parts = []
        node: Optional[StatGroup] = self
        while node is not None:
            parts.append(node.name)
            node = node.parent
        return ".".join(reversed(parts))

    def dump(self, prefix: str = "") -> dict[str, Number]:
        """Flatten this subtree into ``{dotted.name: value}``.

        Flat keys must stay injective: construction already rejects
        duplicate sibling names, but dotted stat/group names can still
        alias across levels (``cpu0.l1d`` the group vs a stat literally
        named ``"cpu0.l1d"``), and a silent ``dict.update`` would merge
        two caches' counters into one row.  Such collisions raise here.
        """
        base = f"{prefix}{self.name}" if self.name else prefix.rstrip(".")
        out: dict[str, Number] = {}
        for stat in self.stats.values():
            for suffix, v in stat.rows():
                key = f"{base}.{stat.name}{suffix}"
                if key in out:
                    raise ValueError(
                        f"stats dump key collision on {key!r} in group "
                        f"{self.path()!r}"
                    )
                out[key] = v
        for child in self.children.values():
            sub = child.dump(prefix=f"{base}.")
            clash = out.keys() & sub.keys()
            if clash:
                raise ValueError(
                    f"stats dump key collision between group "
                    f"{self.path()!r} and child {child.name!r}: "
                    f"{sorted(clash)[:4]}"
                )
            out.update(sub)
        return out

    def reset(self) -> None:
        for stat in self.stats.values():
            stat.reset()
        for child in self.children.values():
            child.reset()

    # -- checkpointing ---------------------------------------------------

    def state_dict(self) -> dict:
        """Recursive JSON-able snapshot of every stateful stat."""
        stats = {}
        for name, stat in self.stats.items():
            state = stat.state_dict()
            if state is not None:
                stats[name] = state
        return {
            "stats": stats,
            "children": {
                name: child.state_dict()
                for name, child in self.children.items()
            },
        }

    def load_state(self, state: dict) -> None:
        """Restore a :meth:`state_dict` snapshot onto an identically
        shaped tree (the group/stat structure must already exist)."""
        for name, stat_state in state["stats"].items():
            if name not in self.stats:
                raise KeyError(f"unknown stat {name!r} in group {self.path()}")
            self.stats[name].load_state(stat_state)
        for name, child_state in state["children"].items():
            if name not in self.children:
                raise KeyError(
                    f"unknown stat group {name!r} under {self.path()}"
                )
            self.children[name].load_state(child_state)

    def format_text(self) -> str:
        """Render an m5out-style stats.txt block."""
        lines = ["---------- Begin Simulation Statistics ----------"]
        for key, value in sorted(self.dump().items()):
            if isinstance(value, float):
                lines.append(f"{key:<60} {value:.6f}")
            else:
                lines.append(f"{key:<60} {value}")
        lines.append("---------- End Simulation Statistics   ----------")
        return "\n".join(lines)
