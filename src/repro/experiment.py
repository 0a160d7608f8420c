"""The paper's experiments as records, and the one function that runs them.

Each reproduced result (Fig. 5, Table 2, Figs 6-7, Table 3, the
coherence sweep, fault campaigns) is one :class:`Experiment`, declared
beside the code that simulates it.  :func:`run` runs any record; the
serve scheduler runs the same records shard by shard.  Both key a point
by the record's ``point_fields`` alone, so a point simulated by one is a
cache hit for the other.

A record declares each request key once, as a :class:`Param` row: its
default, its check and its CLI flag.  ``normalize`` and the CLI's
subcommand are both built from the rows, so the two cannot disagree.

The registry maps names to ``"module:attr"`` strings: :func:`names`
imports nothing and :func:`get` imports only the record's module.  This
module imports only the standard library.
"""

from __future__ import annotations

import functools
import importlib
from dataclasses import dataclass
from typing import Any, Callable, Optional, Union

__all__ = ["Experiment", "Param", "UnknownExperiment", "checked", "get",
           "names", "register", "run"]


class UnknownExperiment(ValueError):
    """A request named no registered experiment."""


@dataclass(frozen=True)
class Param:
    """One request key of a record.  A value must be one of ``choices``;
    without them, a number must exceed ``above`` (None: any) and a
    ``str`` or ``dict`` must be one.  ``many`` takes a non-empty list of
    values (a lone value is a list of one).  A None default lets None
    stand.  ``flags`` are the CLI's option strings, the first naming the
    argparse dest, or a positional's bare name; ``help`` (which may quote
    ``%(default)s``) and ``metavar`` are argparse's."""

    name: str
    default: Any = None
    kind: type = int
    many: bool = False
    choices: Optional[tuple] = None
    above: Optional[float] = 0
    help: Optional[str] = None
    flags: tuple[str, ...] = ()
    metavar: Optional[str] = None

    @property
    def dest(self) -> str:
        return self.flags[0].lstrip("-").replace("-", "_")

    @property
    def want(self) -> str:
        """What a value must be, as the error message says it."""
        if self.choices is not None:
            want = f"one of {sorted(self.choices)}"
        elif self.kind is dict:
            want = "an object"
        elif self.kind is str or self.above is None:
            want = self.kind.__name__
        else:
            want = f"{self.kind.__name__} > {self.above}"
        return f"a list of {want}" if self.many else want

    def _one(self, value):
        if self.choices is not None:
            if value not in self.choices:
                raise ValueError
            return self.kind(value)  # a bool choice: 1 is True
        if self.kind in (str, dict):
            if not isinstance(value, self.kind):
                raise ValueError
            return value
        out = self.kind(value)
        if self.above is not None and out <= self.above:
            raise ValueError
        return out

    def check(self, value, record: str):
        """*value* in canonical form, or a ``ValueError`` naming *record*."""
        if value is None and self.default is None:
            return None
        values = value if self.many and isinstance(value, (list, tuple)) \
            else [value]
        try:
            out = [self._one(v) for v in values]
            if not out:
                raise ValueError
        except (TypeError, ValueError):
            raise ValueError(f"{record}: {self.name} must be {self.want}, "
                             f"got {value!r}") from None
        return out if self.many else out[0]


def checked(name: str, table, request: dict) -> dict:
    """*request* over *table*'s defaults, every value checked; a key the
    table lacks raises ``ValueError``."""
    extra = sorted(set(request) - {param.name for param in table})
    if extra:
        raise ValueError(f"{name}: unknown params {extra}")
    return {param.name: param.check(request.get(param.name, param.default),
                                    name) for param in table}


@dataclass(frozen=True)
class Experiment:
    """One runnable experiment.

    ``normalize`` fills defaults and raises ``ValueError`` on an unknown
    key or an out-of-range value (serve feeds it HTTP input); the other
    callables see its canonical dict.  By default it is :func:`checked`
    over ``params``, then the ``rules`` no row can state.  ``points`` is
    a pure function of it.  ``worker`` is module-level (it pickles into
    pool workers) and returns a JSON-encodable dict.  ``point_fields`` are a point's cache
    key, with the source hash :meth:`ResultCache.key` adds.  ``assemble``
    folds the results, in point order, into the JSON-encodable payload;
    a slot that is not a dict holds a
    :class:`~repro.parallel.runner.PointFailure` (``keep_going``).
    """

    name: str
    points: Callable[[dict], list]
    worker: Callable[[Any], Any]
    point_fields: Callable[[dict, Any], dict]
    assemble: Callable[[dict, list], Any]
    params: tuple[Param, ...] = ()
    rules: Optional[Callable[[dict], dict]] = None
    normalize: Optional[Callable[[dict], dict]] = None
    #: wall-clock measurements must never be cached (see ResultCache)
    cacheable: bool = True
    #: optional ``(params, point, result) -> dict | None``; when set,
    #: the scheduler streams one ``triage`` event per resolved point
    #: (cache hits included) over the job's NDJSON event log
    point_event: Optional[Callable[[dict, Any, Any], Optional[dict]]] = None

    def __post_init__(self) -> None:
        if self.normalize is None:
            object.__setattr__(self, "normalize", self._normalize)

    def _normalize(self, request: dict) -> dict:
        params = checked(self.name, self.params, request)
        return self.rules(params) if self.rules else params


_REGISTRY: dict[str, Union[str, Experiment]] = {
    "campaign": "repro.resilience.campaign:CAMPAIGN",
    "coherence": "repro.dse.sweep:COHERENCE",
    "dse": "repro.dse.sweep:DSE",
    "pmu_fig5": "repro.dse.pmu_experiment:FIG5",
    "table2": "repro.dse.pmu_experiment:TABLE2",
    "table3": "repro.dse.sweep:TABLE3",
}


def names() -> list[str]:
    return sorted(_REGISTRY)


def get(name: str) -> Experiment:
    entry = _REGISTRY.get(name)
    if entry is None:
        raise UnknownExperiment(
            f"unknown experiment {name!r} (registered: {', '.join(names())})")
    if isinstance(entry, str):
        module, _, attr = entry.partition(":")
        entry = getattr(importlib.import_module(module), attr)
    return entry


def register(exp: Experiment) -> Experiment:
    """Add or replace *exp* under its name (tests register their own)."""
    _REGISTRY[exp.name] = exp
    return exp


def run(exp: Experiment, params: dict, *, jobs: int = 1, cache=None,
        point_timeout: Optional[float] = None, keep_going: bool = False,
        progress=None, stats=None) -> Any:
    """Normalize *params*, resolve the points through *cache* (none for
    a record that is not cacheable), simulate the misses with
    :func:`~repro.parallel.runner.run_points` and return the payload."""
    from .parallel.cache import cached_run
    from .parallel.runner import run_points

    params = exp.normalize(dict(params))
    found = cached_run(
        cache if exp.cacheable else None, exp.points(params),
        functools.partial(exp.point_fields, params),
        lambda todo: run_points(
            todo, exp.worker, jobs=jobs, point_timeout=point_timeout,
            keep_going=keep_going, progress=progress, stats=stats),
        progress=progress,
    )
    return exp.assemble(params, found.results)

