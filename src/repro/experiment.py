"""The paper's experiments as records, and the one function that runs them.

Each reproduced result (Fig. 5, Table 2, Figs 6-7, Table 3, the
coherence sweep, fault campaigns) is one :class:`Experiment`, declared
beside the code that simulates it.  :func:`run` runs any record; the
serve scheduler runs the same records shard by shard.  Both key a point
by the record's ``point_fields`` alone, so a point simulated by one is a
cache hit for the other.

The registry maps names to ``"module:attr"`` strings: :func:`names`
imports nothing and :func:`get` imports only the record's module.  This
module imports only the standard library.
"""

from __future__ import annotations

import functools
import importlib
from collections.abc import Hashable
from dataclasses import dataclass
from typing import Any, Callable, Optional, Union

__all__ = ["Experiment", "Params", "UnknownExperiment", "get", "names",
           "register", "run"]


class UnknownExperiment(ValueError):
    """A request named no registered experiment."""


@dataclass(frozen=True)
class Experiment:
    """One runnable experiment.

    ``normalize`` fills defaults and raises ``ValueError`` on an unknown
    key or an out-of-range value (serve feeds it HTTP input); the other
    callables see its canonical dict.  ``points`` is a pure function of
    it.  ``worker`` is module-level (it pickles into pool workers) and
    returns a JSON-encodable dict.  ``point_fields`` are a point's cache
    key, with the source hash :meth:`ResultCache.key` adds.  ``assemble``
    folds the results, in point order, into the JSON-encodable payload;
    a slot that is not a dict holds a
    :class:`~repro.parallel.runner.PointFailure` (``keep_going``).
    """

    name: str
    normalize: Callable[[dict], dict]
    points: Callable[[dict], list]
    worker: Callable[[Any], Any]
    point_fields: Callable[[dict, Any], dict]
    assemble: Callable[[dict, list], Any]
    #: wall-clock measurements must never be cached (see ResultCache)
    cacheable: bool = True
    #: optional ``(params, point, result) -> dict | None``; when set,
    #: the scheduler streams one ``triage`` event per resolved point
    #: (cache hits included) over the job's NDJSON event log
    point_event: Optional[Callable[[dict, Any, Any], Optional[dict]]] = None


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


class Params:
    """A request's params over a record's defaults.  A key the defaults
    lack, or a value a check rejects, raises ``ValueError``."""

    def __init__(self, name: str, request: dict, /, **defaults: Any) -> None:
        extra = sorted(set(request) - set(defaults))
        if extra:
            raise ValueError(f"{name}: unknown params {extra}")
        self.name, self.defaults = name, defaults
        self.values = {**defaults, **request}

    def __getitem__(self, key: str) -> Any:
        return self.values[key]

    def _each(self, key: str, many: bool, check: Callable, want: str):
        """*check* over the value (with *many*: over a value or a
        non-empty list of them); a None default stays None."""
        value = self.values[key]
        if value is None and self.defaults[key] is None:
            return None
        values = value if many and isinstance(value, (list, tuple)) \
            else [value]
        try:
            out = [check(v) for v in values]
            if not out:
                raise ValueError
        except (TypeError, ValueError):
            want = f"a list of {want}" if many else want
            raise ValueError(f"{self.name}: {key} must be {want}, "
                             f"got {value!r}") from None
        return out if many else out[0]

    def number(self, key: str, kind: type = int,
               above: Optional[float] = 0, many: bool = False):
        """The value as *kind*, greater than *above* (None: any)."""
        def check(value):
            out = kind(value)
            if above is not None and out <= above:
                raise ValueError
            return out

        bound = "" if above is None else f" > {above}"
        return self._each(key, many, check, f"{kind.__name__}{bound}")

    def choice(self, key: str, options, many: bool = False):
        """The value, which must be one of *options*."""
        def check(value):
            if not isinstance(value, Hashable) or value not in options:
                raise ValueError
            return value

        return self._each(key, many, check, f"one of {sorted(options)}")
