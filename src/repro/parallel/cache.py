"""On-disk result cache for simulation points.

Each entry is one JSON file named by the SHA-256 of its key.  The key
is the canonical JSON of the point's parameters plus
:func:`code_version` — a digest over every ``repro`` source file — so

* re-running an unchanged figure is pure cache reads,
* any change to the simulator invalidates every entry at once
  (conservative, but a timing simulator has no safe finer grain), and
* entries from different code versions coexist, so bisecting between
  two trees does not thrash the cache.

Only *deterministic* measurements belong here (tick counts, event
totals).  Wall-clock timings (Table 2/3 overheads) are never cached —
they are measurements of the host, not of the simulated system.

:func:`repro.experiment.run` reaches the cache through one loop,
:func:`cached_run`.  The serve scheduler, which runs the misses on its
executor, calls its halves, :func:`look_up` and :meth:`CachedRun.record`.
"""

from __future__ import annotations

import hashlib
import json
import os
import pathlib
import tempfile
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Optional, Sequence

from .runner import PointFailure

__all__ = ["CacheStats", "CachedRun", "ResultCache", "cached_run",
           "code_version", "default_cache_dir", "look_up"]

_PACKAGE_ROOT = pathlib.Path(__file__).resolve().parents[1]   # src/repro
_CODE_VERSION: dict[str, str] = {}


def code_version() -> str:
    """Digest of every ``repro`` source file (path + contents).

    Cached per-process: the tree cannot change under a running sweep
    in any way the cache could honour.
    """
    cached = _CODE_VERSION.get("v")
    if cached is not None:
        return cached
    digest = hashlib.sha256()
    for path in sorted(_PACKAGE_ROOT.rglob("*.py")):
        if "__pycache__" in path.parts:
            continue
        digest.update(str(path.relative_to(_PACKAGE_ROOT)).encode())
        digest.update(b"\0")
        digest.update(path.read_bytes())
    version = digest.hexdigest()[:16]
    _CODE_VERSION["v"] = version
    return version


def default_cache_dir() -> pathlib.Path:
    """``$REPRO_CACHE_DIR`` if set, else ``benchmarks/out/cache`` next to
    the source tree (the repo layout), else a user cache directory."""
    env = os.environ.get("REPRO_CACHE_DIR", "")
    if env:
        return pathlib.Path(env)
    repo_root = _PACKAGE_ROOT.parents[1]
    if (repo_root / "benchmarks").is_dir():
        return repo_root / "benchmarks" / "out" / "cache"
    return pathlib.Path.home() / ".cache" / "repro"


@dataclass
class CacheStats:
    hits: int = 0
    misses: int = 0
    stores: int = 0
    errors: int = 0

    def as_dict(self) -> dict[str, int]:
        return {"hits": self.hits, "misses": self.misses,
                "stores": self.stores, "errors": self.errors}


@dataclass
class ResultCache:
    """Content-addressed JSON store; see the module docstring for keying."""

    root: Optional[pathlib.Path] = None
    stats: CacheStats = field(default_factory=CacheStats)
    #: ``*.tmp`` files older than this are orphans of a killed writer;
    #: younger ones may be another live worker's in-flight write.
    tmp_max_age_s: float = 3600.0
    #: opportunistically re-reap after this many :meth:`put` calls — a
    #: construction-time-only reap lets a long-lived process (the serve
    #: layer runs for days) accumulate orphaned ``*.tmp`` files forever.
    #: ``0`` disables the periodic re-reap (construction still reaps).
    reap_every_puts: int = 256
    _puts_since_reap: int = field(default=0, init=False, repr=False)

    def __post_init__(self) -> None:
        self.root = pathlib.Path(self.root) if self.root else default_cache_dir()
        self.reap_stale_tmp()

    def reap_stale_tmp(self) -> int:
        """Remove write-temp files older than :attr:`tmp_max_age_s`.

        A crashed or killed worker leaves its ``mkstemp`` file behind
        (the ``os.replace`` never ran); without this the cache directory
        accumulates them forever.  Returns the number removed.
        """
        assert self.root is not None
        self._puts_since_reap = 0
        if not self.root.is_dir():
            return 0
        cutoff = time.time() - self.tmp_max_age_s
        removed = 0
        for path in self.root.glob("*.tmp"):
            try:
                if path.stat().st_mtime <= cutoff:
                    path.unlink()
                    removed += 1
            except OSError:
                # raced with another reaper or a live writer: not ours
                continue
        return removed

    def key(self, **fields: Any) -> str:
        """Hash of the point parameters + the current code version."""
        payload = dict(fields)
        payload["__code__"] = code_version()
        canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canonical.encode()).hexdigest()[:32]

    def _path(self, key: str) -> pathlib.Path:
        assert self.root is not None
        return self.root / f"{key}.json"

    def get(self, key: str) -> Optional[Any]:
        """Return the cached payload, or None on miss/corruption."""
        path = self._path(key)
        try:
            entry = json.loads(path.read_text(encoding="utf-8"))
            payload = entry["payload"]
        except FileNotFoundError:
            self.stats.misses += 1
            return None
        except (OSError, ValueError, KeyError, TypeError):
            # A torn, truncated or hand-edited file is just a miss; it
            # will be overwritten by the fresh result.  TypeError covers
            # entries whose JSON parses but isn't our dict shape (e.g. a
            # bare string or list after partial write + valid-JSON
            # prefix).
            import warnings

            warnings.warn(
                f"ignoring corrupted cache entry {path.name} "
                "(treated as a miss)",
                RuntimeWarning,
                stacklevel=2,
            )
            self.stats.errors += 1
            self.stats.misses += 1
            return None
        self.stats.hits += 1
        return payload

    def put(self, key: str, payload: Any, meta: Optional[dict] = None) -> None:
        """Atomically store *payload* (write-to-temp + rename)."""
        assert self.root is not None
        self.root.mkdir(parents=True, exist_ok=True)
        entry = {"meta": meta or {}, "payload": payload}
        fd, tmp = tempfile.mkstemp(dir=self.root, suffix=".tmp")
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as fh:
                json.dump(entry, fh, sort_keys=True)
            os.replace(tmp, self._path(key))
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise
        self.stats.stores += 1
        self._puts_since_reap += 1
        if self.reap_every_puts and self._puts_since_reap >= self.reap_every_puts:
            self.reap_stale_tmp()

    def clear(self) -> int:
        """Delete every entry (and any leftover temp file); returns the
        number removed."""
        assert self.root is not None
        removed = 0
        if self.root.is_dir():
            for pattern in ("*.json", "*.tmp"):
                for path in self.root.glob(pattern):
                    path.unlink(missing_ok=True)
                    removed += 1
        return removed


@dataclass
class CachedRun:
    """A point list resolved through a (possibly absent) cache: point
    *i*'s result is ``results[i]``, and ``hits``/``executed`` say where
    each came from.  An executed failure is returned, never stored."""

    cache: Optional[ResultCache]
    results: list
    fields: list            # per point: its key fields (None: no cache)
    hits: list[int] = field(default_factory=list)
    executed: list[int] = field(default_factory=list)

    def record(self, fresh: Sequence) -> "CachedRun":
        """Take the executed points' results, in order, and store every
        success with its key fields as ``meta``."""
        for i, value in zip(self.executed, fresh):
            self.results[i] = value
            if self.cache is not None and not isinstance(value, PointFailure):
                self.cache.put(self.cache.key(**self.fields[i]), value,
                               meta=self.fields[i])
        return self


def look_up(cache: Optional[ResultCache], points: Sequence,
            fields: Callable[[Any], dict], progress=None) -> CachedRun:
    """Key each point by ``fields(point)`` and fill in the cache hits,
    ticking ``progress`` once per hit (the run of the misses ticks the
    rest).  Without a cache every point is a miss."""
    found = CachedRun(cache, [None] * len(points), [None] * len(points))
    for i, point in enumerate(points):
        if cache is not None:
            found.fields[i] = fields(point)
            found.results[i] = cache.get(cache.key(**found.fields[i]))
        if found.results[i] is None:
            found.executed.append(i)
        else:
            found.hits.append(i)
            if progress is not None:
                progress.update()
    return found


def cached_run(cache: Optional[ResultCache], points: Sequence,
               fields: Callable[[Any], dict],
               run: Callable[[list], Sequence], progress=None) -> CachedRun:
    """Look *points* up, hand the misses to ``run`` (one result each, in
    order: a :func:`~repro.parallel.runner.run_points` call and its retry
    policy) and record what it returns."""
    found = look_up(cache, points, fields, progress)
    return found.record(run([points[i] for i in found.executed]))
