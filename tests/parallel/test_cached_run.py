"""The cached-run loop: look every point up, run the misses, store what
succeeded — the one path the DSE, fault campaigns and serve jobs take
to the ResultCache."""

import json

from repro.parallel.cache import ResultCache, cached_run, look_up
from repro.parallel.runner import PointFailure, run_points


class Ticks:
    def __init__(self):
        self.done = 0

    def update(self, n: int = 1) -> None:
        self.done += n


def _fields(point):
    return {"experiment": "loop_test", "x": point}


def _square(point):
    if point < 0:
        raise ValueError("negative point")
    return point * point


def _run(points, progress=None):
    return run_points(points, _square, keep_going=True, max_attempts=1,
                      progress=progress)


def _entry(cache, point):
    path = cache.root / f"{cache.key(**_fields(point))}.json"
    return json.loads(path.read_text(encoding="utf-8"))


class TestCachedRun:
    def test_cold_run_executes_everything_and_stores_it(self, tmp_path):
        cache = ResultCache(tmp_path)
        found = cached_run(cache, [1, 2, 3], _fields, _run)
        assert found.results == [1, 4, 9]
        assert found.hits == [] and found.executed == [0, 1, 2]
        assert cache.stats.stores == 3

    def test_half_warm_run_executes_only_its_misses(self, tmp_path):
        cache = ResultCache(tmp_path)
        cached_run(cache, [1, 3], _fields, _run)
        ran = []

        def run(points):
            ran.extend(points)
            return _run(points)

        found = cached_run(cache, [1, 2, 3, 4], _fields, run)
        assert ran == [2, 4]
        assert found.hits == [0, 2] and found.executed == [1, 3]
        assert found.results == [1, 4, 9, 16]

    def test_hits_tick_progress_once_each(self, tmp_path):
        cache = ResultCache(tmp_path)
        cached_run(cache, [1, 2], _fields, _run)
        ticks = Ticks()
        cached_run(cache, [1, 2, 3], _fields,
                   lambda todo: _run(todo, progress=ticks), progress=ticks)
        # two hits ticked by the loop, one miss by run_points
        assert ticks.done == 3

    def test_failures_are_returned_but_never_stored(self, tmp_path):
        cache = ResultCache(tmp_path)
        found = cached_run(cache, [2, -1], _fields, _run)
        assert found.results[0] == 4
        assert isinstance(found.results[1], PointFailure)
        assert cache.stats.stores == 1
        assert cache.get(cache.key(**_fields(-1))) is None
        again = cached_run(cache, [2, -1], _fields, _run)
        assert again.hits == [0] and again.executed == [1]

    def test_meta_is_the_key_fields(self, tmp_path):
        cache = ResultCache(tmp_path)
        cached_run(cache, [5], _fields, _run)
        assert _entry(cache, 5) == {"meta": _fields(5), "payload": 25}

    def test_without_a_cache_every_point_runs(self):
        ticks = Ticks()
        found = cached_run(None, [1, 2], _fields, _run, progress=ticks)
        assert found.executed == [0, 1] and found.results == [1, 4]
        assert ticks.done == 0          # nothing was a hit

    def test_halves_compose_like_the_whole(self, tmp_path):
        cache = ResultCache(tmp_path)
        cached_run(cache, [1], _fields, _run)
        found = look_up(cache, [1, 2], _fields)
        assert found.results == [1, None] and found.executed == [1]
        found.record(_run([2]))
        assert found.results == [1, 4]
        assert cache.get(cache.key(**_fields(2))) == 4
