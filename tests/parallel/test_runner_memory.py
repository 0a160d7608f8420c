"""run_points frees each point's reference cycles before the next point.

The guard freezes the pre-point heap and collects after the point, so a
finished simulation (every SimObject sits in cycles) is gone when the
next one is built, in-process and in pool children alike — and the
freeze never outlives the call that made it.
"""

import gc
import os
import weakref

import pytest

from repro.parallel.runner import PointFailure, run_points

#: this process's last point's object (pool children inherit it on fork)
_previous = None


class _Cyclic:
    """1 MiB that only a reference cycle keeps alive once dropped."""

    def __init__(self):
        self.payload = bytearray(1 << 20)
        self.me = self


def _leave_cycle(point):
    """Report whether this process's previous point's object is still
    alive, then leave a fresh one behind as garbage."""
    global _previous
    alive = _previous is not None and _previous() is not None
    obj = _Cyclic()
    _previous = weakref.ref(obj)
    return os.getpid(), alive


def _always_raises(point):
    raise RuntimeError(f"cannot process {point}")


@pytest.fixture(autouse=True)
def _fresh_state():
    global _previous
    _previous = None
    assert gc.get_freeze_count() == 0
    yield
    _previous = None


class TestPreviousPointIsFreed:
    def test_serial(self):
        results = run_points(range(6), _leave_cycle, jobs=1)
        assert [alive for _pid, alive in results] == [False] * 6
        assert _previous() is None

    def test_pool(self):
        results = run_points(range(6), _leave_cycle, jobs=2)
        assert [alive for _pid, alive in results] == [False] * 6
        pids = [pid for pid, _alive in results]
        # six points over two children: some child ran a later point
        assert len(set(pids)) < len(pids)


class TestFreezeState:
    def test_unfrozen_after_return(self):
        run_points([1, 2], _leave_cycle, jobs=1)
        assert gc.get_freeze_count() == 0

    def test_unfrozen_after_point_failure(self):
        with pytest.raises(PointFailure):
            run_points([1], _always_raises, jobs=1, max_attempts=2)
        assert gc.get_freeze_count() == 0

    def test_unfrozen_after_keyboard_interrupt(self):
        def interrupted(point):
            raise KeyboardInterrupt

        with pytest.raises(KeyboardInterrupt):
            run_points([1], interrupted, jobs=1)
        assert gc.get_freeze_count() == 0

    def test_callers_freeze_survives(self):
        gc.freeze()
        try:
            frozen = gc.get_freeze_count()
            assert frozen > 0
            results = run_points(range(3), _leave_cycle, jobs=1)
            assert gc.get_freeze_count() == frozen
        finally:
            gc.unfreeze()
        # the point still collected what it allocated
        assert [alive for _pid, alive in results] == [False] * 3


def test_dse_sweep_leaves_no_simobject_behind():
    """After a sweep, no simulated system waits for a full collection."""
    from repro.dse.sweep import run_dse
    from repro.soc.simobject import SimObject

    gc.collect()
    before = [o for o in gc.get_objects() if isinstance(o, SimObject)]
    known = {id(o) for o in before}
    run_dse("sanity3", 1, inflight_sweep=(8,), memories=("HBM",), scale=0.1)
    leftover = [type(o).__name__ for o in gc.get_objects()
                if isinstance(o, SimObject) and id(o) not in known]
    assert leftover == []
