"""Sorting-kernel µop generators (paper §5.2.1).

The paper's PMU benchmark runs three sorting algorithms with distinct
computational patterns — QuickSort, SelectionSort and BubbleSort —
separated by 1 ms sleeps so the phases are visible in the IPC-over-time
plot (Fig. 5).  QuickSort sorts 10× more elements than the others and
still finishes first.

Each generator *actually sorts* a deterministic pseudo-random array,
emitting the µop stream of the work as it goes: loads/stores of the
8-byte elements, compare/loop ALU work, and branches whose mispredict
flags come from a small 2-bit-counter branch predictor simulated inline
— so BubbleSort's compare branch grows more predictable as the array
gets sorted, QuickSort's partition branch stays hard, and the resulting
IPC phases differ the way the paper's do.
"""

from __future__ import annotations

import random
from typing import Iterator

from ..soc.cpu.uop import ALU, BRANCH, LOAD, STORE, Uop, sleep

# shared µops, not a helper call per simulated instruction
_ALU = (ALU, 1)
_BRANCH = ((BRANCH, 0), (BRANCH, 1))  # by the predictor's answer


class BranchPredictor:
    """Per-site 2-bit saturating counters (a tiny bimodal predictor)."""

    def __init__(self) -> None:
        self._state: dict[str, int] = {}

    def mispredicted(self, site: str, taken: bool) -> bool:
        state = self._state.get(site, 1)  # weakly not-taken
        self._state[site] = min(state + 1, 3) if taken else max(state - 1, 0)
        return (state >= 2) != taken


def make_array(n: int, seed: int = 42) -> list[int]:
    rng = random.Random(seed)
    return [rng.randrange(0, 1 << 30) for _ in range(n)]


def quicksort_uops(
    data: list[int], base: int = 0x10_0000
) -> Iterator[Uop]:
    """Iterative Hoare-partition quicksort over *data* (sorted in place)."""
    bp = BranchPredictor()
    stack = [(0, len(data) - 1)]
    while stack:
        lo, hi = stack.pop()
        yield _ALU  # stack pop / range check
        taken = lo < hi
        yield _BRANCH[bp.mispredicted("qs_range", taken)]
        if not taken:
            continue
        pivot = data[(lo + hi) // 2]
        yield (LOAD, base + 8 * ((lo + hi) // 2))
        i, j = lo - 1, hi + 1
        while True:
            while True:
                i += 1
                yield _ALU
                yield (LOAD, base + 8 * i)
                taken = data[i] < pivot
                yield _BRANCH[bp.mispredicted("qs_left", taken)]
                if not taken:
                    break
            while True:
                j -= 1
                yield _ALU
                yield (LOAD, base + 8 * j)
                taken = data[j] > pivot
                yield _BRANCH[bp.mispredicted("qs_right", taken)]
                if not taken:
                    break
            taken = i >= j
            yield _BRANCH[bp.mispredicted("qs_cross", taken)]
            if taken:
                break
            data[i], data[j] = data[j], data[i]
            yield (STORE, base + 8 * i)
            yield (STORE, base + 8 * j)
        stack.append((lo, j))
        stack.append((j + 1, hi))
        yield _ALU
        yield _ALU


def selectionsort_uops(
    data: list[int], base: int = 0x20_0000
) -> Iterator[Uop]:
    """Classic selection sort (Goetz-style replacement selection inner scan)."""
    bp = BranchPredictor()
    n = len(data)
    for i in range(n - 1):
        min_idx = i
        min_val = data[i]
        yield (LOAD, base + 8 * i)
        for j in range(i + 1, n):
            yield _ALU  # index increment
            yield (LOAD, base + 8 * j)
            taken = data[j] < min_val
            yield _BRANCH[bp.mispredicted("ss_min", taken)]
            if taken:
                min_idx, min_val = j, data[j]
                yield _ALU
        if min_idx != i:
            data[i], data[min_idx] = data[min_idx], data[i]
            yield (STORE, base + 8 * i)
            yield (STORE, base + 8 * min_idx)
        yield _BRANCH[bp.mispredicted("ss_outer", i + 1 < n - 1)]


def bubblesort_uops(
    data: list[int], base: int = 0x30_0000
) -> Iterator[Uop]:
    """Bubble sort with the early-exit swapped flag."""
    bp = BranchPredictor()
    n = len(data)
    while True:
        swapped = False
        for j in range(n - 1):
            yield _ALU
            yield (LOAD, base + 8 * j)
            yield (LOAD, base + 8 * (j + 1))
            taken = data[j] > data[j + 1]
            yield _BRANCH[bp.mispredicted("bs_cmp", taken)]
            if taken:
                data[j], data[j + 1] = data[j + 1], data[j]
                yield (STORE, base + 8 * j)
                yield (STORE, base + 8 * (j + 1))
                swapped = True
        yield _BRANCH[bp.mispredicted("bs_pass", swapped)]
        if not swapped:
            break


def sort_benchmark(
    n: int = 300,
    sleep_cycles: int = 20_000,
    seed: int = 42,
) -> Iterator[Uop]:
    """The paper's three-phase PMU benchmark.

    QuickSort over ``10 * n`` elements, then SelectionSort and
    BubbleSort over ``n`` elements, separated by sleeps (the paper's
    1 ms pauses, scaled: see EXPERIMENTS.md).
    """
    quick_data = make_array(n * 10, seed)
    sel_data = make_array(n, seed + 1)
    bub_data = make_array(n, seed + 2)

    yield from quicksort_uops(quick_data, base=0x10_0000)
    assert quick_data == sorted(quick_data)
    yield sleep(sleep_cycles)
    yield from selectionsort_uops(sel_data, base=0x20_0000)
    assert sel_data == sorted(sel_data)
    yield sleep(sleep_cycles)
    yield from bubblesort_uops(bub_data, base=0x30_0000)
    assert bub_data == sorted(bub_data)
