"""Bitonic sorter: the VHDL/GHDL-flow use case."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.models.bitonic.wrapper import (
    BitonicSharedLibrary,
    LANES,
    PIPELINE_DEPTH,
    load_bitonic_source,
)


@pytest.fixture(scope="module")
def lib() -> BitonicSharedLibrary:
    lib = BitonicSharedLibrary(width=16)
    lib.reset()
    return lib


class TestSource:
    def test_source_is_real_vhdl(self):
        src = load_bitonic_source()
        assert "entity bitonic8" in src
        assert "rising_edge(clk)" in src
        assert "entity work.ce" in src

    def test_width_limit(self):
        with pytest.raises(ValueError):
            BitonicSharedLibrary(width=48)


class TestSorting:
    def test_sorted_ascending(self, lib):
        out = lib.sort8([8, 7, 6, 5, 4, 3, 2, 1])
        assert out == [1, 2, 3, 4, 5, 6, 7, 8]

    def test_already_sorted(self, lib):
        vals = list(range(8))
        assert lib.sort8(vals) == vals

    def test_duplicates(self, lib):
        assert lib.sort8([5, 5, 1, 1, 9, 9, 0, 0]) == [0, 0, 1, 1, 5, 5, 9, 9]

    def test_all_equal(self, lib):
        assert lib.sort8([7] * 8) == [7] * 8

    def test_extremes(self, lib):
        vals = [0xFFFF, 0, 0xFFFF, 0, 1, 0xFFFE, 2, 3]
        assert lib.sort8(vals) == sorted(vals)

    def test_wrong_lane_count_rejected(self, lib):
        with pytest.raises(ValueError):
            lib.sort8([1, 2, 3])


class TestPipeline:
    def test_latency_is_pipeline_depth(self):
        lib = BitonicSharedLibrary(width=16)
        lib.reset()
        out = lib.output_spec.unpack(
            lib.tick(lib.input_spec.pack(valid_in=1, data=[3, 1, 2, 0, 7, 6, 5, 4]))
        )
        ticks = 1
        while not out["valid_out"]:
            out = lib.output_spec.unpack(lib.tick(lib.input_spec.zeros()))
            ticks += 1
        assert ticks == PIPELINE_DEPTH

    def test_one_result_per_cycle_throughput(self):
        lib = BitonicSharedLibrary(width=16)
        lib.reset()
        batches = [[(i * 37 + j * 11) % 1000 for j in range(8)]
                   for i in range(10)]
        results = []
        total = 0
        feed = iter(batches)
        while len(results) < len(batches):
            batch = next(feed, None)
            fields = (
                {"valid_in": 1, "data": batch} if batch is not None else {}
            )
            out = lib.output_spec.unpack(
                lib.tick(lib.input_spec.pack(**fields))
            )
            if out["valid_out"]:
                results.append(out["data"])
            total += 1
        assert total == len(batches) + PIPELINE_DEPTH - 1
        assert all(r == sorted(b) for r, b in zip(results, batches))

    def test_reset_clears_pipeline(self):
        lib = BitonicSharedLibrary(width=16)
        lib.reset()
        lib.tick(lib.input_spec.pack(valid_in=1, data=[1] * 8))
        lib.reset()
        for _ in range(PIPELINE_DEPTH + 2):
            out = lib.output_spec.unpack(lib.tick(lib.input_spec.zeros()))
            assert out["valid_out"] == 0


@settings(max_examples=30, deadline=None)
@given(st.lists(st.integers(min_value=0, max_value=0xFFFF),
                min_size=LANES, max_size=LANES))
def test_property_sorts_any_vector(lib_values):
    lib = test_property_sorts_any_vector._lib
    assert lib.sort8(lib_values) == sorted(lib_values)


# one shared instance for the property test (compilation is not free)
test_property_sorts_any_vector._lib = BitonicSharedLibrary(width=16)
test_property_sorts_any_vector._lib.reset()
