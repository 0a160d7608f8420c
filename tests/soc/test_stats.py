"""Statistics framework: counters, vectors, distributions, groups."""

import math

import pytest
from hypothesis import given, strategies as st

from repro.soc.stats import Distribution, Formula, Scalar, StatGroup, Vector


class TestScalar:
    def test_starts_at_zero(self):
        assert Scalar("s").value() == 0

    def test_inc_and_iadd(self):
        s = Scalar("s")
        s.inc()
        s.inc(4)
        s += 5
        assert s.value() == 10

    def test_set_and_reset(self):
        s = Scalar("s")
        s.set(42)
        assert s.value() == 42
        s.reset()
        assert s.value() == 0

    def test_bad_name_rejected(self):
        with pytest.raises(ValueError):
            Scalar("has space")
        with pytest.raises(ValueError):
            Scalar("")


class TestVector:
    def test_indexing_and_total(self):
        v = Vector("v", 4)
        v.inc(1, 10)
        v.inc(3)
        assert v[1] == 10 and v[3] == 1
        assert v.total() == 11
        assert len(v) == 4

    def test_rows_include_total(self):
        v = Vector("v", 2)
        v.inc(0, 3)
        rows = dict(v.rows())
        assert rows["::0"] == 3
        assert rows["::total"] == 3

    def test_zero_size_rejected(self):
        with pytest.raises(ValueError):
            Vector("v", 0)

    def test_reset(self):
        v = Vector("v", 2)
        v.inc(0)
        v.reset()
        assert v.total() == 0


class TestDistribution:
    def test_mean_and_count(self):
        d = Distribution("d", 0, 100, 10)
        for x in (5, 15, 25):
            d.sample(x)
        assert d.count == 3
        assert d.mean() == pytest.approx(15.0)

    def test_overflow_underflow(self):
        d = Distribution("d", 10, 20)
        d.sample(5)
        d.sample(25)
        d.sample(15)
        assert d.underflow == 1
        assert d.overflow == 1
        assert d.count == 3

    def test_stdev_matches_sample_stdev(self):
        d = Distribution("d", 0, 1000)
        values = [3, 7, 7, 19]
        for v in values:
            d.sample(v)
        mean = sum(values) / len(values)
        expected = math.sqrt(
            sum((v - mean) ** 2 for v in values) / (len(values) - 1)
        )
        assert d.stdev() == pytest.approx(expected)

    def test_weighted_samples(self):
        d = Distribution("d", 0, 10)
        d.sample(4, count=5)
        assert d.count == 5
        assert d.mean() == pytest.approx(4.0)

    def test_bad_params_rejected(self):
        with pytest.raises(ValueError):
            Distribution("d", 10, 0)

    @given(st.lists(st.integers(min_value=-50, max_value=150), min_size=1))
    def test_property_bucket_mass_conserved(self, xs):
        d = Distribution("d", 0, 100, 7)
        for x in xs:
            d.sample(x)
        v = d.value()
        assert sum(v["buckets"]) + v["underflow"] + v["overflow"] == len(xs)


class TestFormula:
    def test_lazy_evaluation(self):
        a = Scalar("a")
        f = Formula("f", lambda: a.value() * 2)
        assert f.value() == 0
        a.inc(21)
        assert f.value() == 42


class TestStatGroup:
    def test_tree_dump_with_dotted_names(self):
        root = StatGroup("system")
        child = StatGroup("cpu0", root)
        child.scalar("cycles").inc(100)
        root.scalar("ticks").inc(7)
        flat = root.dump()
        assert flat["system.cpu0.cycles"] == 100
        assert flat["system.ticks"] == 7

    def test_duplicate_stat_rejected(self):
        g = StatGroup("g")
        g.scalar("x")
        with pytest.raises(ValueError):
            g.scalar("x")

    def test_duplicate_child_rejected(self):
        root = StatGroup("root")
        StatGroup("a", root)
        with pytest.raises(ValueError):
            StatGroup("a", root)

    def test_dump_and_reset_gives_interval_semantics(self):
        g = StatGroup("g")
        s = g.scalar("events")
        s.inc(5)
        first = g.dump()
        g.reset()
        s.inc(3)
        second = g.dump()
        assert first["g.events"] == 5
        assert second["g.events"] == 3

    def test_recursive_reset(self):
        root = StatGroup("r")
        child = StatGroup("c", root)
        s = child.scalar("x")
        s.inc(9)
        root.reset()
        assert s.value() == 0

    def test_path(self):
        root = StatGroup("sys")
        child = StatGroup("llc", root)
        assert child.path() == "sys.llc"

    def test_format_text_contains_markers(self):
        g = StatGroup("g")
        g.scalar("x").inc(1)
        text = g.format_text()
        assert "Begin Simulation Statistics" in text
        assert "g.x" in text

    def test_vector_rows_in_dump(self):
        g = StatGroup("g")
        v = g.vector("banks", 2)
        v.inc(1, 5)
        flat = g.dump()
        assert flat["g.banks::1"] == 5
        assert flat["g.banks::total"] == 5
