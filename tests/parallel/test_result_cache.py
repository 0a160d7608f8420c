"""ResultCache: keying, hits/misses, invalidation, corruption handling."""

import json
import pytest
import os
import time

import repro.parallel.cache as cache_mod
from repro.parallel.cache import ResultCache, code_version, default_cache_dir


class TestCodeVersion:
    def test_stable_within_process(self):
        assert code_version() == code_version()

    def test_shape(self):
        v = code_version()
        assert len(v) == 16
        int(v, 16)  # hex digest


class TestKeying:
    def test_same_fields_same_key(self, tmp_path):
        c = ResultCache(tmp_path)
        assert c.key(a=1, b="x") == c.key(b="x", a=1)

    def test_different_fields_different_key(self, tmp_path):
        c = ResultCache(tmp_path)
        assert c.key(a=1) != c.key(a=2)
        assert c.key(a=1) != c.key(a=1, b=0)

    def test_code_change_invalidates(self, tmp_path, monkeypatch):
        c = ResultCache(tmp_path)
        before = c.key(a=1)
        monkeypatch.setattr(cache_mod, "code_version", lambda: "f" * 16)
        assert c.key(a=1) != before


class TestStore:
    def test_roundtrip(self, tmp_path):
        c = ResultCache(tmp_path)
        key = c.key(point="p1")
        assert c.get(key) is None
        c.put(key, {"ticks": 123, "seconds": 0.5}, meta={"point": "p1"})
        assert c.get(key) == {"ticks": 123, "seconds": 0.5}
        assert c.stats.misses == 1
        assert c.stats.hits == 1
        assert c.stats.stores == 1

    def test_entries_survive_new_instance(self, tmp_path):
        first = ResultCache(tmp_path)
        first.put(first.key(x=1), 42)
        second = ResultCache(tmp_path)
        assert second.get(second.key(x=1)) == 42

    def test_corrupt_entry_is_a_miss(self, tmp_path):
        c = ResultCache(tmp_path)
        key = c.key(x=1)
        c.put(key, 1)
        (tmp_path / f"{key}.json").write_text("{not json", encoding="utf-8")
        with pytest.warns(RuntimeWarning, match="corrupted cache entry"):
            assert c.get(key) is None
        assert c.stats.errors == 1

    def test_truncated_entry_is_a_miss_with_warning(self, tmp_path):
        """A worker killed mid-`os.replace` window (or a torn disk
        write) leaves a prefix of valid JSON; must warn, miss, and be
        healable by a fresh put."""
        c = ResultCache(tmp_path)
        key = c.key(x=2)
        c.put(key, {"ticks": 12345})
        path = tmp_path / f"{key}.json"
        blob = path.read_text(encoding="utf-8")
        path.write_text(blob[: len(blob) // 2], encoding="utf-8")
        with pytest.warns(RuntimeWarning, match="treated as a miss"):
            assert c.get(key) is None
        assert c.stats.errors == 1 and c.stats.misses == 1
        c.put(key, {"ticks": 12345})          # overwrite heals the entry
        assert c.get(key) == {"ticks": 12345}

    def test_wrong_shape_json_is_a_miss_with_warning(self, tmp_path):
        """Valid JSON that is not our {meta, payload} dict (e.g. a bare
        list) must be a warned miss, not a TypeError crash."""
        c = ResultCache(tmp_path)
        key = c.key(x=3)
        for wrong in ("[1, 2, 3]", '"a string"', '{"meta": {}}'):
            (tmp_path / f"{key}.json").write_text(wrong, encoding="utf-8")
            with pytest.warns(RuntimeWarning):
                assert c.get(key) is None

    def test_entry_file_is_inspectable_json(self, tmp_path):
        c = ResultCache(tmp_path)
        key = c.key(workload="sanity3")
        c.put(key, {"ticks": 9}, meta={"workload": "sanity3"})
        entry = json.loads((tmp_path / f"{key}.json").read_text())
        assert entry["meta"]["workload"] == "sanity3"
        assert entry["payload"]["ticks"] == 9

    def test_clear(self, tmp_path):
        c = ResultCache(tmp_path)
        for i in range(3):
            c.put(c.key(i=i), i)
        assert c.clear() == 3
        assert c.get(c.key(i=0)) is None

    def test_put_leaves_no_temp_file(self, tmp_path):
        c = ResultCache(tmp_path)
        c.put(c.key(x=1), {"v": 1})
        assert not list(tmp_path.glob("*.tmp"))


class TestTmpReap:
    @staticmethod
    def _age(path, seconds):
        past = time.time() - seconds
        os.utime(path, (past, past))

    def test_stale_tmp_reaped_on_construction(self, tmp_path):
        orphan = tmp_path / "tmpdead123.tmp"
        orphan.write_text("{torn", encoding="utf-8")
        self._age(orphan, 7200)  # older than the 1h default grace
        ResultCache(tmp_path)
        assert not orphan.exists()

    def test_fresh_tmp_survives_construction(self, tmp_path):
        # a young .tmp may be another live worker's in-flight write
        inflight = tmp_path / "tmplive456.tmp"
        inflight.write_text("{partial", encoding="utf-8")
        ResultCache(tmp_path)
        assert inflight.exists()

    def test_reap_honours_custom_age(self, tmp_path):
        orphan = tmp_path / "tmpx.tmp"
        orphan.write_text("", encoding="utf-8")
        self._age(orphan, 10)
        ResultCache(tmp_path, tmp_max_age_s=5.0)
        assert not orphan.exists()

    def test_clear_removes_tmp_files_unconditionally(self, tmp_path):
        c = ResultCache(tmp_path)
        c.put(c.key(x=1), 1)
        fresh = tmp_path / "tmpfresh.tmp"
        fresh.write_text("", encoding="utf-8")
        assert c.clear() == 2  # one entry + one temp file
        assert not fresh.exists()
        assert not list(tmp_path.glob("*"))

    def test_reap_missing_root_is_noop(self, tmp_path):
        c = ResultCache(tmp_path / "never_created")
        assert c.reap_stale_tmp() == 0

    def test_periodic_reap_after_n_puts(self, tmp_path):
        """A long-lived writer (the serve layer) must keep reaping:
        every ``reap_every_puts`` stores triggers a sweep, so orphans
        left by workers killed mid-write don't accumulate forever."""
        c = ResultCache(tmp_path, reap_every_puts=3)
        orphan = tmp_path / "tmporphan.tmp"
        orphan.write_text("{torn", encoding="utf-8")
        self._age(orphan, 7200)
        c.put(c.key(i=0), 0)
        c.put(c.key(i=1), 1)
        assert orphan.exists()          # interval not reached yet
        c.put(c.key(i=2), 2)
        assert not orphan.exists()

    def test_periodic_reap_spares_fresh_tmp(self, tmp_path):
        c = ResultCache(tmp_path, reap_every_puts=1)
        inflight = tmp_path / "tmplive.tmp"
        inflight.write_text("{partial", encoding="utf-8")
        c.put(c.key(i=0), 0)
        assert inflight.exists()

    def test_periodic_reap_disabled_with_zero(self, tmp_path):
        c = ResultCache(tmp_path, reap_every_puts=0)
        orphan = tmp_path / "tmporphan.tmp"
        orphan.write_text("", encoding="utf-8")
        self._age(orphan, 7200)
        for i in range(5):
            c.put(c.key(i=i), i)
        assert orphan.exists()

    def test_manual_reap_resets_put_counter(self, tmp_path):
        c = ResultCache(tmp_path, reap_every_puts=2)
        c.put(c.key(i=0), 0)
        c.reap_stale_tmp()              # external sweep resets the clock
        orphan = tmp_path / "tmporphan.tmp"
        orphan.write_text("", encoding="utf-8")
        self._age(orphan, 7200)
        c.put(c.key(i=1), 1)
        assert orphan.exists()          # counter restarted at the sweep
        c.put(c.key(i=2), 2)
        assert not orphan.exists()


class TestDefaultDir:
    def test_env_override(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "alt"))
        assert default_cache_dir() == tmp_path / "alt"

    def test_repo_layout_default(self, monkeypatch):
        monkeypatch.delenv("REPRO_CACHE_DIR", raising=False)
        path = default_cache_dir()
        assert path.parts[-3:] == ("benchmarks", "out", "cache")
