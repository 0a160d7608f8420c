"""Fault-injection campaigns: sampling, triage, determinism, reports.

The heavyweight claims (byte-identical reports across worker counts,
cached resume executing zero points, ECC strictly lowering the SDC
rate) all run on the ``rtlcache`` target — its golden run is a few
thousand cycles, so a whole campaign costs well under a second.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os

import pytest

from repro.parallel.cache import ResultCache
from repro.parallel.runner import RunStats
from repro.resilience.watchdog import HangReport
from repro.resilience.serialize import canonical_digest, load_checkpoint_doc
from repro.resilience.campaign import (
    OUTCOMES,
    campaign_config,
    campaign_point_fields,
    campaign_points,
    render_report,
    run_campaign,
    run_experiment,
    sample_faults,
    wilson_interval,
)
from repro.resilience.targets import get_target, normalize_params

BUDGET = 24
SEED = 3

#: marker file whose creation makes :func:`_die_once_on_busy` kill a worker
_DIE_MARKER_ENV = "CAMPAIGN_TEST_DIE_MARKER"


def _die_once_on_busy(point):
    """Stand-in experiment (module level, so pool workers unpickle it):
    the first ``busy`` point takes its whole worker process down — a
    host failure, not a simulated one — and every later call is real."""
    if point[2] == "busy":
        try:
            fd = os.open(os.environ[_DIE_MARKER_ENV],
                         os.O_CREAT | os.O_EXCL | os.O_WRONLY)
        except FileExistsError:
            pass
        else:
            os.close(fd)
            os._exit(1)
    return run_experiment(point)


@pytest.fixture
def camp_env(tmp_path, monkeypatch):
    """Isolate the campaign root (golden + checkpoints) per test."""
    monkeypatch.setenv("REPRO_CAMPAIGN_DIR", str(tmp_path / "camp"))
    return tmp_path


def _campaign(tmp_path, target="rtlcache", budget=BUDGET, seed=SEED,
              jobs=1, cache_dir="cache", **kw):
    cache = ResultCache(root=tmp_path / cache_dir)
    return run_campaign(target, budget=budget, seed=seed, jobs=jobs,
                        cache=cache, **kw)


class TestSampling:
    def _module(self, name="rtlcache"):
        target = get_target(name)
        return target, target.module(normalize_params(target))

    def test_seed_deterministic(self):
        _, module = self._module()
        a = sample_faults(module, 16, seed=5, max_cycle=1000)
        b = sample_faults(module, 16, seed=5, max_cycle=1000)
        c = sample_faults(module, 16, seed=6, max_cycle=1000)
        assert a == b
        assert a != c

    def test_stratified_round_robin_and_in_range(self):
        from repro.resilience.faults import flip_targets

        _, module = self._module()
        targets = flip_targets(module, include_memories=True)
        names = [name for name, _w in targets]
        widths = dict(targets)
        faults = sample_faults(module, len(names) + 3, seed=0,
                               max_cycle=500)
        # one pass over every target before any repeats, in table order
        assert [f[0] for f in faults[:len(names)]] == names
        assert [f[0] for f in faults[len(names):]] == names[:3]
        for signal, bit, cycle in faults:
            assert 0 <= bit < widths[signal]
            assert 1 <= cycle < 500

    def test_params_validation(self):
        target = get_target("rtlcache")
        with pytest.raises(ValueError, match="unknown parameter"):
            normalize_params(target, {"bogus": 1})
        params = normalize_params(target, {"idxw": "5", "ecc": "true"})
        assert params["idxw"] == 5 and params["ecc"] is True
        with pytest.raises(ValueError, match="unknown campaign target"):
            get_target("nope")


class TestWilson:
    def test_bounds_and_extremes(self):
        low, high = wilson_interval(0, 20)
        assert low == 0.0 and 0.0 < high < 0.2
        low, high = wilson_interval(20, 20)
        assert 0.8 < low < 1.0 and high == 1.0
        low, high = wilson_interval(5, 10)
        assert low < 0.5 < high
        # symmetric case: CI centred on p = 0.5
        assert abs((low + high) / 2 - 0.5) < 1e-9

    def test_empty_sample(self):
        assert wilson_interval(0, 0) == (0.0, 1.0)

    def test_narrows_with_n(self):
        narrow = wilson_interval(50, 100)
        wide = wilson_interval(5, 10)
        assert narrow[1] - narrow[0] < wide[1] - wide[0]


class TestTriage:
    def test_outcome_taxonomy_is_fixed(self):
        assert OUTCOMES == ("masked", "sdc", "detected_corrected",
                            "detected_hang", "crash", "infra")

    def test_unknown_signal_flip_is_skipped_hence_masked(self, camp_env):
        # _flip_on skips models without the named signal (multi-object
        # sims), so a dangling name degrades to a no-flip masked run,
        # never a crash or a miscounted infra failure
        cfg = campaign_config("rtlcache", budget=1, seed=0)
        point = list(campaign_points(cfg)[0])
        point[2], point[3] = "no_such_signal", 0
        result = run_experiment(tuple(point))
        assert result["outcome"] == "masked"

    def test_infra_failures_retried_then_reported_not_cached(
            self, camp_env, monkeypatch):
        import repro.resilience.campaign as campaign_mod

        real = campaign_mod.CAMPAIGN
        attempts = []

        def flaky(point):
            if point[2] == "busy":        # first target in table order
                attempts.append(point[2])
                raise RuntimeError("synthetic worker loss")
            return run_experiment(point)

        monkeypatch.setattr(campaign_mod, "CAMPAIGN",
                            dataclasses.replace(real, worker=flaky))
        cache = ResultCache(root=camp_env / "cache")
        stats = RunStats()
        report = run_campaign("rtlcache", budget=6, seed=1, jobs=1,
                              cache=cache, stats=stats)
        assert len(attempts) == 3         # the runner's attempts, then give up
        # one run_points call: nothing overwritten by a retry round
        assert (stats.points, stats.completed, stats.failed,
                stats.soft_retries) == (6, 5, 1, 2)
        assert report["histogram"]["infra"] == 1
        infra = [e for e in report["experiments"]
                 if e["outcome"] == "infra"]
        assert len(infra) == 1 and infra[0]["signal"] == "busy"
        assert "synthetic worker loss" in infra[0]["error"]
        # infra results were never cached and AVF excludes them
        assert report["valid_samples"] == 5
        monkeypatch.setattr(campaign_mod, "CAMPAIGN", real)
        stats = RunStats()
        healed = run_campaign("rtlcache", budget=6, seed=1, jobs=1,
                              cache=cache, stats=stats)
        assert stats.completed == 1       # only the infra point re-ran
        assert healed["histogram"]["infra"] == 0

    def test_worker_death_rebuilds_the_pool(self, camp_env, monkeypatch):
        import repro.resilience.campaign as campaign_mod

        clean = _campaign(camp_env, budget=6, seed=1, jobs=2,
                          cache_dir="cache-clean")
        marker = camp_env / "worker-died"
        monkeypatch.setenv(_DIE_MARKER_ENV, str(marker))
        monkeypatch.setattr(campaign_mod, "CAMPAIGN", dataclasses.replace(
            campaign_mod.CAMPAIGN, worker=_die_once_on_busy))
        stats = RunStats()
        report = _campaign(camp_env, budget=6, seed=1, jobs=2,
                           cache_dir="cache-dying", stats=stats)
        assert marker.exists()
        assert stats.pool_restarts == 1
        assert report["histogram"]["infra"] == 0
        assert render_report(report) == render_report(clean)


class TestCampaign:
    def test_report_is_deterministic_across_jobs(self, camp_env):
        serial = _campaign(camp_env, jobs=1, cache_dir="cache-a")
        fanned = _campaign(camp_env, jobs=2, cache_dir="cache-b")
        assert render_report(serial) == render_report(fanned)

    def test_rtlcache_triage_mix(self, camp_env):
        report = _campaign(camp_env)
        hist = report["histogram"]
        assert sum(hist.values()) == BUDGET
        assert hist["infra"] == 0
        assert hist["masked"] > 0
        assert hist["sdc"] >= 1          # a data-store flip escapes
        assert hist["detected_hang"] >= 1  # a busy flip wedges the FSM
        assert report["avf"] is not None
        lo, hi = report["avf_ci95"]
        assert 0.0 <= lo <= report["avf"] <= hi <= 1.0
        # per-signal entries exclude nothing and aggregate memory words
        assert sum(e["samples"] for e in report["signals"].values()) \
            == BUDGET
        assert "data" in report["signals"]  # counters[3]-style grouping

    def test_hang_report_round_trips(self, camp_env):
        report = _campaign(camp_env)
        hangs = [e for e in report["experiments"]
                 if e["outcome"] == "detected_hang" and "hang" in e]
        assert hangs, "expected at least one watchdog-detected hang"
        clone = HangReport.from_json(json.dumps(hangs[0]["hang"]))
        assert clone.kind == hangs[0]["hang_kind"]
        assert clone.format()  # renders without error

    def test_resume_executes_nothing(self, camp_env):
        first_stats = RunStats()
        first = _campaign(camp_env, stats=first_stats)
        assert first_stats.completed == BUDGET
        second_stats = RunStats()
        second = _campaign(camp_env, stats=second_stats)
        # every point resolved from the cache: run_points never ran
        assert second_stats.completed == 0
        assert render_report(first) == render_report(second)

    def test_cache_key_excludes_host_local_fields(self, camp_env):
        cfg = campaign_config("rtlcache", budget=2, seed=0)
        point = campaign_points(cfg)[0]
        fields = campaign_point_fields(cfg, point)
        text = json.dumps(fields)
        assert point[5] not in text          # campaign root path
        assert "wall_timeout" not in text
        assert fields["experiment"] == "campaign_point"

    def test_ecc_strictly_lowers_sdc_rate(self, camp_env):
        plain = _campaign(camp_env, target="rtlcache",
                          cache_dir="cache-plain")
        ecc = _campaign(camp_env, target="rtlcache_ecc",
                        cache_dir="cache-ecc")
        assert ecc["histogram"]["sdc"] < plain["histogram"]["sdc"]
        assert ecc["histogram"]["detected_corrected"] >= 1
        golden_det = ecc["golden"]["detection"]
        assert "corrections" in golden_det


class TestGolden:
    def test_golden_reused_across_campaigns(self, camp_env):
        cfg = campaign_config("rtlcache", budget=4, seed=0)
        points_a = campaign_points(cfg)
        root = points_a[0][5]
        golden_path = os.path.join(root, "golden.json")
        before = os.stat(golden_path).st_mtime_ns
        points_b = campaign_points(cfg)
        assert os.stat(golden_path).st_mtime_ns == before
        assert points_a == points_b

    def test_golden_records_checkpoint_ladder(self, camp_env):
        cfg = campaign_config("rtlcache", budget=1, seed=0)
        root = campaign_points(cfg)[0][5]
        with open(os.path.join(root, "golden.json"),
                  encoding="utf-8") as fh:
            golden = json.load(fh)
        assert golden["checkpoints"], "golden run saved no checkpoints"
        for path, tick in golden["checkpoints"]:
            assert os.path.exists(path)
            assert tick > 0
        # one canonical digest per rung, of the bytes on disk
        assert len(golden["digests"]) == len(golden["checkpoints"])
        for (path, _tick), digest in zip(golden["checkpoints"],
                                         golden["digests"]):
            assert canonical_digest(load_checkpoint_doc(path)) == digest


@pytest.mark.parametrize("target,sha", [
    ("rtlcache",
     "7604038aaac1fa058d79bcf112869f8880b3cb939476ed2fa23ec4cac7c1cfdc"),
    ("rtlcache_ecc",
     "2e3e907ade7448be16cb62c1ad1dd676e554d7da191c886335f053c8dcf08f69"),
    ("coherence",
     "50c84e42641b2be4dd1ed79be7ba0329a905721530dda8a523c7b9cf49410ae0"),
    ("pmu",
     "aa2d4cf3622cc869f64621e912f71469f3838e8a121a91928cfaab04d2d98059"),
])
def test_report_bytes_are_pinned(camp_env, target, sha):
    """``repro campaign <target> --budget 8 --seed 0 --report`` bytes: a
    change to sampling, triage or any simulated cycle shows here."""
    report = run_campaign(target, budget=8, seed=0, jobs=1)
    text = render_report(report)
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == sha
