"""A masked flip ends at the golden rung it rejoins, and nothing else
changes: reports are byte-identical with the early stop on and off, the
canonical digest ignores exactly what cannot reach an observable, and
a stop the watchdog bound does not cover is refused."""

from __future__ import annotations

import copy

import pytest

import repro.resilience.campaign as campaign
from repro.dse.pmu_experiment import build_pmu_system
from repro.parallel.cache import ResultCache
from repro.resilience.faults import FaultInjector
from repro.resilience.watchdog import Watchdog
from repro.resilience.serialize import canonical_digest, checkpoint_document
from repro.resilience.targets import get_target

#: the bench's campaign (bench/README.md: n_sort / budget / checkpoint_every)
BENCH = {"target_name": "pmu", "params": {"n_sort": 12}, "budget": 6,
         "seed": 0, "checkpoint_every": 3_000}


@pytest.fixture
def camp_env(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CAMPAIGN_DIR", str(tmp_path / "camp"))
    return tmp_path


@pytest.fixture
def stops(monkeypatch):
    """Rung ticks at which experiments stopped, in run order."""
    seen: list[int] = []
    real = campaign._rejoin_check

    def counting(*args):
        on_rung = real(*args)
        if on_rung is None:
            return None

        def wrapped(doc):
            try:
                on_rung(doc)
            except campaign._Rejoined as rejoined:
                seen.append(rejoined.args[0])
                raise

        return wrapped

    monkeypatch.setattr(campaign, "_rejoin_check", counting)
    return seen


def _report(tmp_path, monkeypatch, stop: bool, target_name: str,
            cache: str, **kw) -> str:
    monkeypatch.setattr(campaign, "STOP_AT_CONVERGENCE", stop)
    report = campaign.run_campaign(
        target_name, jobs=1, cache=ResultCache(root=tmp_path / cache), **kw)
    return campaign.render_report(report)


def _on_off(tmp_path, monkeypatch, **kw) -> tuple[str, str]:
    on = _report(tmp_path, monkeypatch, True, cache="cache-on", **kw)
    off = _report(tmp_path, monkeypatch, False, cache="cache-off", **kw)
    return on, off


class TestOnOffIdentity:
    @pytest.mark.parametrize("budget", [8, 64])
    @pytest.mark.parametrize("target", ["rtlcache", "rtlcache_ecc",
                                        "coherence"])
    def test_reports_identical(self, camp_env, monkeypatch, target, budget):
        on, off = _on_off(camp_env, monkeypatch, target_name=target,
                          budget=budget, seed=0)
        assert on == off

    def test_bench_campaign_identical_and_stops(self, camp_env, monkeypatch,
                                                stops):
        on, off = _on_off(camp_env, monkeypatch, **BENCH)
        assert on == off
        # i[26]@664 at cycle 3 000, irq[0]@8377 and rvalid[0]@7809 at 9 000
        assert sorted(stops) == [1_500_000, 4_500_000, 4_500_000]


class TestDigest:
    @pytest.fixture
    def pmu(self):
        soc, pmu, drv = build_pmu_system(n_sort=12)
        drv.enable(0x3F)
        soc.sim.run_cycles(6_000)   # two loads in flight
        return soc, pmu

    def test_ignores_seq_and_packet_ids(self, pmu):
        soc, _pmu = pmu
        doc = checkpoint_document(soc.sim)
        base = canonical_digest(doc)

        renumbered = copy.deepcopy(doc)
        for section in renumbered["objects"].values():
            for entry in section["named_events"].values():
                if entry is not None:
                    entry[2] = 3 * entry[2] + 7
            for tagged in section["tagged_events"]:
                tagged["seq"] = 3 * tagged["seq"] + 7
        renumbered["eventq"]["seq"] *= 3
        assert renumbered != doc
        assert canonical_digest(renumbered) == base

        offset = copy.deepcopy(doc)
        inflight = offset["objects"]["cpu0"]["state"]["inflight"]
        assert inflight and offset["packets"], "no packet id to offset"
        offset["objects"]["cpu0"]["state"]["inflight"] = {
            str(int(k) + 1000): v for k, v in inflight.items()}
        for pkt in offset["packets"]:
            pkt["pkt_id"] += 1000
        offset["meta"]["next_pkt_id"] += 1000
        assert canonical_digest(offset) == base

    def test_ignores_an_attached_watchdog(self):
        def run(watched: bool) -> str:
            soc, _pmu, drv = build_pmu_system(n_sort=12)
            drv.enable(0x3F)
            soc.sim.startup()
            observers = ()
            if watched:
                wd = Watchdog(soc.sim, check_cycles=700)
                wd.init()
                wd.startup()
                observers = (wd.path(),)
            soc.sim.run_cycles(5_000)
            return canonical_digest(checkpoint_document(soc.sim), observers)

        assert run(True) == run(False)

    def test_sees_state(self, pmu):
        soc, pmu_obj = pmu
        doc = checkpoint_document(soc.sim)
        base = canonical_digest(doc)

        rtl = pmu_obj.library.sim
        assert FaultInjector._flip_on(rtl, "counters[0]", 22)
        assert canonical_digest(checkpoint_document(soc.sim)) != base
        FaultInjector._flip_on(rtl, "counters[0]", 22)
        assert canonical_digest(checkpoint_document(soc.sim)) == base

        stat = copy.deepcopy(doc)
        stat["stats"]["children"]["cpu0"]["stats"]["committed"]["value"] += 1
        assert canonical_digest(stat) != base

        moved = copy.deepcopy(doc)
        moved["objects"]["cpu0"]["named_events"]["cycle"][0] += 500
        assert canonical_digest(moved) != base


class TestRefusal:
    def test_no_stop_with_watchdog_strikes(self, camp_env, monkeypatch,
                                           stops):
        baseline = _report(camp_env, monkeypatch, False, cache="cache-off",
                           **BENCH)
        monkeypatch.setattr(Watchdog, "strikes", property(lambda self: 1))
        struck = _report(camp_env, monkeypatch, True, cache="cache-on",
                         **BENCH)
        assert stops == []
        assert struck == baseline

    def test_no_stop_below_the_grid_step(self, camp_env, monkeypatch,
                                         stops):
        on, off = _on_off(camp_env, monkeypatch, watchdog_interval=1_000,
                          **BENCH)
        assert stops == []
        assert on == off


def test_seeded_wrong_canonicalisation_is_caught(camp_env, monkeypatch):
    """Dropping the PMU's counters from the compared state lets the
    counters[0][22] flip (an SDC) stop as masked: the reports differ."""
    counters = get_target("pmu").module(BENCH["params"]) \
        .memories["counters"].index
    right = campaign.canonical_digest

    def wrong(doc, observers=()):
        doc = copy.deepcopy(doc)
        doc["objects"]["pmu"]["state"]["library"]["mems"][counters] = []
        return right(doc, observers)

    monkeypatch.setattr(campaign, "canonical_digest", wrong)
    on, off = _on_off(camp_env, monkeypatch, **BENCH)
    assert on != off
