"""The ``campaign`` job kind: fault campaigns as a service.

Submitting a campaign must stream one ``triage`` event per experiment
(in point order, cache hits included — a resumed campaign replays its
triage log) and assemble the same vulnerability report the CLI path
produces, byte for byte, because both key the shared cache on
``campaign_point`` fields.
"""

from __future__ import annotations

import asyncio
import json

import pytest

from repro.parallel.cache import ResultCache

from tests.serve.test_scheduler import make_scheduler, run, wait_terminal

BUDGET = 6
PARAMS = {"target": "rtlcache", "budget": BUDGET, "seed": 1}


@pytest.fixture
def camp_env(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CAMPAIGN_DIR", str(tmp_path / "camp"))
    return tmp_path


def _submit(tmp_path, cache_dir="cache"):
    async def main():
        sched = make_scheduler(
            tmp_path, cache=ResultCache(root=tmp_path / cache_dir)
        )
        sched.start()
        try:
            job = sched.submit("alice", "campaign", dict(PARAMS))
            done = await wait_terminal(sched, job.id)
            assert done.state == "done"
            triage = [e for e in done.events if e.type == "triage"]
            return done.payload, triage, done.params
        finally:
            await sched.close()
    return run(main())


class TestCampaignKind:
    def test_streams_one_triage_event_per_experiment(self, camp_env):
        payload, triage, params = _submit(camp_env)
        assert len(triage) == BUDGET
        assert [e.data["point_index"] for e in triage] == list(range(BUDGET))
        for event, exp in zip(triage, payload["experiments"]):
            assert event.data["signal"] == exp["signal"]
            assert event.data["bit"] == exp["bit"]
            assert event.data["cycle"] == exp["cycle"]
            assert event.data["outcome"] == exp["outcome"]
        # normalize filled the per-target defaults into the params
        assert params["checkpoint_every"] > 0
        assert params["params"]["ecc"] is False

    def test_cache_hits_still_stream_triage(self, camp_env):
        first, triage_a, _ = _submit(camp_env)
        second, triage_b, _ = _submit(camp_env)   # same cache: all hits
        assert len(triage_b) == BUDGET
        assert [e.data for e in triage_a] == [e.data for e in triage_b]
        assert json.dumps(first, sort_keys=True) == \
            json.dumps(second, sort_keys=True)

    def test_matches_cli_report_bytes(self, camp_env):
        from repro.resilience.campaign import render_report, run_campaign

        payload, _, _ = _submit(camp_env)
        direct = run_campaign(
            "rtlcache", budget=BUDGET, seed=1,
            cache=ResultCache(root=camp_env / "cache"),
        )
        assert render_report(payload) == render_report(direct)

    def test_bad_campaign_params_rejected_at_submit(self, camp_env):
        async def main():
            sched = make_scheduler(camp_env)
            try:
                with pytest.raises(ValueError, match="target"):
                    sched.submit("alice", "campaign", {"budget": 4})
                with pytest.raises(ValueError, match="unknown"):
                    sched.submit("alice", "campaign",
                                 {"target": "rtlcache", "bogus": 1})
                with pytest.raises(ValueError, match="must be an object"):
                    sched.submit("alice", "campaign",
                                 {"target": "rtlcache", "params": [1]})
            finally:
                await sched.close()
        run(main())
