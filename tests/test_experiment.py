"""One catalogue, one answer.

Every experiment is one record in :mod:`repro.experiment`; the CLI runs
it through :func:`repro.experiment.run` and the service through the
scheduler.  Both must key a point the same way and assemble the same
payload from it.
"""

from __future__ import annotations

import json

import pytest

from repro import experiment
from repro.parallel.cache import ResultCache

from tests.serve.test_scheduler import make_scheduler, run, wait_terminal
from tests.test_footprint import _loaded

#: tiny params for every cacheable record
TINY = {
    "campaign": {"target": "rtlcache", "budget": 3, "seed": 1},
    "coherence": {"sharers": [1, 2], "ops": 40},
    "dse": {"workload": "sanity3", "n_nvdla": 1, "inflight": [8],
            "memories": ["HBM"], "scale": 0.1},
    "pmu_fig5": {"n": 12, "intervals": [2000], "sleep_cycles": 2000},
}


@pytest.mark.parametrize("name", sorted(TINY))
def test_scheduler_payload_is_runs_payload(name, tmp_path, monkeypatch):
    """A point run by :func:`experiment.run` is a cache hit for the
    scheduler, and the job's payload is byte-identical to run's."""
    monkeypatch.setenv("REPRO_CAMPAIGN_DIR", str(tmp_path / "camp"))
    cache = ResultCache(root=tmp_path / "cache")
    direct = experiment.run(experiment.get(name), TINY[name], cache=cache)

    async def main():
        sched = make_scheduler(tmp_path, cache=cache)
        sched.start()
        try:
            job = sched.submit("alice", name, TINY[name])
            return await wait_terminal(sched, job.id)
        finally:
            await sched.close()

    job = run(main())
    assert job.state == "done", job.error
    assert job.executed_points == 0
    assert job.cache_hits == len(job.points)
    assert json.dumps(job.payload, sort_keys=True) == \
        json.dumps(direct, sort_keys=True)


def test_names_lists_every_record_without_importing_one(tmp_path):
    mods = _loaded("""
        from repro import experiment
        assert experiment.names() == ["campaign", "coherence", "dse",
                                      "pmu_fig5", "table2", "table3"]
    """, tmp_path)
    assert mods == {"repro", "repro.experiment"}


def test_get_imports_only_the_records_module(tmp_path):
    mods = _loaded("""
        from repro import experiment
        assert experiment.get("dse").name == "dse"
    """, tmp_path)
    assert "repro.dse.sweep" in mods
    assert not any(m.startswith(("repro.resilience", "repro.parallel",
                                 "repro.serve")) for m in mods)


def test_unknown_name_is_a_value_error():
    with pytest.raises(ValueError, match="unknown experiment 'fig9'"):
        experiment.get("fig9")
