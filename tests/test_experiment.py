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


#: each experiment command's record, and the request key its flags'
#: argparse dests stand for
COMMANDS = {
    "fig5": ("pmu_fig5", {"n": "n", "intervals": "intervals"}),
    "table2": ("table2", {"sizes": "sizes"}),
    "dse": ("dse", {"workload": "workload", "nvdla": "n_nvdla",
                    "inflight": "inflight", "memories": "memories",
                    "scale": "scale"}),
    "table3": ("table3", {}),
    "campaign": ("campaign", {
        "target": "target", "param": "params", "budget": "budget",
        "seed": "seed", "checkpoint_every": "checkpoint_every",
        "max_cycles": "max_cycles", "watchdog_interval": "watchdog_interval",
        "wall_timeout": "wall_timeout"}),
}


@pytest.mark.parametrize("command", sorted(COMMANDS))
def test_cli_defaults_are_the_records_defaults(command, tmp_path,
                                               monkeypatch):
    """A command run with no flags names the point a service request
    with no params names: one default, one cache key."""
    from repro.cli import build_parser

    monkeypatch.setenv("REPRO_CAMPAIGN_DIR", str(tmp_path / "camp"))
    name, dests = COMMANDS[command]
    argv = [command] + (["rtlcache"] if command == "campaign" else [])
    args = vars(build_parser().parse_args(argv))
    request = {key: args[dest] for dest, key in dests.items()}
    if command == "campaign":
        request["params"] = dict(request["params"])
    exp = experiment.get(name)
    want = {"target": "rtlcache"} if command == "campaign" else {}
    assert exp.normalize(request) == exp.normalize(want)


#: per record: a request with one unknown key, one of a wrong type and
#: one out of range, and the exact ``ValueError`` text serve returns as
#: its 400
BAD_REQUESTS = {
    "pmu_fig5": [
        ({"bogus": 1}, "pmu_fig5: unknown params ['bogus']"),
        ({"n": "x"}, "pmu_fig5: n must be int > 0, got 'x'"),
        ({"sleep_cycles": -1},
         "pmu_fig5: sleep_cycles must be int > -1, got -1"),
    ],
    "table2": [
        ({"bogus": 1, "zz": 2}, "table2: unknown params ['bogus', 'zz']"),
        ({"memory": 5}, "table2: memory must be one of ['DDR4-1ch', "
                        "'DDR4-2ch', 'DDR4-4ch', 'GDDR5', 'HBM', 'ideal'], "
                        "got 5"),
        ({"sizes": [60, 0]},
         "table2: sizes must be a list of int > 0, got [60, 0]"),
    ],
    "dse": [
        ({"inflights": [1]}, "dse: unknown params ['inflights']"),
        ({"inflight": "x"}, "dse: inflight must be a list of int > 0, "
                            "got 'x'"),
        ({"scale": 0}, "dse: scale must be float > 0, got 0"),
    ],
    "coherence": [
        ({"cores": 2}, "coherence: unknown params ['cores']"),
        ({"rtl": "yes"}, "coherence: rtl must be one of [False, True], "
                         "got 'yes'"),
        ({"ops": 0}, "coherence: ops must be int > 0, got 0"),
    ],
    "table3": [
        ({"workload": "x"}, "table3: unknown params ['workload']"),
        ({"scales": 3}, "table3: scales must be an object, got 3"),
        ({"scales": {"sanity3": 0}},
         "table3 scales: sanity3 must be float > 0, got 0"),
    ],
    "campaign": [
        ({"target": "rtlcache", "bogus": 1},
         "campaign: unknown params ['bogus']"),
        ({"target": "rtlcache", "budget": "x"},
         "campaign: budget must be int > 0, got 'x'"),
        ({"target": "rtlcache", "wall_timeout": 0},
         "campaign: wall_timeout must be float > 0, got 0"),
        ({"target": "rtlcache", "params": 3},
         "campaign: params must be an object, got 3"),
        ({}, "campaign: 'target' is required"),
    ],
}


@pytest.mark.parametrize("name, request_, message", [
    (name, request_, message) for name, cases in sorted(BAD_REQUESTS.items())
    for request_, message in cases])
def test_bad_request_text_is_pinned(name, request_, message):
    with pytest.raises(ValueError) as err:
        experiment.get(name).normalize(dict(request_))
    assert str(err.value) == message
