"""Fault-injection campaign benchmark: throughput and the ECC payoff.

Runs seeded campaigns on the plain and parity-protected RTL caches and
writes the per-signal vulnerability comparison as an artifact — the
headline claim is the hardened variant turning silent data corruptions
into detected-and-corrected refetches.
"""

from __future__ import annotations

import json

from conftest import FAST, write_artifact

from repro.parallel.cache import ResultCache
from repro.resilience.campaign import render_report, run_campaign

BUDGET = 16 if FAST else 48
SEED = 3


def _campaign(target: str, tmp_path_factory, jobs: int = 2) -> dict:
    cache = ResultCache(
        root=tmp_path_factory.mktemp(f"campaign-{target}-cache")
    )
    return run_campaign(target, budget=BUDGET, seed=SEED, jobs=jobs,
                        cache=cache)


def test_campaign_ecc_comparison(benchmark, artifact, tmp_path_factory,
                                 monkeypatch):
    monkeypatch.setenv(
        "REPRO_CAMPAIGN_DIR",
        str(tmp_path_factory.mktemp("campaign-root")),
    )

    def run():
        return {
            "plain": _campaign("rtlcache", tmp_path_factory),
            "ecc": _campaign("rtlcache_ecc", tmp_path_factory),
        }

    reports = benchmark.pedantic(run, rounds=1, iterations=1)
    plain, ecc = reports["plain"], reports["ecc"]

    lines = [
        f"Fault campaign — rtlcache vs rtlcache_ecc "
        f"({BUDGET} experiments each, seed {SEED})",
        f"{'outcome':<20}{'plain':>8}{'ecc':>8}",
    ]
    for outcome in plain["histogram"]:
        lines.append(f"{outcome:<20}{plain['histogram'][outcome]:>8}"
                     f"{ecc['histogram'][outcome]:>8}")
    lines.append(f"{'AVF':<20}{plain['avf']:>8.4f}{ecc['avf']:>8.4f}")
    write_artifact("campaign_ecc.txt", "\n".join(lines))
    write_artifact("campaign_plain_report.json",
                   render_report(plain).rstrip("\n"))
    write_artifact("campaign_ecc_report.json",
                   render_report(ecc).rstrip("\n"))

    # the hardened design strictly lowers the silent-corruption rate and
    # actually exercises its correction path
    assert ecc["histogram"]["sdc"] < plain["histogram"]["sdc"]
    assert ecc["histogram"]["detected_corrected"] >= 1
    assert ecc["histogram"]["infra"] == plain["histogram"]["infra"] == 0


def test_campaign_determinism(benchmark, artifact, tmp_path_factory,
                              monkeypatch):
    """Serial and fanned-out runs of the same seed are byte-identical."""
    monkeypatch.setenv(
        "REPRO_CAMPAIGN_DIR",
        str(tmp_path_factory.mktemp("campaign-det-root")),
    )

    def run():
        serial = _campaign("rtlcache", tmp_path_factory, jobs=1)
        fanned = _campaign("rtlcache", tmp_path_factory, jobs=2)
        return render_report(serial), render_report(fanned)

    serial, fanned = benchmark.pedantic(run, rounds=1, iterations=1)
    assert serial == fanned
    digest = json.loads(serial)["histogram"]
    write_artifact(
        "campaign_determinism.txt",
        f"campaign determinism: serial == jobs=2 "
        f"({BUDGET} experiments, seed {SEED})\n"
        f"histogram: {json.dumps(digest, sort_keys=True)}",
    )
