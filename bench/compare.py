"""Compare two benchmark results: ``python3 bench/compare.py A B``.

A and B are ``bench/out/results.json`` files or lines of a
``bench/history/*.jsonl`` file (``FILE.jsonl`` is its last line,
``FILE.jsonl:N`` line N, counting from 0 or back from -1); A is the
base.  One row per (workload, end-to-end metric) the workload has: base,
new, ratio with its base, the metric's bound and a verdict:

    improved    better than the base by more than the bound
    unchanged   within the bound
    regressed   worse than the base by more than the bound
    unresolved  the repeats of either run leave its median uncertain by
                more than the bound (quartile distance / sqrt(n)), so the
                pair cannot tell a change from noise

Exit status 1 if any row is ``regressed`` or ``unresolved``, or if a
workload's ``sim_digest`` differs between the two.
"""

from __future__ import annotations

import json
import pathlib
import sys

import harness


def load(spec: str) -> dict:
    """``{workload: end-to-end result}`` from a results file or history line."""
    path, _, index = spec.partition(":")
    text = pathlib.Path(path).read_text(encoding="utf-8")
    if path.endswith(".jsonl"):
        text = text.splitlines()[int(index or -1)]
    doc = json.loads(text)
    results = doc["results"] if isinstance(doc, dict) else doc
    return {r["workload"]: r for r in results if r["trace"] == 0}


def verdict(base: float, new: float, better: str, bound: float,
            spread: float) -> str:
    if spread > bound:
        return "unresolved"
    worse = (new - base) / base if better == "lower" else (base - new) / base
    if worse > bound:
        return "regressed"
    if worse < -bound:
        return "improved"
    return "unchanged"


def compare(spec_a: str, spec_b: str) -> int:
    metrics = (*harness.load_spec()["end_to_end"], *harness.WORKLOAD_METRICS)
    base, new = load(spec_a), load(spec_b)
    bad = 0
    print(f"{'workload':<18}{'metric':<20}{'base':>12}{'new':>12}"
          f"{'new/base':>10}{'bound':>7}{'spread':>8}  verdict")
    for workload in base:
        if workload not in new:
            continue
        a, b = base[workload], new[workload]
        for metric in metrics:
            name = metric["name"]
            va, vb = a["values"].get(name), b["values"].get(name)
            if va is None or vb is None:
                continue  # the workload has no such quantity
            spread = max(a["spread"].get(name, 0.0), b["spread"].get(name, 0.0))
            word = verdict(va, vb, metric["better"], metric["bound"], spread)
            bad += word in ("regressed", "unresolved")
            print(f"{workload:<18}{name:<20}{va:>12.4f}{vb:>12.4f}"
                  f"{vb / va:>9.3f}x{metric['bound']:>7.2f}{spread:>8.3f}  {word}")
        if a["sim_digest"] != b["sim_digest"]:
            bad += 1
            print(f"{workload:<18}sim_digest differs: simulated results changed")
        if a["failed"] or b["failed"]:
            bad += 1
            print(f"{workload:<18}failed operations: base {a['failed']}, "
                  f"new {b['failed']}")
    return 1 if bad else 0


if __name__ == "__main__":
    if len(sys.argv) != 3:
        sys.exit(__doc__)
    sys.exit(compare(sys.argv[1], sys.argv[2]))
