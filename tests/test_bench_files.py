"""The committed BENCH_*.json files of paired benchmark runs (tools/pair_bench.py) hold what they claim.

Each file's summaries are recomputed from its runs: the median and the quartiles (statistics.quantiles, n=4,
method "inclusive") of each side, the relative change of the medians and the pairs in which the head read
lower.  Every run must be correct, with no failed set, and must name the metrics of BENCHMARK.json.
"""

from __future__ import annotations

import json
import statistics
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
METRICS = {m["name"]: m["unit"] for m in BENCH["end_to_end"]}
WORKLOADS = {w["name"] for w in BENCH["workloads"]}
FILES = sorted(ROOT.glob("BENCH_*.json"))


def test_some_bench_file_is_committed():
    assert FILES


@pytest.mark.parametrize("path", FILES, ids=[path.name for path in FILES])
def test_each_bench_file_recomputes_from_its_runs(path):
    doc = json.loads(path.read_text(encoding="utf-8"))
    assert set(doc) == {"base", "head", "machine", "seconds", "seeds", "workloads"}
    assert isinstance(doc["base"]["rev"], str) and isinstance(doc["head"]["rev"], str)
    assert set(doc["machine"]) >= {"python", "nproc", "cpu"}
    assert doc["seconds"] > 0 and len(doc["seeds"]) >= 2
    assert doc["workloads"] and set(doc["workloads"]) <= WORKLOADS
    for workload, entry in doc["workloads"].items():
        runs = entry["runs"]
        assert [run["seed"] for run in runs] == doc["seeds"], workload
        for run in runs:
            assert run["first"] in {"base", "head"}
            for side in ("base", "head"):
                assert run[side]["correct"] is True and run[side]["failed"] == 0, (workload, run["seed"], side)
                assert run[side]["attempted"] > 0
                assert set(run[side]["metrics"]) == set(METRICS)
        assert set(entry["summary"]) == set(METRICS)
        for metric, summary in entry["summary"].items():
            values = {side: [run[side]["metrics"][metric] for run in runs] for side in ("base", "head")}
            want = {"unit": METRICS[metric], "pairs": len(runs),
                    "pairs_lower": sum(h < b for b, h in zip(values["base"], values["head"]))}
            for side, xs in values.items():
                q1, _, q3 = statistics.quantiles(xs, n=4, method="inclusive")
                want.update({f"{side}_median": statistics.median(xs), f"{side}_q1": q1, f"{side}_q3": q3})
            want["change"] = want["head_median"] / want["base_median"] - 1
            assert summary.keys() == want.keys(), (workload, metric)
            for key, value in want.items():
                assert summary[key] == (value if key == "unit" else pytest.approx(value, rel=1e-12)), (metric, key)


def test_the_first_run_alternates_from_pair_to_pair():
    for path in FILES:
        for workload, entry in json.loads(path.read_text(encoding="utf-8"))["workloads"].items():
            firsts = [run["first"] for run in entry["runs"]]
            assert all(a != b for a, b in zip(firsts, firsts[1:])), (path.name, workload)
