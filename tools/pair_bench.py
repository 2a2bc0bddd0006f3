"""Paired benchmark runs of the parent revision against the working tree, written as one BENCH_*.json file.

Run from anywhere in a source checkout:

    python3 tools/pair_bench.py --out BENCH_change.json --seeds 1 2 3 4 5 --seconds 10

For each seed and workload it runs `perfbench/run.py --trace 0` once in a temporary export of the base
and once in the working tree, the head, alternating which of the two runs first from one seed to the
next, and deletes the export afterwards.  The base is the parent of the working tree's change: HEAD when
the tree has uncommitted changes, else HEAD^.  It is exported by `git archive`, so nothing is written
into .git.  Each tree compiles its modules into its own fresh bytecode cache (PYTHONPYCACHEPREFIX), so
neither starts with a warm one.  Progress goes to standard error.

The file holds both revisions, the machine line, the run length, and per workload every run's end-to-end
metrics with its `correct`, `attempted` and `failed`, then per metric the median and quartiles of each side
(statistics.quantiles, n=4, method "inclusive"), the relative change of the medians (head / base - 1) and
the number of pairs in which the working tree read lower.  tests/test_bench_files.py recomputes every
summary from the runs.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("base", "head")


def summarize(runs: list[dict], metric: str) -> dict:
    """Medians, quartiles, relative change and pairs lower of one metric over paired runs."""
    values = {side: [run[side]["metrics"][metric] for run in runs] for side in SIDES}
    out: dict = {}
    for side in SIDES:
        q1, _, q3 = statistics.quantiles(values[side], n=4, method="inclusive")
        out.update({f"{side}_median": statistics.median(values[side]), f"{side}_q1": q1, f"{side}_q3": q3})
    out["change"] = out["head_median"] / out["base_median"] - 1
    out["pairs_lower"] = sum(h < b for b, h in zip(values["base"], values["head"]))
    out["pairs"] = len(runs)
    return out


def git(*args: str) -> str:
    return subprocess.run(["git", "-C", str(ROOT), *args], check=True, capture_output=True,
                          text=True).stdout.strip()


def run_bench(tree: Path, pycache: Path, workload: str, seed: int, seconds: float) -> tuple[dict, dict]:
    """(info line, result line) of one perfbench run in tree."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    env["PYTHONPYCACHEPREFIX"] = str(pycache)
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(cmd, cwd=tree, env=env, capture_output=True, text=True)
    if done.returncode != 0:
        raise SystemExit(f"pair_bench: {' '.join(cmd)} in {tree} exited {done.returncode}:\n{done.stderr}")
    info, result = (json.loads(line) for line in done.stdout.strip().splitlines()[-2:])
    return info, result


def main(argv=None) -> int:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        bench = json.load(fh)
    names = [w["name"] for w in bench["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--out", required=True, type=Path, help="the BENCH_*.json file to write")
    ap.add_argument("--workloads", nargs="+", choices=names, default=names)
    ap.add_argument("--seeds", nargs="+", type=int, required=True, help="at least two; one pair each")
    ap.add_argument("--seconds", type=float, default=bench["run_seconds"])
    args = ap.parse_args(argv)
    if len(args.seeds) < 2:
        ap.error("--seeds needs at least two seeds for quartiles")

    head = {"rev": git("rev-parse", "HEAD"), "uncommitted_changes": bool(git("status", "--porcelain"))}
    base_rev = git("rev-parse", "HEAD" if head["uncommitted_changes"] else "HEAD^")
    runs: dict[str, list[dict]] = {w: [] for w in args.workloads}
    machine = None
    with tempfile.TemporaryDirectory(prefix="pair_bench-") as tmp:
        trees = {"base": Path(tmp) / "base", "head": ROOT}
        trees["base"].mkdir()
        archive = subprocess.run(["git", "-C", str(ROOT), "archive", base_rev], check=True,
                                 capture_output=True).stdout
        subprocess.run(["tar", "-x", "-C", str(trees["base"])], input=archive, check=True)
        for i, seed in enumerate(args.seeds):
            order = SIDES if i % 2 == 0 else SIDES[::-1]
            for workload in args.workloads:
                pair: dict = {"seed": seed, "first": order[0]}
                for side in order:
                    info, result = run_bench(trees[side], Path(tmp) / f"pycache-{side}", workload, seed,
                                             args.seconds)
                    machine = machine or info["machine"]
                    pair[side] = {
                        "correct": result["correct"],
                        "attempted": result["attempted"],
                        "failed": result["failed"],
                        "metrics": {name: m["value"] for name, m in result["metrics"].items()},
                    }
                    print(f"pair_bench: {workload} seed {seed} {side}: pass_s "
                          f"{pair[side]['metrics']['pass_s']:.4f}, correct {result['correct']}", file=sys.stderr)
                runs[workload].append(pair)

    units = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    doc = {
        "base": {"rev": base_rev},
        "head": head,
        "machine": machine,
        "seconds": args.seconds,
        "seeds": args.seeds,
        "workloads": {
            w: {
                "runs": runs[w],
                "summary": {m: {"unit": units[m], **summarize(runs[w], m)} for m in units},
            }
            for w in args.workloads
        },
    }
    args.out.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
