#!/usr/bin/env python3
"""Run ABBA pairs of the benchmark between two checkouts and judge them.

Usage:
    python3 scripts/abba_pairs.py PARENT CHANGE --workload affine_roundtrip \\
        --seeds 9501-9510 [--seconds 10] [--claim items_per_s] [--out BENCH_x.json]

PARENT and CHANGE are the roots of two checkouts.  Pair i runs
``python3 perfbench/run.py --workload W --seed s_i --seconds S`` in each of
them, the parent first in pairs 1, 3, 5, ... and the change first in the
others.  Each run's end-to-end metrics are printed as it ends.  At the end,
for every metric of BENCHMARK.json's ``end_to_end`` list (read from
CHANGE), it prints each side's quartiles, the pairs the change won (ties
count for neither) and whether the change's median is within the metric's
bound.  For the --claim metric it prints the verdict of the gain rule: the
change wins at least nine tenths of the pairs, and the medians differ, in
the better direction, by more than the distance between the parent's
quartiles.  With --out, the pairs are written into that JSON file under
``workloads.<W>`` (and the verdict under ``claim_check.<W>``), keeping the
file's other keys.
"""

from __future__ import annotations

import argparse
import json
import math
import statistics
import subprocess
import sys
from pathlib import Path


def seed_list(spec: str) -> list[int]:
    """'9501-9510' or '9501,9503,9507'."""
    if "-" in spec:
        lo, hi = map(int, spec.split("-"))
        return list(range(lo, hi + 1))
    return [int(s) for s in spec.split(",")]


def run_once(root: Path, workload: str, seed: int, seconds: float) -> dict:
    """One benchmark run in the checkout at root: its last output line."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds)]
    proc = subprocess.run(cmd, cwd=root, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{root}: {' '.join(cmd)} exited with {proc.returncode}\n"
                         f"{proc.stderr}")
    return json.loads(lines[-1])


def quartiles(values: list[float]) -> dict[str, float]:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"q1": round(q1, 4), "median": round(median, 4), "q3": round(q3, 4)}


def judge(metric: dict, parent: list[float], change: list[float]) -> dict:
    """Quartiles, wins and the bound check of one end-to-end metric."""
    sign = 1 if metric["better"] == "higher" else -1
    p, c = quartiles(parent), quartiles(change)
    ratio = c["median"] / p["median"]
    worse_by = sign * (1 - ratio)   # the change's median, worse by this share
    return {
        "parent": p,
        "change": c,
        "change_better_pairs": sum(sign * (b - a) > 0 for a, b in zip(parent, change)),
        "ratio_of_medians": round(ratio, 4),
        "bound": metric["bound"],
        "within_bound": worse_by <= metric["bound"],
        "parent_runs": [round(x, 4) for x in parent],
        "change_runs": [round(x, 4) for x in change],
    }


def claim_check(metric: dict, judged: dict, pairs: int) -> dict:
    """The gain rule: at least nine tenths of the pairs won, and a median
    difference in the better direction beyond the parent's spread."""
    sign = 1 if metric["better"] == "higher" else -1
    p, c = judged["parent"], judged["change"]
    difference = sign * (c["median"] - p["median"])
    spread = p["q3"] - p["q1"]
    return {
        "change_better_pairs": judged["change_better_pairs"],
        "pairs": pairs,
        "median_parent": p["median"],
        "median_change": c["median"],
        "ratio_of_medians": judged["ratio_of_medians"],
        "median_difference": round(difference, 4),
        "parent_interquartile_distance": round(spread, 4),
        "met": (judged["change_better_pairs"] >= math.ceil(0.9 * pairs)
                and difference > spread),
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("parent", type=Path)
    ap.add_argument("change", type=Path)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", required=True, type=seed_list)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--claim", help="the end-to-end metric a gain is claimed on")
    ap.add_argument("--out", type=Path, help="BENCH_*.json file to write the pairs into")
    args = ap.parse_args(argv)

    metrics = json.loads((args.change / "BENCHMARK.json").read_text())["end_to_end"]
    sides = {"parent": args.parent, "change": args.change}
    runs: dict[str, list[dict]] = {"parent": [], "change": []}
    for i, seed in enumerate(args.seeds):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        for side in order:
            result = run_once(sides[side], args.workload, seed, args.seconds)
            runs[side].append(result)
            values = " ".join(f"{m['name']}={result['metrics'][m['name']]['value']:.4g}"
                              for m in metrics)
            print(f"pair {i + 1} seed {seed} {side:6} correct={result['correct']} "
                  f"attempted={result['attempted']} failed={result['failed']} {values}",
                  flush=True)

    record = {
        "seeds": f"{args.seeds[0]}-{args.seeds[-1]}"
                 if args.seeds == list(range(args.seeds[0], args.seeds[-1] + 1))
                 else ",".join(map(str, args.seeds)),
        "pairs": len(args.seeds),
        "seconds": args.seconds,
        "order": "ABBA: the parent runs first in pairs 1, 3, 5, ...",
        "all_correct": all(r["correct"] for side in runs.values() for r in side),
        "failed": {side: sum(r["failed"] for r in rs) for side, rs in runs.items()},
        "attempted": {side: sum(r["attempted"] for r in rs) for side, rs in runs.items()},
    }
    verdict = None
    for metric in metrics:
        name = metric["name"]
        values = {side: [r["metrics"][name]["value"] for r in rs] for side, rs in runs.items()}
        record[name] = judged = judge(metric, values["parent"], values["change"])
        print(f"{args.workload} {name}: parent {judged['parent']} change {judged['change']} "
              f"ratio {judged['ratio_of_medians']} wins {judged['change_better_pairs']}/"
              f"{len(args.seeds)} within bound {judged['bound']}: {judged['within_bound']}")
        if name == args.claim:
            verdict = claim_check(metric, judged, len(args.seeds))
    print(f"all runs correct: {record['all_correct']}; failed {record['failed']}")
    if verdict is not None:
        print(f"claim on {args.claim}: {json.dumps(verdict)}")

    if args.out:
        data = json.loads(args.out.read_text()) if args.out.exists() else {}
        data.setdefault("workloads", {})[args.workload] = record
        if verdict is not None:
            data.setdefault("claim_check", {})[args.workload] = {args.claim: verdict}
        args.out.write_text(json.dumps(data, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
