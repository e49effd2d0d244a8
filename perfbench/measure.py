#!/usr/bin/env python3
"""Repeat the benchmark over seeds and summarise each metric.

One set is one untraced run per seed per workload.  For every
end-to-end metric the summary gives the median, the quartiles (as
``statistics.quantiles(values, n=4)``), their distance over the median
(the spread the bounds are checked against) and, for the first baseline,
the highest percentile that has at least ten samples beyond it.

    python3 perfbench/measure.py --seeds 0-4 --workloads paper_serial
    python3 perfbench/measure.py --sets 2 --out perfbench/baseline.json

With ``--out``, every run's values are written too, so two sets can be
compared later.
"""

from __future__ import annotations

import argparse
import json
import math
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def parse_seeds(text: str) -> list[int]:
    seeds: list[int] = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def run_once(workload: str, seed: int, seconds: int) -> dict:
    out = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed",
         str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT,
        check=True,
        capture_output=True,
        text=True,
        timeout=900,
    )
    return json.loads(out.stdout.strip().splitlines()[-1])


def tail_percentile(values: list[float], beyond: int = 10) -> tuple[float, float] | None:
    """The highest whole percentile with at least ``beyond`` samples
    above it, and its value (nearest rank); ``None`` below 11 samples."""
    n = len(values)
    if n <= beyond:
        return None
    ordered = sorted(values)
    pct = math.floor(100 * (n - beyond) / n)
    rank = max(1, math.ceil(pct / 100 * n))
    return float(pct), ordered[rank - 1]


def summarise(values: list[float]) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"n": len(values), "median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", default="all")
    parser.add_argument("--seeds", default="0-9")
    parser.add_argument("--sets", type=int, default=1)
    parser.add_argument("--out", type=Path)
    args = parser.parse_args(argv)

    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = (
        [w["name"] for w in benchmark["workloads"]]
        if args.workloads == "all"
        else args.workloads.split(",")
    )
    seeds = parse_seeds(args.seeds)
    bounds = {m["name"]: m["bound"] for m in benchmark["end_to_end"]}

    runs: dict[str, list[list[dict]]] = {w: [] for w in names}
    all_correct = True
    for s in range(args.sets):
        for workload in names:
            results = []
            for seed in seeds:
                t = time.perf_counter()
                result = run_once(workload, seed, benchmark["run_seconds"])
                result["seed"] = seed
                result["host_s"] = time.perf_counter() - t
                all_correct &= result["correct"]
                results.append(result)
                print(f"set {s} {workload} seed {seed}: correct={result['correct']} "
                      f"failed={result['failed']}/{result['attempted']} "
                      f"({result['host_s']:.1f} s)", file=sys.stderr)
            runs[workload].append(results)

    report: dict = {"seeds": seeds, "sets": args.sets, "workloads": {}}
    for workload in names:
        rows = {}
        for metric in bounds:
            per_set = [
                [r["metrics"][metric]["value"] for r in results]
                for results in runs[workload]
            ]
            pooled = [v for values in per_set for v in values]
            row = {"sets": [summarise(v) for v in per_set]}
            tail = tail_percentile(pooled)
            row["pooled_n"] = len(pooled)
            row["pooled_median"] = statistics.median(pooled)
            row["tail"] = (
                {"percentile": tail[0], "value": tail[1]} if tail else None
            )
            if len(per_set) > 1:
                first, second = per_set[0], per_set[1]
                row["second_vs_first"] = (
                    statistics.median(second) / statistics.median(first) - 1.0
                )
            rows[metric] = row
            spreads = " ".join(f"{s['spread']:.3f}" for s in row["sets"])
            print(f"{workload:15s} {metric:24s} median {row['pooled_median']:12.4f} "
                  f"spread {spreads} bound {bounds[metric]}", file=sys.stderr)
        report["workloads"][workload] = {"metrics": rows, "runs": runs[workload]}
    report["all_correct"] = all_correct
    if args.out:
        args.out.write_text(json.dumps(report, indent=1) + "\n")
    return 0 if all_correct else 1


if __name__ == "__main__":
    sys.exit(main())
