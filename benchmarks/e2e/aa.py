"""A/A self-check: does the benchmark agree with itself?

    python3 benchmarks/e2e/aa.py --sets 2 --runs 5

Runs the full gated benchmark ``sets`` x ``runs`` times on the same
tree, the sets interleaved (A1 B1 A2 B2 ...) so host drift hits them
alike, run *i* of every set on seed ``--seed + i``. For every
(workload, end-to-end metric) it prints each set's median, the largest
relative difference between two sets' medians, each set's spread
(interquartile range over median, what the acceptance driver looks at)
and the metric's bound from BENCHMARK.json; exits non-zero when a
difference exceeds its bound or an operation failed; and writes
``AA_RESULTS.md`` beside this file.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]


def _run(workload: str, seed: int, seconds: int) -> dict:
    child = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        stdout=subprocess.PIPE, text=True, check=False,
    )
    lines = child.stdout.strip().splitlines()
    if child.returncode not in (0, 1) or not lines:
        sys.exit(f"{workload} seed {seed}: exit {child.returncode}, no result")
    return json.loads(lines[-1])


def _spread(values: list[float]) -> float:
    q1, _median, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main(argv: list[str] | None = None) -> int:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        definition = json.load(handle)
    parser = argparse.ArgumentParser(prog="benchmarks.e2e.aa")
    parser.add_argument("--sets", type=int, default=2)
    parser.add_argument("--runs", type=int, default=5)
    parser.add_argument("--seed", type=int, default=13)
    parser.add_argument("--seconds", type=int,
                        default=definition["run_seconds"])
    args = parser.parse_args(argv)

    workloads = [w["name"] for w in definition["workloads"]]
    metrics = definition["end_to_end"]
    # results[set][workload] -> list of per-run result objects
    results = [{w: [] for w in workloads} for _ in range(args.sets)]
    started = time.time()
    for run in range(args.runs):
        for index in range(args.sets):
            for workload in workloads:
                result = _run(workload, args.seed + run, args.seconds)
                results[index][workload].append(result)
                print(f"set {index} run {run} {workload}: "
                      f"failed {result['failed']}/{result['attempted']}",
                      flush=True)

    failed_ops = sum(
        r["failed"] for per_set in results for runs in per_set.values()
        for r in runs
    )
    breaches = []
    rows = []
    for workload in workloads:
        for metric in metrics:
            name, bound = metric["name"], metric["bound"]
            per_set = [
                [r["metrics"][name]["value"] for r in results[i][workload]]
                for i in range(args.sets)
            ]
            medians = [statistics.median(values) for values in per_set]
            difference = (max(medians) - min(medians)) / min(medians)
            spreads = [
                _spread(values) if len(values) > 1 else 0.0
                for values in per_set
            ]
            verdict = "ok" if difference <= bound else "BREACH"
            if verdict == "BREACH":
                breaches.append((workload, name))
            rows.append((workload, name, metric["unit"], medians,
                         difference, spreads, bound, verdict))

    lines = [
        "# A/A results: two sets of runs of the same tree",
        "",
        f"`python3 benchmarks/e2e/aa.py --sets {args.sets} --runs "
        f"{args.runs} --seed {args.seed} --seconds {args.seconds}`, "
        f"{time.strftime('%Y-%m-%d')}, {time.time() - started:.0f} s.",
        "",
        f"Host: {platform.platform()}, {os.cpu_count()} CPUs, "
        f"Python {platform.python_version()}; each run pinned to one CPU, "
        "scratch data inside the checkout (not tmpfs).",
        "",
        f"Operations failed, all runs: **{failed_ops}**. "
        f"Breaches: **{len(breaches)}**.",
        "",
        "`diff` is the largest relative difference between two sets' "
        "medians; `spread` is each set's interquartile range over its "
        "median.",
        "",
        "| workload | metric | unit | "
        + " | ".join(f"median {chr(65 + i)}" for i in range(args.sets))
        + " | diff | spread per set | bound | |",
        "|---|---|---|" + "---|" * args.sets + "---|---|---|---|",
    ]
    for workload, name, unit, medians, difference, spreads, bound, verdict in rows:
        lines.append(
            f"| {workload} | {name} | {unit} | "
            + " | ".join(f"{m:.6g}" for m in medians)
            + f" | {difference:.2%} | "
            + " / ".join(f"{s:.2%}" for s in spreads)
            + f" | {bound:.1%} | {verdict} |"
        )
    report = "\n".join(lines) + "\n"
    print(report)
    (HERE / "AA_RESULTS.md").write_text(report, encoding="utf-8")
    return 1 if breaches or failed_ops else 0


if __name__ == "__main__":
    sys.exit(main())
