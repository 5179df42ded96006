"""The pair campaign: two checkouts, N alternating runs, one verdict rule.

    python3 benchmarks/pairs.py PARENT CHANGE --pairs 10 --seed 13
                                [--workload W] [--quick] [--out FILE.jsonl]

Runs the *unmodified* ``python3 benchmarks/e2e/run.py`` of each checkout
in turn (which side goes first alternates from pair to pair), appends
every run — its final JSON line plus the ``host.calib_ms`` each workload
printed — to a JSONL file, and prints, per workload and end-to-end
metric, both medians, both interquartile ranges, the pairs the change
won and the verdict of EXPERIMENTS.md "PR 17" applied literally:

- *unresolved* — either side's IQR exceeds the metric's bound (a share
  of the parent's median, from ``BENCHMARK.json``): the runs spread too
  widely to tell, whatever the medians say;
- *better* — the change wins at least nine tenths of the pairs (ties
  count for neither side) and the medians differ by more than the
  parent's IQR;
- *worse* — the change's median is worse than the parent's by more than
  the bound;
- *within bound* — none of the above.

One file is one campaign: the summary covers every run in ``--out``, so
``--pairs 0`` re-prints the tables of a finished (or interrupted) one.
Standard library only; not collected by pytest; :func:`verdict` is pure
(``tests/bench_utils/test_pairs_verdict.py``).
"""

from __future__ import annotations

import argparse
import json
import re
import statistics
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path

BETTER, WITHIN, WORSE, UNRESOLVED = (
    "better", "within bound", "worse", "unresolved",
)
#: share of the pairs the change must win to be called better
WIN_SHARE = 0.9

_HEADER = re.compile(r"^# (\w+): seed ")
_CALIB = re.compile(r"^#\s+host\.calib_ms = (\S+)")


@dataclass(frozen=True)
class Verdict:
    """One (workload, metric) cell of a campaign."""

    verdict: str
    parent_median: float
    change_median: float
    parent_iqr: float
    change_iqr: float
    won: int  # pairs in which the change read better than the parent
    pairs: int
    #: every run of the change reads better than every run of the parent
    dominates: bool

    @property
    def delta(self) -> float:
        """Change of the median, as a share of the parent's."""
        if self.parent_median == 0:
            return 0.0
        return self.change_median / self.parent_median - 1.0


def _iqr(runs: list[float]) -> float:
    """Distance between the quartiles, as ``benchmarks/e2e`` takes them."""
    if len(runs) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(runs, n=4)
    return q3 - q1


def verdict(
    parent: list[float], change: list[float], *, higher_is_better: bool,
    bound: float,
) -> Verdict:
    """The rule of the module docstring over paired runs
    (``parent[i]`` and ``change[i]`` are pair *i*)."""
    if not parent or len(parent) != len(change):
        raise ValueError("need the same, non-zero, number of runs a side")
    sign = 1.0 if higher_is_better else -1.0
    parent_median = statistics.median(parent)
    change_median = statistics.median(change)
    parent_iqr, change_iqr = _iqr(parent), _iqr(change)
    won = sum(sign * (c - p) > 0 for p, c in zip(parent, change))
    gain = sign * (change_median - parent_median)
    allowed = bound * abs(parent_median)
    if max(parent_iqr, change_iqr) > allowed:
        name = UNRESOLVED
    elif won >= WIN_SHARE * len(parent) and gain > parent_iqr:
        name = BETTER
    elif -gain > allowed:
        name = WORSE
    else:
        name = WITHIN
    return Verdict(
        verdict=name,
        parent_median=parent_median, change_median=change_median,
        parent_iqr=parent_iqr, change_iqr=change_iqr,
        won=won, pairs=len(parent),
        dominates=(min(change) > max(parent) if higher_is_better
                   else max(change) < min(parent)),
    )


def parse_run(stdout: str, workload: str | None) -> dict:
    """``{"results": {workload: final JSON}, "calib_ms": {workload: ms}}``
    from what one ``run.py`` printed."""
    lines = stdout.strip().splitlines()
    final = json.loads(lines[-1])
    results = {workload: final} if workload else final
    calib: dict[str, float] = {}
    current = None
    for line in lines:
        header = _HEADER.match(line)
        if header:
            current = header.group(1)
        found = _CALIB.match(line)
        if found and current:
            calib[current] = float(found.group(1))
    return {"results": results, "calib_ms": calib}


def _run(checkout: Path, args: argparse.Namespace) -> dict:
    command = [sys.executable, "benchmarks/e2e/run.py",
               "--seed", str(args.seed)]
    if args.workload:
        command += ["--workload", args.workload]
    if args.quick:
        command.append("--quick")
    child = subprocess.run(
        command, cwd=checkout, stdout=subprocess.PIPE, text=True, check=False
    )
    if child.returncode not in (0, 1):  # 1 = some operation failed
        sys.exit(f"{checkout}: run.py exited {child.returncode}")
    return parse_run(child.stdout, args.workload)


def _fmt(value: float) -> str:
    return f"{value:,.0f}" if abs(value) >= 1000 else f"{value:.4g}"


def summarise(records: list[dict], definition: dict) -> list[str]:
    """The campaign's tables, one per workload, as printable lines."""
    by_pair: dict[int, dict[str, dict]] = {}
    for record in records:
        by_pair.setdefault(record["pair"], {})[record["side"]] = record
    pairs = [p for _, p in sorted(by_pair.items()) if len(p) == 2]
    lines: list[str] = []
    if not pairs:
        return ["no complete pair"]
    for workload in pairs[0]["parent"]["results"]:
        failed = {
            side: sum(p[side]["results"][workload]["failed"] for p in pairs)
            for side in ("parent", "change")
        }
        lines += [
            "",
            f"#### {workload} ({len(pairs)} pairs; ops_failed parent "
            f"{failed['parent']}, change {failed['change']})",
            "",
            "| metric | parent median (IQR) | change median (IQR) "
            "| Δ median | pairs won | bound | verdict |",
            "|---|---|---|---|---|---|---|",
        ]
        listed: list[str] = []
        for metric in definition["end_to_end"]:
            name = metric["name"]
            runs = {
                side: [
                    p[side]["results"][workload]["metrics"][name]["value"]
                    for p in pairs
                ]
                for side in ("parent", "change")
            }
            cell = verdict(
                runs["parent"], runs["change"],
                higher_is_better=metric["better"] == "higher",
                bound=metric["bound"],
            )
            note = ", every run better" if cell.dominates else ""
            lines.append(
                f"| `{name}` | {_fmt(cell.parent_median)} "
                f"({_fmt(cell.parent_iqr)}) | {_fmt(cell.change_median)} "
                f"({_fmt(cell.change_iqr)}) | {cell.delta:+.1%} | "
                f"{cell.won}/{cell.pairs} | {metric['bound']:.1%} | "
                f"{cell.verdict}{note} |"
            )
            if cell.verdict != WITHIN:
                listed.append(_listing(name, workload, pairs))
        lines += ["", *listed]
    return lines


def _listing(metric: str, workload: str, pairs: list[dict]) -> str:
    """Every run of a cell in pair order, with the ``host.calib_ms`` of
    each (``*`` = the change ran first)."""
    shown = []
    for pair in pairs:
        sides = []
        for side in ("parent", "change"):
            record = pair[side]
            value = record["results"][workload]["metrics"][metric]["value"]
            calib = record["calib_ms"].get(workload, float("nan"))
            sides.append(f"{_fmt(value)} ({calib:.2f})")
        star = "*" if pair["change"]["first"] else ""
        shown.append("→".join(sides) + star)
    return (f"- `{metric}`, parent→change (host.calib_ms): "
            + ", ".join(shown))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="benchmarks/pairs.py")
    parser.add_argument("parent", type=Path, help="checkout of the parent")
    parser.add_argument("change", type=Path, help="checkout of the change")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=13)
    parser.add_argument("--workload", help="one workload instead of all")
    parser.add_argument("--quick", action="store_true",
                        help="passed through to run.py: NOT comparable")
    parser.add_argument("--out", type=Path, default=Path("pairs.jsonl"),
                        help="JSONL file the runs are appended to")
    args = parser.parse_args(argv)
    checkouts = {"parent": args.parent.resolve(),
                 "change": args.change.resolve()}
    with open(checkouts["change"] / "BENCHMARK.json", encoding="utf-8") as fh:
        definition = json.load(fh)

    records: list[dict] = []
    if args.out.exists():
        with open(args.out, encoding="utf-8") as fh:
            records = [json.loads(line) for line in fh if line.strip()]
    start = 1 + max((r["pair"] for r in records), default=0)
    for pair in range(start, start + args.pairs):
        order = ("parent", "change") if pair % 2 else ("change", "parent")
        for side in order:
            record = {
                "pair": pair, "side": side, "first": side == order[0],
                "seed": args.seed, "quick": args.quick,
                **_run(checkouts[side], args),
            }
            records.append(record)
            with open(args.out, "a", encoding="utf-8") as fh:
                fh.write(json.dumps(record) + "\n")
            print(f"# pair {pair} {side}: done", file=sys.stderr)
    print("\n".join(summarise(records, definition)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
