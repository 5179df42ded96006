"""One command for the whole benchmark.

    python3 benchmarks/e2e/run.py [--workload W] [--seed N] [--seconds S]
                                  [--trace 0|1] [--quick] [--workdir D]

(equivalently ``PYTHONPATH=src python -m benchmarks.e2e.run``). Without
``--workload`` every workload runs, each in a fresh child process. With
it, this process *is* the fresh process: it pins itself to one CPU,
measures, checks every output, prints every metric by name with its unit
and ends with one JSON line (``correct``/``attempted``/``failed``/
``metrics``). ``--trace 0`` prints the end-to-end metrics, ``--trace 1``
the per-layer ones (a separate, slower run with the layer probes on).
The exit status is non-zero when any operation failed.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import threading
import _thread
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]


def _use_checkout_sources() -> None:
    """Import ``repro`` from this checkout's ``src`` and nowhere else: a
    copy installed elsewhere would be a different program."""
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    if not (ROOT / "src" / "repro").is_dir():
        sys.exit(f"{ROOT / 'src' / 'repro'}: no program to measure here")


def _with_one_malloc_arena() -> None:
    """Re-exec once with ``MALLOC_ARENA_MAX=1``. glibc gives every thread
    its own arena, and which buffers land in which arena depends on
    thread timing: peak RSS of the 2-rank workloads moved by 17 % from
    run to run; with one arena (and one CPU, so no lock contention to
    speak of) by under 4 %."""
    if os.environ.get("MALLOC_ARENA_MAX") != "1":
        os.environ["MALLOC_ARENA_MAX"] = "1"
        os.execv(sys.executable, [sys.executable, *sys.orig_argv[1:]])


def locks_are_instrumented() -> bool:
    """Whether something (the repo's lockdep witness, say) has replaced
    ``threading.Lock``: every lock operation would then pay for it."""
    return threading.Lock is not _thread.allocate_lock


def _definition() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        return json.load(handle)


def _parse(argv: list[str] | None) -> argparse.Namespace:
    from benchmarks.e2e.workloads import BY_NAME, RUN_SECONDS

    parser = argparse.ArgumentParser(prog="benchmarks.e2e.run")
    parser.add_argument("--workload", choices=sorted(BY_NAME))
    parser.add_argument("--seed", type=int, default=13)
    parser.add_argument(
        "--seconds", type=int, default=RUN_SECONDS,
        help="measuring time the round count is scaled to "
             f"(default {RUN_SECONDS}, the comparable setting)",
    )
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--traced", dest="trace", action="store_const", const=1,
        help="same as --trace 1",
    )
    parser.add_argument(
        "--quick", action="store_true",
        help="2 rounds, for smoke tests; NOT comparable with a full run",
    )
    parser.add_argument(
        "--workdir", type=Path,
        help="scratch directory (default: a fresh one under "
             "benchmarks/e2e/_work, removed afterwards)",
    )
    return parser.parse_args(argv)


def run_all(args: argparse.Namespace) -> int:
    """Every workload, each in its own child process."""
    from benchmarks.e2e.workloads import WORKLOADS

    status = 0
    results = {}
    for spec in WORKLOADS:
        command = [
            sys.executable, str(HERE / "run.py"), "--workload", spec.name,
            "--seed", str(args.seed), "--seconds", str(args.seconds),
            "--trace", str(args.trace),
        ]
        if args.quick:
            command.append("--quick")
        if args.workdir is not None:
            command += ["--workdir", str(args.workdir)]
        child = subprocess.run(
            command, stdout=subprocess.PIPE, text=True, check=False
        )
        sys.stdout.write(child.stdout)
        sys.stdout.flush()
        status = status or child.returncode
        lines = child.stdout.strip().splitlines()
        if child.returncode in (0, 1) and lines:
            results[spec.name] = json.loads(lines[-1])
    print(json.dumps(results))
    return status


def run_one(args: argparse.Namespace) -> int:
    from benchmarks.e2e import harness
    from benchmarks.e2e.workloads import BY_NAME, rounds_for

    _with_one_malloc_arena()
    if locks_are_instrumented():
        sys.exit("threading.Lock is instrumented (lockdep witness?): "
                 "numbers would not be comparable")
    definition = _definition()
    spec = BY_NAME[args.workload]
    rounds = rounds_for(spec, args.seconds, args.quick)
    cpu = harness.pin_to_one_cpu()
    base = args.workdir if args.workdir is not None else HERE / "_work"
    workdir = base / f"{spec.name}-seed{args.seed}-pid{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        bench = harness.Bench(spec, args.seed, workdir)
        if args.trace:
            from benchmarks.e2e import traced

            out_dir = HERE / "_out"
            out_dir.mkdir(exist_ok=True)
            values = traced.run_traced(
                bench, max(rounds // 4, 2),
                out_dir / f"ledger-{spec.name}.jsonl",
            )
            wanted = definition["per_layer"]
        else:
            values = bench.run_gated(rounds)
            wanted = definition["end_to_end"]
        values["host.pinned_cpu"] = float(cpu)
        fs_type = harness.filesystem_of(workdir)
        values["host.workdir_is_tmpfs"] = float(fs_type == "tmpfs")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    label = "quick, NOT comparable" if args.quick else "comparable"
    print(f"# {spec.name}: seed {args.seed}, {rounds} rounds ({label}), "
          f"cpu {cpu}, workdir on {fs_type}")
    units = {m["name"]: m["unit"] for m in wanted}
    for name in sorted(set(values) - set(units)):
        print(f"#   {name} = {values[name]:.6g}")
    metrics = {}
    for name, unit in units.items():
        value = values[name]  # KeyError: BENCHMARK.json names an unknown metric
        shown = "null (probe_missing)" if value is None else f"{value:.6g}"
        print(f"{spec.name} {name} = {shown} {unit}")
        metrics[name] = {"value": value, "unit": unit}
    print(f"{spec.name} ops_attempted = {bench.attempted} count")
    print(f"{spec.name} ops_failed = {bench.failed} count")
    if bench.first_error:
        print(f"# first failure: {bench.first_error}")
    print(json.dumps({
        "correct": bench.failed == 0,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": metrics,
    }))
    return 1 if bench.failed else 0


def main(argv: list[str] | None = None) -> int:
    _use_checkout_sources()
    args = _parse(argv)
    if args.workload is None:
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
