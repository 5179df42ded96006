"""Tail latency under a gray failure — what hedged reads buy.

The same 3-rank store reads its full namespace under four regimes:
{healthy, one slow rank} × {hedging off, hedging on}, each twice: one
``read_file`` at a time, and in loader batches of 16 through
``read_files``, whose remote files ride one ``batch`` envelope per home
rank, hedged item by item. The slow rank (rank 2) delays every
data-plane reply by ``SLOW_S`` — it is alive, answers correctly, and
never trips the membership detector, so without hedging every one of
rank 1's remote reads eats the full delay. Latencies are collected on
the healthy ranks only (the slow rank's own reads are not the
phenomenon under test), per ``read_file`` call or per loader batch;
breaker thresholds are set out of reach so hedging is the *only*
mechanism in play. Every row has at least 1,000 samples, so its p99 is
not its maximum.

Besides the usual ``benchmarks/_results`` report, the run writes a
repo-root ``BENCH_tail_latency.json`` with p50/p99/p999 per row plus
the two gates, on both read paths: hedging must cut the slow-regime
p99 by ≥2x, and must cost ≤5% extra requests when everything is
healthy (for the batch path, that is the check on an envelope's hedge
delay). A request is a message on the daemon's request tag; a hedge is
one extra request.
"""

from __future__ import annotations

import json
import time
from pathlib import Path

import pytest

from repro.bench.report import PaperComparison
from repro.comm.chaos import ChaosWorld, FaultPlan
from repro.comm.launcher import run_parallel
from repro.datasets.synthetic import generate_dataset
from repro.fanstore.daemon import DaemonConfig
from repro.fanstore.exchange import REPLY_TAG_BASE, TAG_DAEMON
from repro.fanstore.prepare import prepare_dataset
from repro.fanstore.store import FanStore, FanStoreOptions

RANKS = 3
SLOW = 2
SLOW_S = 0.1  # every data-plane reply from SLOW arrives this late
SEED = 6

#: identical budgets for every regime; only ``hedge_reads`` varies.
#: breaker_slow_threshold is out of reach so the breaker never opens
#: and hedging is the only tail-tolerance mechanism being measured.
BASE = dict(
    extra_partition_budget=1,
    request_timeout=0.5,
    max_retries=1,
    hedge_after_s=0.02,
    breaker_slow_threshold=1000,
)

JSON_OUT = Path(__file__).parents[1] / "BENCH_tail_latency.json"

#: a loader batch, and how often each rank reads its namespace per
#: row: 17 passes over 30 files on the two healthy ranks are 1,020 lone
#: reads, 250 passes in batches of 16 (16 + 14) are 1,000 batches
LOADER_BATCH = 16
PASSES = {False: 17, True: 250}


@pytest.fixture(scope="module")
def tail_dataset(tmp_path_factory):
    raw = tmp_path_factory.mktemp("tail-raw")
    generate_dataset("em", raw, num_files=30, avg_file_size=8_000,
                     num_dirs=3, seed=SEED)
    return prepare_dataset(
        raw, tmp_path_factory.mktemp("tail-packed"),
        num_partitions=RANKS, compressor="zlib-1", threads=2,
    )


def _pct(samples: list[float], q: float) -> float:
    ordered = sorted(samples)
    return ordered[int(q * (len(ordered) - 1))]


def _run_regime(prepared, *, slow: bool, hedge: bool, batched: bool):
    """Full-namespace read passes; returns per-call timings on the
    healthy ranks and the request counters the overhead gate needs."""
    plan = FaultPlan(SEED)
    if slow:
        plan.slow_rank(SLOW, SLOW_S, min_tag=REPLY_TAG_BASE)
    world = ChaosWorld(RANKS, plan)
    config = DaemonConfig(hedge_reads=hedge, **BASE)

    def body(comm):
        opts = FanStoreOptions(comm=comm, config=config)
        with FanStore(prepared, opts) as fs:
            requests = 0
            send = comm.send

            def counted(payload, dest, tag=0):
                nonlocal requests
                requests += tag == TAG_DAEMON
                send(payload, dest, tag)

            comm.send = counted
            paths = [rec.path for rec in fs.daemon.metadata.walk_files()]
            step = LOADER_BATCH if batched else 1
            comm.barrier()  # everyone loaded: time only the read passes
            timings: list[float] = []
            for _ in range(PASSES[batched]):
                for start in range(0, len(paths), step):
                    chunk = paths[start : start + step]
                    t0 = time.perf_counter()
                    if batched:
                        fs.client.read_files(chunk)
                    else:
                        fs.client.read_file(chunk[0])
                    timings.append(time.perf_counter() - t0)
            comm.barrier()
            comm.send = send
            s = fs.daemon.stats
            return {
                "timings": [] if comm.rank == SLOW else timings,
                "requests": requests,
                "remote_fetches": s.remote_fetches,
                "hedged_reads": s.hedged_reads,
                "hedge_wins": s.hedge_wins,
            }

    results = run_parallel(body, RANKS, world=world, timeout=600)
    samples = [t for r in results for t in r["timings"]]
    return {
        "samples": len(samples),
        "p50_s": _pct(samples, 0.50),
        "p99_s": _pct(samples, 0.99),
        "p999_s": _pct(samples, 0.999),
        "requests": sum(r["requests"] for r in results),
        "remote_fetches": sum(r["remote_fetches"] for r in results),
        "hedged_reads": sum(r["hedged_reads"] for r in results),
        "hedge_wins": sum(r["hedge_wins"] for r in results),
    }


def _overhead(row: dict) -> float:
    """Hedges per request the reads needed (every hedge is one more)."""
    needed = row["requests"] - row["hedged_reads"]
    return row["hedged_reads"] / needed if needed else 0.0


def test_tail_latency_hedging(benchmark, tail_dataset, emit_report):
    regimes = [
        (f"{health}, {hedging}{', loader batch' if batched else ''}",
         dict(slow=slow, hedge=hedge, batched=batched))
        for batched in (False, True)
        for slow, health in ((False, "healthy"), (True, "1 slow rank"))
        for hedge, hedging in ((False, "unhedged"), (True, "hedged"))
    ]

    def run_all():
        return {
            name: _run_regime(tail_dataset, **kw) for name, kw in regimes
        }

    rows = benchmark.pedantic(run_all, rounds=1, iterations=1)

    report = PaperComparison(
        "Tail latency under gray failure (hedged reads)",
        "full-namespace reads on 3 ranks; latency per read_file call or "
        "per loader batch of 16, from the healthy ranks",
        columns=["regime", "samples", "p50 ms", "p99 ms", "p999 ms",
                 "requests", "hedges", "hedge wins"],
    )
    for name, r in rows.items():
        report.add_row(
            name,
            r["samples"],
            round(r["p50_s"] * 1e3, 2),
            round(r["p99_s"] * 1e3, 2),
            round(r["p999_s"] * 1e3, 2),
            r["requests"],
            r["hedged_reads"],
            r["hedge_wins"],
        )

    gates = {}
    for suffix, path in (("", "read_file"), (", loader batch", "read_files")):
        gates[path] = {
            "p99_improvement_slow": round(
                rows[f"1 slow rank, unhedged{suffix}"]["p99_s"]
                / rows[f"1 slow rank, hedged{suffix}"]["p99_s"], 2
            ),
            "hedge_request_overhead_healthy": round(
                _overhead(rows[f"healthy, hedged{suffix}"]), 4
            ),
        }
        report.add_note(
            f"{path}: slow-regime p99 improvement "
            f"{gates[path]['p99_improvement_slow']:.1f}x (gate: >=2x); "
            f"healthy hedge overhead "
            f"{gates[path]['hedge_request_overhead_healthy']:.1%} extra "
            "requests (gate: <=5%)"
        )
    emit_report(report)

    JSON_OUT.write_text(json.dumps({
        "bench": "tail_latency",
        "ranks": RANKS,
        "slow_rank_delay_s": SLOW_S,
        "hedge_after_s": BASE["hedge_after_s"],
        "loader_batch": LOADER_BATCH,
        "regimes": rows,
        "gates": gates,
    }, indent=2) + "\n")

    # the acceptance gates, on both read paths: hedging pays under the
    # fault and is ~free without one, and the slow regime's wins prove
    # the hedge leg did the work
    for path, gate in gates.items():
        assert gate["p99_improvement_slow"] >= 2.0, (path, rows)
        assert gate["hedge_request_overhead_healthy"] <= 0.05, (path, rows)
    for suffix in ("", ", loader batch"):
        assert rows[f"1 slow rank, hedged{suffix}"]["hedge_wins"] >= 1
