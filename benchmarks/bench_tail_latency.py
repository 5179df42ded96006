"""Tail latency under a gray failure — what hedged reads buy.

The same 3-rank store reads its full namespace under four regimes:
{healthy, one slow rank} × {hedging off, hedging on}. The slow rank
(rank 2) delays every data-plane reply by ``SLOW_S`` — it is alive,
answers correctly, and never trips the membership detector, so without
hedging every one of rank 1's remote reads eats the full delay.
Latencies are collected on the healthy ranks only (the slow rank's own
reads are not the phenomenon under test); breaker thresholds are set
out of reach so hedging is the *only* mechanism in play.

Besides the usual ``benchmarks/_results`` report, the run writes a
repo-root ``BENCH_tail_latency.json`` — the start of the committed
perf-trajectory record ROADMAP calls for — with p50/p99/p999 per
regime plus the two gates: hedging must cut the slow-regime p99 by
≥2x, and must cost ≤5% extra requests when everything is healthy.
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
from repro.fanstore.exchange import REPLY_TAG_BASE
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


def _run_regime(prepared, *, slow: bool, hedge: bool):
    """Full-namespace read pass; returns per-healthy-rank timings and
    the request counters the overhead gate needs."""
    plan = FaultPlan(SEED)
    if slow:
        plan.slow_rank(SLOW, SLOW_S, min_tag=REPLY_TAG_BASE)
    world = ChaosWorld(RANKS, plan)
    config = DaemonConfig(hedge_reads=hedge, **BASE)

    def body(comm):
        opts = FanStoreOptions(comm=comm, config=config)
        with FanStore(prepared, opts) as fs:
            comm.barrier()  # everyone loaded: time only the read pass
            timings: list[float] = []
            for rec in fs.daemon.metadata.walk_files():
                t0 = time.perf_counter()
                fs.client.read_file(rec.path)
                timings.append(time.perf_counter() - t0)
            comm.barrier()
            s = fs.daemon.stats
            return {
                "timings": [] if comm.rank == SLOW else timings,
                "remote_fetches": s.remote_fetches,
                "hedged_reads": s.hedged_reads,
                "hedge_wins": s.hedge_wins,
            }

    results = run_parallel(body, RANKS, world=world, timeout=120)
    samples = [t for r in results for t in r["timings"]]
    return {
        "reads": len(samples),
        "p50_s": _pct(samples, 0.50),
        "p99_s": _pct(samples, 0.99),
        "p999_s": _pct(samples, 0.999),
        "remote_fetches": sum(r["remote_fetches"] for r in results),
        "hedged_reads": sum(r["hedged_reads"] for r in results),
        "hedge_wins": sum(r["hedge_wins"] for r in results),
    }


def test_tail_latency_hedging(benchmark, tail_dataset, emit_report):
    regimes = [
        ("healthy, unhedged", dict(slow=False, hedge=False)),
        ("healthy, hedged", dict(slow=False, hedge=True)),
        ("1 slow rank, unhedged", dict(slow=True, hedge=False)),
        ("1 slow rank, hedged", dict(slow=True, hedge=True)),
    ]

    def run_all():
        return {
            name: _run_regime(tail_dataset, **kw) for name, kw in regimes
        }

    rows = benchmark.pedantic(run_all, rounds=1, iterations=1)

    report = PaperComparison(
        "Tail latency under gray failure (hedged reads)",
        "full-namespace read on 3 ranks; latencies from healthy ranks",
        columns=["regime", "p50 ms", "p99 ms", "p999 ms",
                 "hedges", "hedge wins"],
    )
    for name, r in rows.items():
        report.add_row(
            name,
            round(r["p50_s"] * 1e3, 2),
            round(r["p99_s"] * 1e3, 2),
            round(r["p999_s"] * 1e3, 2),
            r["hedged_reads"],
            r["hedge_wins"],
        )

    p99_ratio = (rows["1 slow rank, unhedged"]["p99_s"]
                 / rows["1 slow rank, hedged"]["p99_s"])
    healthy = rows["healthy, hedged"]
    overhead = (healthy["hedged_reads"] / healthy["remote_fetches"]
                if healthy["remote_fetches"] else 0.0)
    report.add_note(f"slow-regime p99 improvement {p99_ratio:.1f}x "
                    f"(gate: >=2x); healthy hedge overhead "
                    f"{overhead:.1%} extra requests (gate: <=5%)")
    emit_report(report)

    JSON_OUT.write_text(json.dumps({
        "bench": "tail_latency",
        "ranks": RANKS,
        "slow_rank_delay_s": SLOW_S,
        "hedge_after_s": BASE["hedge_after_s"],
        "regimes": rows,
        "p99_improvement_slow": round(p99_ratio, 2),
        "hedge_request_overhead_healthy": round(overhead, 4),
    }, indent=2) + "\n")

    # the acceptance gates: hedging pays under the fault and is ~free
    # without one
    assert p99_ratio >= 2.0, rows
    assert overhead <= 0.05, rows
    # and the slow regime's wins prove the hedge leg did the work
    assert rows["1 slow rank, hedged"]["hedge_wins"] >= 1
