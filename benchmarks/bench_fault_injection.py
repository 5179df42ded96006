"""Fault injection — what the recovery ladder costs (robustness
hardening around §V-E's checkpoint/resume story).

The same 3-rank store reads its full namespace under four regimes:
clean, a lossy interconnect (dropped daemon replies, recovered by
retry), a dead rank whose partition survives on a ring replica, and a
dead rank with no replicas (degraded shared-FS re-reads). DaemonStats
counts every recovery; wall time is the end-to-end read pass, so the
deltas against the clean row are the price of each tier.
"""

from __future__ import annotations

import time

import pytest

from repro.bench.report import PaperComparison
from repro.comm.chaos import ChaosWorld, FaultPlan
from repro.comm.launcher import run_parallel
from repro.datasets.synthetic import generate_dataset
from repro.errors import CommClosedError, RankDeadError
from repro.fanstore.daemon import DaemonConfig
from repro.fanstore.exchange import REPLY_TAG_BASE
from repro.fanstore.prepare import prepare_dataset
from repro.fanstore.store import FanStore, FanStoreOptions

RANKS = 3
DEAD = 2
LOST_REPLIES = 3
_TAG_PARK = 0x0DED
_TAG_GO = 0x0660
_TAG_DONE = 0x0D0E

#: tight budgets so a fault costs tenths of a second, not 30 s timeouts
FAST = dict(
    request_timeout=0.3,
    max_retries=2,
)


@pytest.fixture(scope="module")
def fault_dataset(tmp_path_factory):
    raw = tmp_path_factory.mktemp("fault-raw")
    generate_dataset("em", raw, num_files=15, avg_file_size=8_000,
                     num_dirs=3, seed=29)
    return prepare_dataset(
        raw, tmp_path_factory.mktemp("fault-packed"),
        num_partitions=RANKS, compressor="zlib-1", threads=2,
    )


def _counters(stats):
    return (stats.retries, stats.failovers, stats.degraded_reads)


def _read_all(fs):
    for rec in fs.daemon.metadata.walk_files():
        fs.client.read_file(rec.path)


def _run_healthy(prepared, plan=None):
    """Everyone stays alive: clean run or a lossy interconnect."""
    config = DaemonConfig(**FAST)

    def body(comm):
        with FanStore(prepared, FanStoreOptions(comm=comm, config=config)) as fs:
            _read_all(fs)
            return _counters(fs.daemon.stats)

    if plan is None:
        return run_parallel(body, RANKS, timeout=120)
    world = ChaosWorld(RANKS, plan)
    return run_parallel(body, RANKS, world=world, timeout=120)


def _run_dead_rank(prepared, budget):
    """Kill DEAD before the reads; survivors take the failover tiers."""
    world = ChaosWorld(RANKS, FaultPlan(seed=29))
    config = DaemonConfig(extra_partition_budget=budget, **FAST)

    def body(comm):
        fs = FanStore(prepared, FanStoreOptions(comm=comm, config=config))
        comm.barrier()
        if comm.rank == DEAD:
            try:
                comm.recv(source=0, tag=_TAG_PARK, timeout=60)
            except (RankDeadError, CommClosedError):
                pass
            return (0, 0, 0)
        if comm.rank == 0:
            world.kill(DEAD)
            comm.send("go", 1, _TAG_GO)
        else:
            comm.recv(source=0, tag=_TAG_GO, timeout=60)
        _read_all(fs)
        counters = _counters(fs.daemon.stats)
        # survivors skip the collective shutdown barrier (it would wait
        # on the corpse): drain pairwise, then stop serving
        other = 1 - comm.rank
        comm.send("done", other, _TAG_DONE)
        comm.recv(other, _TAG_DONE, timeout=60)
        fs.daemon.stop()
        return counters

    return run_parallel(body, RANKS, world=world, timeout=120)


def test_fault_injection_cost(benchmark, fault_dataset, emit_report):
    regimes = [
        ("clean", lambda: _run_healthy(fault_dataset)),
        (f"{LOST_REPLIES} lost replies", lambda: _run_healthy(
            fault_dataset,
            FaultPlan(seed=29).drop(min_tag=REPLY_TAG_BASE,
                                    times=LOST_REPLIES),
        )),
        ("dead rank + replica", lambda: _run_dead_rank(fault_dataset, 1)),
        ("dead rank, no replica", lambda: _run_dead_rank(fault_dataset, 0)),
    ]

    def run_all():
        out = {}
        for name, fn in regimes:
            start = time.perf_counter()
            results = fn()
            out[name] = (time.perf_counter() - start, results)
        return out

    rows = benchmark.pedantic(run_all, rounds=1, iterations=1)

    report = PaperComparison(
        "Fault injection (recovery ladder cost)",
        "full-namespace read on 3 ranks: wall time + recovery counters",
        columns=["regime", "wall s", "retries", "failovers",
                 "degraded reads"],
    )
    totals = {}
    for name, (wall, results) in rows.items():
        retries = sum(r for r, _, _ in results)
        failovers = sum(f for _, f, _ in results)
        degraded = sum(d for _, _, d in results)
        totals[name] = (retries, failovers, degraded)
        report.add_row(name, round(wall, 2), retries, failovers, degraded)
    report.add_note("every regime returns correct bytes; the ladder "
                    "trades latency (bounded by request_timeout x "
                    "attempts) for availability, never correctness")
    emit_report(report)

    assert totals["clean"] == (0, 0, 0)
    # each lost reply costs exactly one retry, and the home stays up
    assert totals[f"{LOST_REPLIES} lost replies"][0] == LOST_REPLIES
    assert totals[f"{LOST_REPLIES} lost replies"][1:] == (0, 0)
    # with a ring replica the dead rank's block never touches the FS
    retries, failovers, degraded = totals["dead rank + replica"]
    assert failovers >= 1 and degraded == 0
    # without one, every read of the dead partition degrades
    retries, failovers, degraded = totals["dead rank, no replica"]
    assert degraded > 0 and failovers == degraded
