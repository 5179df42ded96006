"""Membership — what self-healing buys over the PR-1 recovery ladder.

Same 3-rank store, same kill. Without membership (the PR-1 regime)
every survivor discovers the corpse the hard way: the first read of a
dead-homed record pays the full request-timeout retry ladder before
failing over. With the failure detector attached, the corpse is
convicted off heartbeat silence in ``dead_after`` seconds, its records
are re-replicated (digest-verified) onto survivors, and the same read
pass afterwards is entirely local — zero retries, zero timeouts. The
report records detection latency and mean time to repair next to the
ladder's cost.
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
from repro.fanstore.membership import MembershipConfig, RankState
from repro.fanstore.prepare import prepare_dataset
from repro.fanstore.store import FanStore, FanStoreOptions

RANKS = 3
DEAD = 2
_TAG_PARK = 0x0DED
_TAG_GO = 0x0661
_TAG_DONE = 0x0D0E

#: tight budgets so the ladder regime costs tenths of a second
FAST = dict(
    request_timeout=0.3,
    max_retries=2,
)

MCFG = MembershipConfig(
    heartbeat_interval=0.05, suspect_after=0.2, dead_after=0.5
)

#: 15 files over 3 partitions with one ring replica each: the corpse
#: holds its 5 home records plus 5 replicas of partition DEAD-1
LOST_COPIES = 10


@pytest.fixture(scope="module")
def member_dataset(tmp_path_factory):
    raw = tmp_path_factory.mktemp("member-raw")
    generate_dataset("em", raw, num_files=15, avg_file_size=8_000,
                     num_dirs=3, seed=41)
    return prepare_dataset(
        raw, tmp_path_factory.mktemp("member-packed"),
        num_partitions=RANKS, compressor="zlib-1", threads=2,
    )


def _read_all(fs):
    for rec in fs.daemon.metadata.walk_files():
        fs.client.read_file(rec.path)


def _park_corpse(comm):
    try:
        comm.recv(source=0, tag=_TAG_PARK, timeout=60)
    except (RankDeadError, CommClosedError):
        pass


def _survivor_teardown(comm, fs):
    other = 1 - comm.rank
    comm.send("done", other, _TAG_DONE)
    comm.recv(other, _TAG_DONE, timeout=60)
    fs.daemon.stop()


def _run_ladder(prepared):
    """PR-1 regime: no detector; reads discover the corpse by timeout."""
    world = ChaosWorld(RANKS, FaultPlan(seed=41))
    config = DaemonConfig(extra_partition_budget=1, **FAST)

    def body(comm):
        fs = FanStore(prepared, FanStoreOptions(comm=comm, config=config))
        comm.barrier()
        if comm.rank == DEAD:
            _park_corpse(comm)
            return None
        if comm.rank == 0:
            world.kill(DEAD)
            comm.send("go", 1, _TAG_GO)
        else:
            comm.recv(source=0, tag=_TAG_GO, timeout=60)
        start = time.perf_counter()
        _read_all(fs)
        wall = time.perf_counter() - start
        stats = fs.daemon.stats
        _survivor_teardown(comm, fs)
        return {"wall": wall, "retries": stats.retries}

    return [r for r in run_parallel(body, RANKS, world=world, timeout=120) if r]


def _run_membership(prepared):
    """Self-healing regime: convict, re-replicate, then read clean."""
    world = ChaosWorld(RANKS, FaultPlan(seed=41))
    config = DaemonConfig(extra_partition_budget=1, **FAST)

    def body(comm):
        fs = FanStore(
            prepared, FanStoreOptions(comm=comm, config=config, membership=MCFG)
        )
        det = fs.membership
        comm.barrier()
        if comm.rank == DEAD:
            _park_corpse(comm)
            return None
        if comm.rank == 0:
            t_kill = time.monotonic()
            world.kill(DEAD)
            comm.send(("go", t_kill), 1, _TAG_GO)
        else:
            _go, t_kill = comm.recv(source=0, tag=_TAG_GO, timeout=60)
        deadline = time.monotonic() + 30
        while det.view.state(DEAD) != RankState.DEAD:
            assert time.monotonic() < deadline, "conviction overdue"
            time.sleep(0.005)
        latency = det.detected_at[DEAD] - t_kill
        stats = fs.daemon.stats
        while stats.rereplicated_records + stats.rereplication_failed < LOST_COPIES // 2:
            assert time.monotonic() < deadline, "re-replication overdue"
            time.sleep(0.005)
        retries_before = stats.retries
        start = time.perf_counter()
        _read_all(fs)
        wall = time.perf_counter() - start
        out = {
            "wall": wall,
            "retries": stats.retries - retries_before,
            "latency": latency,
            "mttr": stats.mean_time_to_repair,
            "rereplicated": stats.rereplicated_records,
        }
        _survivor_teardown(comm, fs)
        return out

    return [r for r in run_parallel(body, RANKS, world=world, timeout=120) if r]


def test_membership_detection_and_repair(benchmark, member_dataset,
                                         emit_report):
    def run_both():
        return {
            "ladder": _run_ladder(member_dataset),
            "membership": _run_membership(member_dataset),
        }

    rows = benchmark.pedantic(run_both, rounds=1, iterations=1)
    ladder, membership = rows["ladder"], rows["membership"]

    l_wall = max(r["wall"] for r in ladder)
    l_retries = sum(r["retries"] for r in ladder)
    m_wall = max(r["wall"] for r in membership)
    m_retries = sum(r["retries"] for r in membership)
    detection = max(r["latency"] for r in membership)
    mttr = max(r["mttr"] for r in membership)
    restored = sum(r["rereplicated"] for r in membership)

    report = PaperComparison(
        "Membership (detection latency and MTTR)",
        "3 ranks, one killed; full-namespace read pass on the survivors",
        columns=["regime", "read wall s", "retries", "detection s",
                 "MTTR s", "records restored"],
    )
    report.add_row("no membership (PR-1 ladder)", round(l_wall, 3),
                   l_retries, "-", "-", 0)
    report.add_row("self-healing membership", round(m_wall, 3),
                   m_retries, round(detection, 3), round(mttr, 3),
                   restored)
    report.add_note(
        f"heartbeat={MCFG.heartbeat_interval}s suspect={MCFG.suspect_after}s "
        f"dead={MCFG.dead_after}s; detection is silence-bounded (not "
        "read-triggered) and repair restores the replication factor, so "
        "the post-conviction read pass is local and retry-free"
    )
    emit_report(report)

    # the ladder regime pays at least one full retry budget
    assert l_retries >= 1
    # conviction lands within the threshold (+ scheduling slack)
    assert detection <= MCFG.dead_after + 2.0
    # every lost copy was restored, and the read pass never retried
    assert restored == LOST_COPIES
    assert m_retries == 0
    assert 0 < mttr < 10
