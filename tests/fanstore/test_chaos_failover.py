"""The resilient read path under injected faults: retry on lost
replies, failover to ring replicas, and degraded shared-FS re-reads
when a rank dies — every byte still correct, every recovery counted.

Seeds are pinned (see ``CHAOS_SEEDS``) so a CI failure replays exactly;
the CI chaos job runs each seed as its own matrix entry via
``-k seedNNN``.
"""

from __future__ import annotations

import pytest

from repro.comm.chaos import ChaosWorld, FaultPlan
from repro.comm.launcher import run_parallel
from repro.errors import CommClosedError, RankDeadError
from repro.fanstore.daemon import DaemonConfig
from repro.fanstore.exchange import REPLY_TAG_BASE
from repro.fanstore.metadata import normalize
from repro.fanstore.store import FanStore, FanStoreOptions
from repro.training.loader import SyncLoader

CHAOS_SEEDS = (101, 202, 303)
seeds = pytest.mark.parametrize(
    "seed", CHAOS_SEEDS, ids=[f"seed{s}" for s in CHAOS_SEEDS]
)

RANKS = 3
DEAD = 2
#: tags used by the tests' own coordination traffic (outside both the
#: daemon's request tag and its reply band)
_TAG_PARK = 0x0DED
_TAG_GO = 0x0660
_TAG_DONE = 0x0D0E

#: tight budgets so a dead rank costs milliseconds, not 30 s timeouts
FAST = dict(
    request_timeout=0.4,
    max_retries=1,
)


@pytest.fixture(scope="module")
def originals(raw_dataset_dir):
    """store path → raw bytes, for byte-identity assertions."""
    expected = {}
    train = raw_dataset_dir / "train"
    for p in sorted(train.rglob("*")):
        if p.is_file():
            expected[normalize(str(p.relative_to(train)))] = p.read_bytes()
    for p in sorted((raw_dataset_dir / "val").iterdir()):
        if p.is_file():
            expected[f"val/{p.name}"] = p.read_bytes()
    return expected


def _read_everything(fs) -> dict[str, bytes]:
    return {
        rec.path: fs.client.read_file(rec.path)
        for rec in fs.daemon.metadata.walk_files()
    }


def _body_with_dead_rank(prepared, world, config, originals):
    """Shared drill body: load everywhere, kill ``DEAD`` before the
    reads, survivors read the full namespace and verify bytes."""

    def body(comm):
        fs = FanStore(prepared, FanStoreOptions(comm=comm, config=config))
        comm.barrier()  # everyone loaded and serving
        if comm.rank == DEAD:
            try:  # park like a rank waiting on work; the kill lands here
                comm.recv(source=0, tag=_TAG_PARK, timeout=60)
            except (RankDeadError, CommClosedError):
                pass
            return None
        if comm.rank == 0:
            world.kill(DEAD)
            comm.send("go", 1, _TAG_GO)
        else:
            comm.recv(source=0, tag=_TAG_GO, timeout=60)
        data = _read_everything(fs)
        assert data == originals
        stats = fs.daemon.stats
        # survivors skip the collective shutdown barrier (it would wait
        # on the corpse); instead they drain pairwise — a rank must keep
        # serving until the other survivor finished reading too — then
        # stop their own service loops directly
        other = 1 - comm.rank
        comm.send("done", other, _TAG_DONE)
        comm.recv(other, _TAG_DONE, timeout=60)
        fs.daemon.stop()
        return (stats.retries, stats.failovers, stats.degraded_reads)

    return body


class TestRetry:
    @seeds
    def test_dropped_fetch_reply_is_retried(
        self, seed, prepared_dataset, originals
    ):
        """One lost reply must cost one retry, never a failed read."""
        plan = FaultPlan(seed).drop(min_tag=REPLY_TAG_BASE, times=1)
        world = ChaosWorld(RANKS, plan)
        config = DaemonConfig(**FAST)

        def body(comm):
            opts = FanStoreOptions(comm=comm, config=config)
            with FanStore(prepared_dataset, opts) as fs:
                data = _read_everything(fs)
                assert data == originals
                return (fs.daemon.stats.retries, fs.daemon.stats.failovers)

        results = run_parallel(body, RANKS, world=world, timeout=120)
        assert plan.stats.dropped == 1
        assert sum(r for r, _ in results) >= 1  # the lost reply was re-asked
        assert all(f == 0 for _, f in results)  # home rank stayed up


class TestReplicaFailover:
    @seeds
    def test_dead_home_rank_served_by_ring_replica(
        self, seed, prepared_dataset, originals
    ):
        """With one extra partition, rank 0 holds rank 2's block; after
        rank 2 dies, rank 1's reads of that block fail over to rank 0 —
        no shared-FS traffic."""
        config = DaemonConfig(extra_partition_budget=1, **FAST)
        world = ChaosWorld(RANKS, FaultPlan(seed))
        body = _body_with_dead_rank(
            prepared_dataset, world, config, originals
        )
        results = run_parallel(body, RANKS, world=world, timeout=120)
        assert results[DEAD] is None
        retries1, failovers1, degraded1 = results[1]
        # rank 1 does not hold rank 2's block (it replicated rank 0's),
        # so its reads of the dead rank's files took the replica tier
        assert failovers1 >= 1
        assert degraded1 == 0
        assert retries1 >= 1  # the attempts against the corpse
        # rank 0 holds the replica itself: every read was local
        assert results[0][2] == 0

    @seeds
    def test_replica_locations_announced_at_load(
        self, seed, prepared_dataset
    ):
        config = DaemonConfig(extra_partition_budget=1, **FAST)
        world = ChaosWorld(RANKS, FaultPlan(seed))

        def body(comm):
            opts = FanStoreOptions(comm=comm, config=config)
            with FanStore(prepared_dataset, opts) as fs:
                table = fs.daemon.metadata
                located = 0
                for rec in table.walk_files():
                    if rec.is_broadcast:
                        continue
                    holders = table.replica_ranks(rec.path)
                    # budget 1 on the ring: the home rank's right
                    # neighbor holds the copy, and every rank knows it
                    assert holders == ((rec.home_rank + 1) % comm.size,)
                    located += 1
                return located

        assert run_parallel(body, RANKS, world=world, timeout=120) == [12] * 3


class TestDegradedReads:
    @seeds
    def test_dead_rank_with_no_replicas_degrades_to_shared_fs(
        self, seed, prepared_dataset, originals
    ):
        """Acceptance drill: drop the first fetch reply *and* kill one
        rank, with zero replication — every read still correct, via
        retry for the drop and shared-FS re-reads for the dead rank's
        partition, all surfaced in DaemonStats."""
        plan = FaultPlan(seed).drop(min_tag=REPLY_TAG_BASE, times=1, dest=0)
        world = ChaosWorld(RANKS, plan)
        config = DaemonConfig(**FAST)
        body = _body_with_dead_rank(
            prepared_dataset, world, config, originals
        )
        results = run_parallel(body, RANKS, world=world, timeout=120)
        assert results[DEAD] is None
        survivors = [results[0], results[1]]
        # each survivor re-read the dead rank's 4 train files off the
        # shared FS (val is broadcast; everything else has a live home)
        for retries, failovers, degraded in survivors:
            assert retries >= 1
            assert failovers == 4
            assert degraded == 4

    def test_control_run_without_chaos_is_clean(
        self, prepared_dataset, originals
    ):
        """The same read workload with chaos disabled: identical bytes,
        zero retries, zero failovers, zero degraded reads."""
        config = DaemonConfig(**FAST)

        def body(comm):
            opts = FanStoreOptions(comm=comm, config=config)
            with FanStore(prepared_dataset, opts) as fs:
                data = _read_everything(fs)
                assert data == originals
                s = fs.daemon.stats
                return (s.retries, s.failovers, s.degraded_reads)

        results = run_parallel(body, RANKS, timeout=120)
        assert results == [(0, 0, 0)] * RANKS


class TestBatchedRead:
    @seeds
    def test_loader_epochs_survive_lost_and_late_envelope_replies(
        self, seed, prepared_dataset, originals
    ):
        """Two ranks, each a ``SyncLoader`` whose every batch is the
        whole file list — so every remote file rides a ``batch``
        envelope — with tracing off (sampling would switch batching
        off): two replies are lost and three arrive late. Every batch
        is still byte-exact; a lost envelope costs its items one
        fallback each through the ladder, never a failed read."""
        plan = (
            FaultPlan(seed)
            .drop(min_tag=REPLY_TAG_BASE, times=2)
            .delay(0.05, min_tag=REPLY_TAG_BASE, times=3, jitter=0.02)
        )
        world = ChaosWorld(2, plan)
        config = DaemonConfig(trace_sample=0.0, **FAST)
        files = sorted(originals)

        def body(comm):
            opts = FanStoreOptions(comm=comm, config=config)
            with FanStore(prepared_dataset, opts) as fs:
                loader = SyncLoader(
                    fs.client, files, batch_size=len(files), epochs=4,
                    seed=seed,
                )
                for batch in loader:
                    assert sorted(batch.paths) == files
                    for path, sample in zip(batch.paths, batch.samples):
                        assert sample == originals[path]
                assert len(fs.daemon.cache) == 0
                snap = fs.metrics.snapshot()
                return (
                    snap.value("daemon.batch.flushes"),
                    snap.value("daemon.batch.fallbacks"),
                    fs.daemon.stats.failovers,
                )

        results = run_parallel(body, 2, world=world, timeout=120)
        assert plan.stats.dropped == 2
        assert all(flushes >= 1 for flushes, _, _ in results)
        # every remote read starts as an envelope item, so the first
        # lost reply was an envelope's and stranded its (>= 4) items; the
        # second hit another envelope or one retried classic re-ask
        assert sum(fallbacks for _, fallbacks, _ in results) >= 4
        assert all(failovers == 0 for _, _, failovers in results)
