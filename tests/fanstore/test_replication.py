"""Placement reactions of ``daemon.replication`` on one rank: the heal
pass's catch-up and its journalled drop (which neither a full disk nor
a browned-out journal turns into an escaping error), and the promotion
gate's budget. The cluster-wide behaviour is the membership and partition
drills'; these pin what a drill cannot isolate."""

from __future__ import annotations

import time

import pytest

from repro.comm.communicator import World
from repro.errors import StorageFullError
from repro.fanstore.backend import DiskBackend
from repro.fanstore.crash import DiskFaultInjector
from repro.fanstore.daemon import DaemonConfig, FanStoreDaemon
from repro.fanstore.journal import Journal, JournalConfig, JournalStats
from repro.fanstore.layout import FLAG_OUTPUT, FileStat
from repro.fanstore.membership import (
    ClusterView,
    FailureDetector,
    MembershipConfig,
    RankState,
)
from repro.fanstore.metadata import FileRecord


def _record(path: str, home: int, partition: int, size: int = 100):
    stat = FileStat(st_size=size, partition_id=partition)
    return FileRecord(
        path=path,
        stat=stat.with_locality(home),
        compressor_id=0,
        compressed_size=size,
        home_rank=home,
        partition_id=partition,
    )


def _output(path: str, home: int):
    """A runtime output record as the write path makes it: flagged
    ``FLAG_OUTPUT``, ``partition_id=0`` (it belongs to no partition)."""
    stat = FileStat(st_size=100, flags=FLAG_OUTPUT)
    return FileRecord(
        path=path,
        stat=stat.with_locality(home),
        compressor_id=0,
        compressed_size=100,
        home_rank=home,
        partition_id=0,
    )


class _Detector:
    """Just enough of ``FailureDetector`` for a conviction: quorum, or
    the minority side of a split."""

    clock = None
    detected_at: dict[int, float] = {}

    def __init__(self, *, quorum: bool) -> None:
        self.isolated = not quorum
        self._quorum = quorum

    def has_quorum(self) -> bool:
        return self._quorum


def _dead(rank: int) -> ClusterView:
    view = ClusterView(3)
    view.set_state(rank, RankState.DEAD, bump_epoch=True)
    return view


class TestHealCatchUp:
    """A conviction frozen for lack of quorum is caught up at the heal
    when the merged view still holds the rank DEAD, and only then."""

    def _frozen(self) -> FanStoreDaemon:
        # homed on the corpse, replicated here: the plan re-homes it to
        # this rank and stages the new copy on rank 1
        daemon = FanStoreDaemon(World(3).comm(0))
        daemon.metadata.insert(_record("train/x", home=2, partition=2))
        daemon.metadata.add_replica("train/x", 0)
        daemon._membership = _Detector(quorum=False)
        daemon.replication.on_rank_dead(2, _dead(2))
        assert daemon.stats.rereplications_frozen == 1
        daemon._membership = _Detector(quorum=True)
        return daemon

    def test_a_conviction_the_merged_view_keeps_is_caught_up(self):
        daemon = self._frozen()
        daemon.replication.reconcile_after_heal(_dead(2))
        assert daemon.metadata.get("train/x").home_rank == 0
        assert daemon.metadata.replica_ranks("train/x") == (1,)

    def test_a_rank_the_majority_revived_is_left_alone(self):
        daemon = self._frozen()
        daemon.replication.reconcile_after_heal(ClusterView(3))
        assert daemon.metadata.get("train/x").home_rank == 2


def _promoted(root, prepared, copies, **kw) -> FanStoreDaemon:
    """Rank 0 of three on a journalled disk, holding ``copies`` as
    degraded-read promotions of rank 1's files: the heal's GC drops
    them (this rank neither homes them nor is their replica)."""
    daemon = FanStoreDaemon(
        World(3).comm(0), backend=DiskBackend(root),
        journal_dir=root / "journal", **kw,
    )
    daemon.replication.load_rejoin(prepared)
    for path, data in copies.items():
        daemon.metadata.insert(_record(path, 1, 1, size=len(data)))
        daemon._durable_put("promote", path, data)  # a degraded read's
    return daemon


def _heal(daemon: FanStoreDaemon) -> None:
    """Regain quorum the way the detector's thread does: one
    ``reconnected`` event through ``_fire``, which re-raises whatever
    the callback raises (and an exception there ends the thread)."""
    detector = FailureDetector(daemon.comm, MembershipConfig())
    daemon.replication.attach_membership(detector)
    detector._fire([("reconnected", -1, ClusterView(3))])


def test_a_heal_drop_stays_dropped_across_a_restart(
    tmp_path, prepared_dataset
):
    """The heal's GC drops promoted copies through the journal: a
    restart neither re-applies the one small enough to ride in its
    intent nor quarantines the one that is not."""
    root = tmp_path / "local"
    limit = JournalConfig().embed_payload_max
    copies = {"train/small": b"s" * limit, "train/big": b"b" * (limit + 1)}
    daemon = _promoted(root, prepared_dataset, copies)
    daemon.replication.reconcile_after_heal(ClusterView(3))
    assert daemon.stats.duplicate_replicas_dropped == 2
    daemon.stop()

    disk, jstats = DiskBackend(root), JournalStats()
    journal, _ = Journal.recover(root / "journal", disk, stats=jstats)
    journal.close()
    assert (jstats.recovery_reapplied, jstats.recovery_quarantined) == (0, 0)
    assert not any(path in disk for path in copies)
    assert not any(disk.read_raw(path) for path in copies)


def test_a_heal_drop_needs_no_free_space(tmp_path, prepared_dataset):
    """A drop only frees space: on a disk under the journal's
    free-space watermark the heal still drops the copy and scrubs."""
    root = tmp_path / "local"
    root.mkdir()
    injector = DiskFaultInjector()
    backend = DiskBackend(root)
    backend.injector = injector
    daemon = FanStoreDaemon(
        World(3).comm(0), backend=backend, journal_dir=root / "journal"
    )
    daemon.replication.load_rejoin(prepared_dataset)
    daemon.metadata.insert(_record("train/p", 1, 1))
    daemon._durable_put("promote", "train/p", b"p" * 100)
    injector.set_free_bytes(0)
    _heal(daemon)
    assert daemon.stats.duplicate_replicas_dropped == 1
    assert "train/p" not in daemon.backend
    assert daemon.stats.reconciled_records > 0
    daemon.stop()


def test_a_browned_out_journal_keeps_the_copy_and_the_heal_goes_on(
    tmp_path, prepared_dataset
):
    """A journal browned out to read-only refuses the drop: the copy
    stays (journal and disk agree), and the heal still scrubs rather
    than raising out of the detector's callback."""
    small = JournalConfig(
        segment_max_bytes=512,
        segment_max_records=4,
        max_segments=3,
        low_watermark_bytes=0,
    )
    daemon = _promoted(
        tmp_path / "local", prepared_dataset, {"train/p": b"p" * 100},
        journal_config=small,
    )
    with pytest.raises(StorageFullError):
        for i in range(100):  # pending intents pin their segments
            daemon.journal.begin("write", f"out/{i}", b"p" * 48)
    assert daemon.journal.read_only
    _heal(daemon)
    assert daemon.stats.duplicate_replicas_dropped == 0
    assert "train/p" in daemon.backend
    assert daemon.stats.reconciled_records > 0
    daemon.stop()


def test_a_silent_joiner_is_refused_within_the_gate_budget():
    """The promotion gate runs on the detector's thread: its read of a
    joiner that never answers carries a deadline inside
    ``suspect_after``, not a whole ``request_timeout``."""
    world = World(2)
    comm = world.comm(0)
    daemon = FanStoreDaemon(comm, config=DaemonConfig(request_timeout=10.0))
    mcfg = MembershipConfig(
        heartbeat_interval=0.05, suspect_after=0.3, dead_after=1.0
    )
    daemon.replication.attach_membership(FailureDetector(comm, mcfg))
    daemon.metadata.insert(_record("train/j", home=0, partition=1))
    budgets = []
    fetch = daemon._peer_fetch

    def _peer_fetch(*args, deadline=None, **kw):
        budgets.append(None if deadline is None else deadline.remaining())
        return fetch(*args, deadline=deadline, **kw)

    daemon._peer_fetch = _peer_fetch
    started = time.monotonic()
    assert daemon.replication.verification_read(1) is False
    assert time.monotonic() - started < 10.0 / 2
    assert len(budgets) == 1 and budgets[0] is not None
    assert budgets[0] <= mcfg.suspect_after


class TestOutputsAreNoPartitionsCopy:
    """An output's ``partition_id`` of 0 names no partition: the rank
    that stages partition 0 holds no copy of an output homed elsewhere,
    so it is neither announced as its replica nor asked for it."""

    def _daemon(self) -> FanStoreDaemon:
        daemon = FanStoreDaemon(World(2).comm(1))
        daemon.metadata.insert(_output("out/ckpt", home=1))
        return daemon

    def test_a_readmitted_rank_is_no_replica_of_an_output(self):
        daemon = self._daemon()
        # re-homed here while rank 0 was away: rank 0 re-stages it
        daemon.metadata.insert(_record("train/r", home=1, partition=0))
        daemon.replication.on_rank_alive(0)
        assert daemon.metadata.replica_ranks("train/r") == (0,)
        assert daemon.metadata.replica_ranks("out/ckpt") == ()

    def test_the_promotion_gate_reads_a_partition_record(self, monkeypatch):
        """The gate fetches the first record of the joiner's partition;
        an output sorting first would be asked of a joiner that never
        held it, and a healthy joiner refused."""
        daemon = self._daemon()
        daemon.metadata.insert(_record("train/x", home=0, partition=0))
        daemon._membership = FailureDetector(daemon.comm, MembershipConfig())
        asked = []

        def _peer_fetch(path, record, peer, **kw):
            asked.append((path, peer))
            return b"x" * 100

        monkeypatch.setattr(daemon, "_peer_fetch", _peer_fetch)
        assert daemon.replication.verification_read(0) is True
        assert asked == [("train/x", 0)]
