"""The write-ahead journal in isolation: record encoding, the
commit-after-durable-apply protocol, torn-tail detection, group
commit, rotation/compaction, brownout, restart recovery over a real
``DiskBackend`` (a scripted table, no store, thread or clock), and the
crash/disk injectors that drive the integration drills."""

from __future__ import annotations

import json
import threading
import zlib

import pytest

from repro.errors import FanStoreError, StorageFullError
from repro.fanstore.backend import DiskBackend, RamBackend
from repro.fanstore.crash import (
    CRASH_POINTS,
    CrashPlan,
    DiskFaultInjector,
    SimulatedCrashError,
    crash_point,
)
from repro.fanstore.journal import (
    Journal,
    JournalConfig,
    JournalStats,
    atomic_open,
    atomic_replace,
    scan_journal,
)

SMALL = JournalConfig(
    segment_max_bytes=512,
    segment_max_records=4,
    max_segments=3,
    low_watermark_bytes=0,  # tests run on tmpfs-ish CI disks
)


@pytest.fixture()
def jdir(tmp_path):
    return tmp_path / "journal"


@pytest.fixture()
def disk(tmp_path):
    return DiskBackend(tmp_path / "blobs")


def reopen(jdir, disk, config=SMALL, stats=None):
    """The next launch: restart recovery over a fresh index of the same
    blob directory (the old one died with the process)."""
    journal, _ = Journal.recover(
        jdir, DiskBackend(disk.root), config=config, stats=stats
    )
    return journal


class TestAtomicApply:
    def test_replace_installs_bytes(self, tmp_path):
        target = tmp_path / "blob"
        atomic_replace(target, b"hello")
        assert target.read_bytes() == b"hello"
        atomic_replace(target, b"world")
        assert target.read_bytes() == b"world"

    def test_replace_accepts_str(self, tmp_path):
        atomic_replace(tmp_path / "t", "text")
        assert (tmp_path / "t").read_bytes() == b"text"

    def test_no_tmp_left_behind(self, tmp_path):
        atomic_replace(tmp_path / "blob", b"x" * 100)
        assert list(tmp_path.glob("*.tmp")) == []

    def test_crash_before_rename_preserves_old_bytes(self, tmp_path):
        target = tmp_path / "blob"
        atomic_replace(target, b"old")
        with CrashPlan(seed=1).crash_at("apply.tmp_written"):
            with pytest.raises(SimulatedCrashError):
                atomic_replace(target, b"new")
        assert target.read_bytes() == b"old"
        # the simulated kill -9 leaves the tmp orphan for recovery GC
        assert len(list(tmp_path.glob("*.tmp"))) == 1

    def test_clean_failure_removes_tmp(self, tmp_path, monkeypatch):
        import repro.fanstore.journal as journal_mod

        def boom(src, dst):
            raise OSError("injected rename failure")

        monkeypatch.setattr(journal_mod.os, "replace", boom)
        with pytest.raises(OSError, match="injected"):
            atomic_replace(tmp_path / "blob", b"data")
        assert list(tmp_path.glob("*.tmp")) == []

    def test_atomic_open_streams_then_renames(self, tmp_path):
        target = tmp_path / "part"
        with atomic_open(target) as fh:
            fh.write(b"abc")
            fh.write(b"def")
            assert not target.exists()
        assert target.read_bytes() == b"abcdef"
        assert list(tmp_path.glob("*.tmp")) == []

    def test_atomic_open_error_leaves_nothing(self, tmp_path):
        target = tmp_path / "part"
        with pytest.raises(RuntimeError):
            with atomic_open(target) as fh:
                fh.write(b"half")
                raise RuntimeError("writer died")
        assert not target.exists()
        assert list(tmp_path.glob("*.tmp")) == []


class TestJournalProtocol:
    def test_begin_commit_then_scan(self, jdir):
        j = Journal(jdir, config=SMALL)
        data = b"payload-bytes"
        seq = j.begin("write", "out/a", data)
        j.commit(seq)
        j.close()
        log = scan_journal(jdir)
        (intent,) = log.committed
        assert intent["op"] == "write"
        assert intent["path"] == "out/a"
        assert intent["crc"] == zlib.crc32(data)
        assert intent["size"] == len(data)
        assert bytes.fromhex(intent["payload"]) == data
        assert log.uncommitted == []

    def test_uncommitted_intent_scans_as_uncommitted(self, jdir):
        j = Journal(jdir, config=SMALL)
        j.begin("write", "out/torn", b"never-acked")
        j.close()
        log = scan_journal(jdir)
        assert log.committed == []
        assert [i["path"] for i in log.uncommitted] == ["out/torn"]

    def test_large_payload_not_embedded(self, jdir):
        j = Journal(jdir, config=SMALL)
        seq = j.begin("write", "out/big", b"z" * 8192)
        j.commit(seq)
        j.close()
        (intent,) = scan_journal(jdir).committed
        assert "payload" not in intent
        assert intent["size"] == 8192

    def test_commit_of_unknown_seq_raises(self, jdir):
        j = Journal(jdir, config=SMALL)
        with pytest.raises(FanStoreError, match="unknown intent"):
            j.commit(12345)
        j.close()

    def test_abort_unpins_and_counts(self, jdir):
        stats = JournalStats()
        j = Journal(jdir, config=SMALL, stats=stats)
        seq = j.begin("write", "out/fail", b"data")
        assert j.pending_intents == 1
        j.abort(seq)
        assert j.pending_intents == 0
        assert stats.journal_aborts == 1
        j.close()
        assert scan_journal(jdir).uncommitted != []  # record stays on disk

    def test_closed_journal_refuses_appends(self, jdir):
        j = Journal(jdir, config=SMALL)
        j.close()
        with pytest.raises(FanStoreError, match="closed"):
            j.begin("write", "out/late", b"x")

    def test_reopen_adopts_committed_live_state(self, jdir, disk):
        j = Journal(jdir, config=SMALL)
        j.commit(j.begin("write", "out/a", b"aa"))
        j.begin("write", "out/b", b"bb")  # never committed
        j.close()
        j2 = reopen(jdir, disk)
        live = j2.live_state()
        assert set(live) == {"out/a"}
        assert live["out/a"]["crc"] == zlib.crc32(b"aa")
        j2.close()

    def test_sequence_numbers_never_regress_across_reopen(self, jdir, disk):
        j = Journal(jdir, config=SMALL)
        last = 0
        for i in range(3):
            last = j.begin("write", f"out/{i}", b"x")
            j.commit(last)
        j.close()
        j2 = reopen(jdir, disk)
        assert j2.begin("write", "out/next", b"y") > last
        j2.close()

    def test_an_existing_journal_opens_only_through_recovery(self, jdir):
        Journal(jdir, config=SMALL).close()
        with pytest.raises(FanStoreError, match="Journal.recover"):
            Journal(jdir, config=SMALL)

    def test_reopen_after_close_continues_the_live_state(self, jdir, disk):
        j = Journal(jdir, disk, config=SMALL)
        j.put("write", "out/a", b"aa")
        j.close()
        j2 = j.reopen()
        assert set(j2.live_state()) == {"out/a"}
        assert j2.begin("write", "out/b", b"bb") > 2
        j2.close()


class TestTornTail:
    def test_torn_tail_discarded_not_trusted(self, jdir):
        j = Journal(jdir, config=SMALL)
        j.commit(j.begin("write", "out/good", b"good"))
        j.close()
        (seg,) = sorted(jdir.glob("segment-*.waj"))
        with open(seg, "ab") as fh:
            fh.write(b"deadbeef {\"t\":\"intent\",\"half")  # no newline
        log = scan_journal(jdir)
        assert [i["path"] for i in log.committed] == ["out/good"]
        assert log.torn_records == 1

    def test_records_after_torn_line_distrusted(self, jdir):
        j = Journal(jdir, config=SMALL)
        j.commit(j.begin("write", "out/first", b"1"))
        j.commit(j.begin("write", "out/second", b"2"))
        j.close()
        (seg,) = sorted(jdir.glob("segment-*.waj"))
        lines = seg.read_bytes().splitlines(keepends=True)
        # lines are [intent-1, commit-1, intent-2, commit-2]; corrupt
        # the second intent — everything after it must be dropped
        lines[2] = b"00000000 " + lines[2][9:]
        seg.write_bytes(b"".join(lines))  # lint: allow[durable-write] test corrupts its own fixture on purpose
        log = scan_journal(jdir)
        assert [i["path"] for i in log.committed] == ["out/first"]
        assert log.torn_records >= 1

    def test_corrupt_checkpoint_ignored(self, jdir):
        j = Journal(jdir, config=SMALL)
        j.commit(j.begin("write", "out/a", b"aa"))
        j.close()
        ckpt = jdir / "checkpoint.json"
        blob = json.loads(ckpt.read_text())
        blob["seq"] = 999  # digest no longer matches
        ckpt.write_text(json.dumps(blob))  # lint: allow[durable-write] test corrupts its own fixture on purpose
        log = scan_journal(jdir)
        assert log.torn_records == 1
        assert log.checkpoint_seq == 0  # distrusted entirely
        # the committed record is still recoverable from the segments
        assert [i["path"] for i in log.committed] == ["out/a"]


class TestRotationAndCompaction:
    def test_rotation_at_record_bound(self, jdir):
        stats = JournalStats()
        j = Journal(jdir, config=SMALL, stats=stats)
        for i in range(10):
            j.commit(j.begin("write", f"out/{i}", b"x"))
        assert stats.journal_rotations > 0
        j.close()

    def test_compaction_bounds_segments(self, jdir):
        stats = JournalStats()
        j = Journal(jdir, config=SMALL, stats=stats)
        for i in range(64):
            j.commit(j.begin("write", f"out/{i}", b"y" * 32))
        assert stats.journal_compactions > 0
        assert len(list(jdir.glob("segment-*.waj"))) <= SMALL.max_segments
        assert not j.read_only
        j.close()

    def test_checkpoint_supersedes_segments(self, jdir, disk):
        j = Journal(jdir, config=SMALL)
        for i in range(8):
            j.commit(j.begin("write", f"out/{i}", bytes([i])))
        j.close()
        # reopen: open-time compaction folds everything into the
        # checkpoint and starts one fresh empty segment
        j2 = reopen(jdir, disk)
        assert len(list(jdir.glob("segment-*.waj"))) == 1
        assert set(j2.live_state()) == {f"out/{i}" for i in range(8)}
        j2.close()

    def test_brownout_when_pins_prevent_compaction(self, jdir):
        stats = JournalStats()
        j = Journal(jdir, config=SMALL, stats=stats)
        # uncommitted intents pin their segments: enough of them spread
        # across rotations forces the count past max_segments, and the
        # journal browns out rather than growing without bound
        with pytest.raises(StorageFullError):
            for i in range(100):
                j.begin("write", f"out/{i}", b"p" * 48)
        assert j.read_only
        assert stats.read_only == 1
        assert stats.storage_full_errors >= 1
        j.close()

    def test_brownout_clears_when_intents_drain(self, jdir):
        j = Journal(jdir, config=SMALL)
        seqs = []
        with pytest.raises(StorageFullError):
            for i in range(100):
                seqs.append(j.begin("write", f"out/{i}", b"p" * 48))
        assert j.read_only
        for seq in seqs:
            j.commit(seq)
        assert not j.read_only  # commit() retries compaction
        j.begin("write", "out/after", b"x")
        j.close()


class TestGroupCommit:
    def test_concurrent_writers_coalesce_fsyncs(self, jdir):
        stats = JournalStats()
        j = Journal(jdir, config=JournalConfig(low_watermark_bytes=0),
                    stats=stats)
        n, per = 8, 25
        errors: list[BaseException] = []

        def writer(tid: int) -> None:
            try:
                for i in range(per):
                    j.commit(j.begin("write", f"out/{tid}/{i}", b"d"))
            except BaseException as exc:  # pragma: no cover - surfaced below
                errors.append(exc)

        threads = [threading.Thread(target=writer, args=(t,)) for t in range(n)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        j.close()
        assert errors == []
        # every record hit a barrier, but far fewer fsyncs than records
        assert stats.journal_commits == n * per
        assert stats.journal_fsyncs < stats.journal_appends
        assert stats.journal_coalesced_syncs > 0

    def test_all_writes_survive_concurrent_run(self, jdir, disk):
        j = Journal(jdir, config=JournalConfig(low_watermark_bytes=0))
        n, per = 4, 10

        def writer(tid: int) -> None:
            for i in range(per):
                j.commit(j.begin("write", f"out/{tid}/{i}", b"d"))

        threads = [threading.Thread(target=writer, args=(t,)) for t in range(n)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        j.close()
        j2 = reopen(jdir, disk)
        assert len(j2.live_state()) == n * per
        j2.close()


class TestStorageExhaustion:
    def test_low_watermark_refuses_before_journalling(self, jdir, disk):
        stats = JournalStats()
        disk.injector = DiskFaultInjector().set_free_bytes(1024)
        j = Journal(
            jdir,
            disk,
            config=JournalConfig(low_watermark_bytes=1 << 20),
            stats=stats,
        )
        with pytest.raises(StorageFullError) as exc_info:
            j.begin("write", "out/full", b"x")
        err = exc_info.value
        import errno as _errno
        assert err.errno == _errno.ENOSPC
        assert err.filename == "out/full"
        assert stats.storage_full_errors == 1
        assert scan_journal(jdir).uncommitted == []  # refused pre-append
        j.close()

    def test_injector_fail_puts_budget(self):
        import errno as _errno
        inj = DiskFaultInjector().fail_puts("out/*", times=2)
        with pytest.raises(OSError) as e1:
            inj.check_put("out/a")
        assert e1.value.errno == _errno.ENOSPC
        with pytest.raises(OSError):
            inj.check_put("out/b")
        inj.check_put("out/c")  # budget exhausted: no error
        inj.check_put("other/path")
        assert inj.errors_injected == 2


class TestCrashPlan:
    def test_unknown_point_rejected(self):
        with pytest.raises(ValueError, match="unknown crash point"):
            CrashPlan().crash_at("no.such.point")
        with pytest.raises(ValueError, match="unknown crash point"):
            crash_point("no.such.point")

    def test_registered_points_are_free_when_unarmed(self):
        for name in CRASH_POINTS:
            crash_point(name, rank=0)  # no plan armed: must not raise

    def test_fires_exactly_once_by_default(self):
        plan = CrashPlan(seed=3).crash_at("apply.done")
        with plan:
            with pytest.raises(SimulatedCrashError) as exc_info:
                crash_point("apply.done", rank=2)
            assert exc_info.value.point == "apply.done"
            assert exc_info.value.rank == 2
            crash_point("apply.done", rank=2)  # budget spent
        assert plan.crashes_delivered == 1
        (event,) = plan.events
        assert event.fired and event.occurrence == 1

    def test_skip_spares_early_occurrences(self):
        plan = CrashPlan().crash_at("journal.commit", skip=2)
        with plan:
            crash_point("journal.commit")
            crash_point("journal.commit")
            with pytest.raises(SimulatedCrashError):
                crash_point("journal.commit")

    def test_rank_filter(self):
        plan = CrashPlan().crash_at("apply.renamed", rank=1)
        with plan:
            crash_point("apply.renamed", rank=0)
            with pytest.raises(SimulatedCrashError):
                crash_point("apply.renamed", rank=1)

    def test_probability_replays_bit_identically(self):
        def run(seed: int) -> list[bool]:
            plan = CrashPlan(seed).crash_at(
                "journal.intent", probability=0.5, times=100
            )
            outcomes = []
            with plan:
                for _ in range(50):
                    try:
                        crash_point("journal.intent")
                        outcomes.append(False)
                    except SimulatedCrashError:
                        outcomes.append(True)
            return outcomes

        assert run(8) == run(8)
        assert run(8) != run(888)  # and the seed actually matters

    def test_uninstall_disarms(self):
        plan = CrashPlan().crash_at("apply.done")
        plan.install()
        plan.uninstall()
        crash_point("apply.done")  # disarmed: must not raise

    def test_simulated_crash_is_not_an_exception(self):
        # `except Exception` recovery arms must never absorb it
        assert not issubclass(SimulatedCrashError, Exception)


class TestJournalCrashPoints:
    def test_crash_at_intent_leaves_uncommitted_record(self, jdir):
        j = Journal(jdir, config=SMALL)
        with CrashPlan().crash_at("journal.intent"):
            with pytest.raises(SimulatedCrashError):
                j.begin("write", "out/x", b"data")
        j.close()
        log = scan_journal(jdir)
        assert [i["path"] for i in log.uncommitted] == ["out/x"]
        assert log.committed == []

    def test_crash_at_commit_still_counts_as_committed(self, jdir):
        j = Journal(jdir, config=SMALL)
        seq = j.begin("write", "out/x", b"data")
        with CrashPlan().crash_at("journal.commit"):
            with pytest.raises(SimulatedCrashError):
                j.commit(seq)
        j.close()
        # the commit record was durable before the crash point fired:
        # recovery must roll this intent forward, not back
        log = scan_journal(jdir)
        assert [i["path"] for i in log.committed] == ["out/x"]


class TestStatsBinding:
    def test_bind_registers_durability_names(self):
        from repro.obs.metrics import MetricsRegistry

        reg = MetricsRegistry(rank=0, label="t")
        stats = JournalStats()
        stats.bind(reg)
        names = set(reg.names())
        assert "durability.journal.appends" in names
        assert "durability.journal.commits" in names
        assert "durability.recovery.replayed" in names
        assert "durability.read_only" in names
        assert "durability.recovery.seconds" in names


class TestJournalNeedsBlobFiles:
    def test_a_journal_over_a_ram_backend_is_a_typed_error(self, jdir):
        """Restart recovery adopts, digest-checks and unlinks blob
        files; only a ``DiskBackend`` has any. ``FanStore`` never wires
        a journal to anything else — recovery asked to says so before
        it touches the directory."""
        with pytest.raises(FanStoreError, match="needs a DiskBackend"):
            Journal.recover(jdir, RamBackend())
        assert not jdir.exists()


# -- restart recovery, as a table ---------------------------------------
#
# Each row scripts one (journal state, disk state) through the real
# write-side protocol and a real DiskBackend, "crashes" (the journal is
# closed, every record it wrote stays), and recovers over a fresh index
# of the same blob directory. The row's docstring names the mutant of
# ``Journal.recover`` it kills.

ACKED, UNACKED = b"acked-bytes", b"never-acked"
BIG = b"z" * 5000  # past embed_payload_max: no payload rides along


def _adopted(j, disk):
    """Uncommitted, bytes on disk match: the apply's rename was the
    durable commit point, only the commit record was lost. Kills:
    adoption dropped (an applied write rolled back)."""
    j.begin("write", "out/a", ACKED)
    disk.put("out/a", ACKED)


def _torn_apply(j, disk):
    """Uncommitted, the bytes behind the final name are not the
    intent's. Kills: digest match always true (a torn apply adopted)."""
    j.begin("write", "out/a", ACKED)
    disk.blob_path("out/a").write_bytes(ACKED[:4])  # lint: allow[durable-write] test tears its own fixture on purpose


def _owned_by_committed(j, disk):
    """Uncommitted rewrite whose apply never ran, over bytes a
    committed version owns. Kills: rollback ignoring the committed
    owner (acked bytes unlinked)."""
    j.put("write", "out/a", ACKED)
    j.begin("write", "out/a", UNACKED)


def _committed_present(j, disk):
    """Committed, blob present. Kills: digest match never true (a
    present blob rewritten from the payload)."""
    j.put("write", "out/a", ACKED)


def _committed_missing(j, disk):
    """Committed, blob gone, payload embedded. Kills: reapply skipped
    (a re-creatable write quarantined)."""
    j.put("write", "out/a", ACKED)
    disk.blob_path("out/a").unlink()


def _committed_torn(j, disk):
    """Committed, blob torn, payload embedded. Kills: digest match
    always true (torn bytes re-indexed and served)."""
    j.put("write", "out/a", ACKED)
    disk.blob_path("out/a").write_bytes(b"rot")  # lint: allow[durable-write] test tears its own fixture on purpose


def _committed_lost(j, disk):
    """Committed, blob gone, no payload. Kills: digest match always
    true (a missing blob counted as replayed)."""
    j.put("write", "out/a", BIG)
    disk.blob_path("out/a").unlink()


def _tmp_orphans(j, disk):
    """A crashed put's tmp in the blob directory and a crashed
    checkpoint's in the journal's. Kills: tmp GC dropped."""
    j.put("write", "out/a", ACKED)
    (disk.root / "x.blob.1.dead.tmp").write_bytes(b"half")  # lint: allow[durable-write] test plants an orphan on purpose
    (j.directory / "checkpoint.json.1.dead.tmp").write_bytes(b"{")  # lint: allow[durable-write] test plants an orphan on purpose


def _checkpoint_and_later_commit(j, disk):
    """A path in the checkpoint and in a later committed intent (a
    re-install of the same bytes). Kills: one check per journalled
    version instead of one per path (the parent verified it twice)."""
    j.put("write", "out/a", ACKED)
    j.compact()
    j.put("write", "out/a", ACKED)


_NONE = dict(replayed=0, reapplied=0, rolled_back=0, quarantined=0, tmp_gc=0)

RECOVERY_TABLE = [
    pytest.param(_adopted, dict(_NONE, replayed=1), ACKED, {"out/a": ACKED},
                 id="uncommitted-matching-adopted"),
    pytest.param(_torn_apply, dict(_NONE, rolled_back=1), None, {},
                 id="uncommitted-torn-rolled-back"),
    pytest.param(_owned_by_committed, dict(_NONE, replayed=1, rolled_back=1),
                 ACKED, {"out/a": ACKED}, id="uncommitted-over-committed-kept"),
    pytest.param(_committed_present, dict(_NONE, replayed=1), ACKED,
                 {"out/a": ACKED}, id="committed-present-replayed"),
    pytest.param(_committed_missing, dict(_NONE, reapplied=1), ACKED,
                 {"out/a": ACKED}, id="committed-missing-reapplied"),
    pytest.param(_committed_torn, dict(_NONE, reapplied=1), ACKED,
                 {"out/a": ACKED}, id="committed-torn-reapplied"),
    pytest.param(_committed_lost, dict(_NONE, quarantined=1), None, {},
                 id="committed-missing-no-payload-quarantined"),
    pytest.param(_tmp_orphans, dict(_NONE, replayed=1, tmp_gc=2), ACKED,
                 {"out/a": ACKED}, id="tmp-orphans-collected"),
    pytest.param(_checkpoint_and_later_commit, dict(_NONE, replayed=1),
                 ACKED, {"out/a": ACKED}, id="checkpoint-and-commit-once"),
]


@pytest.mark.parametrize("script, counters, blob, live", RECOVERY_TABLE)
def test_recovery_table(jdir, disk, script, counters, blob, live):
    j = Journal(jdir, disk, config=SMALL)
    script(j, disk)
    j.close()

    stats = JournalStats()
    after = DiskBackend(disk.root)
    journal, records = Journal.recover(jdir, after, config=SMALL, stats=stats)
    journal.close()

    assert {
        name: getattr(stats, f"recovery_{name}") for name in counters
    } == counters
    assert after.read_raw("out/a") == blob
    assert ("out/a" in after) == (blob is not None)
    assert {
        path: entry["crc"] for path, entry in journal.live_state().items()
    } == {path: zlib.crc32(data) for path, data in live.items()}
    assert records == []  # none of these writes carried a record
    assert list(disk.root.glob("*.tmp")) == list(jdir.glob("*.tmp")) == []
