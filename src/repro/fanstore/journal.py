"""Write-ahead journal, atomic store mutation and restart recovery.

FanStore (the paper) treats node-local writes as fire-and-forget: the
daemon lives exactly as long as the training job, so a rank dying
mid-mutation is answered by relaunching the whole job from a checkpoint
(§V-E). Our ROADMAP north-star — a store serving many jobs — cannot
afford that: a torn blob or a metadata/bytes disagreement must be
repairable from local evidence alone. This module supplies that
evidence, and it is the only module that reads it: the daemon calls
:meth:`Journal.recover` once per launch and :meth:`Journal.put` per
mutation, and never sees a record.

Protocol (commit-after-durable-apply, :meth:`Journal.put`)::

    intent record appended + group-commit fsync     crash: rolled back
    atomic apply (tmp + fsync + rename + dir fsync) crash: rolled forward
    commit record appended, synced lazily           crash: rolled forward
    caller acks the client                          -- durable forever

The **rename + parent-dir fsync at the end of the atomic apply is the
durable commit point**: once the final name holds the new bytes, the
write is complete and recovery must keep it. The commit record is
therefore bookkeeping, not a barrier — it is appended and flushed but
carries no fsync of its own, reaching stable storage with the next
group fsync (a later intent, a rotation, a checkpoint, or close).
Recovery adopts an applied-but-uncommitted intent whenever the
on-disk bytes digest-match it; because applies replace whole files
atomically, disk-matching an intent proves that intent's apply was
the last one to complete for that path, so no sequence comparison is
needed. An acknowledged write never depends on replay: the
roll-forward is a verification pass (digest-check the bytes, re-adopt
them into the backend index), and the rollback pass deletes only what
an intent whose apply never completed left behind — bytes the client
was never told about. Whole-blob payloads therefore do not ride in
the journal; small payloads (``embed_payload_max``) are embedded
anyway so torn applies of in-place patches can be re-applied rather
than merely detected.

Recovery (:meth:`Journal.recover`, over the rank's ``DiskBackend``)
scans the directory once and folds the checkpoint and the committed
intents into one entry per path — under the multi-read/single-write
model every journalled version of a path holds the same bytes, so the
newest entry is the only one worth checking. Each entry's blob is then
checked once: re-indexed, re-applied from its payload, or quarantined.
The next incarnation is built from that same scan; a restart after
:meth:`Journal.close` (:meth:`Journal.reopen`) scans nothing.

Segments rotate at a size/record bound and are deleted once a
checkpoint (a digest-verified snapshot of the committed live state)
supersedes them. A journal that cannot compact below its segment
budget — uncommitted intents pin their segments — browns out to
read-only instead of growing without bound.

Every record line is self-validating (``crc32 <space> json``), so a
torn tail is recognised and discarded rather than mistaken for
corruption of the store itself.
"""

from __future__ import annotations

import hashlib
import json
import os
import re
import threading
import time
import uuid
import zlib
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, Any, Iterator

from repro.errors import FanStoreError, StorageFullError
from repro.fanstore.crash import crash_point
from repro.fanstore.layout import FileStat
from repro.fanstore.metadata import FileRecord
from repro.obs.metrics import MetricsRegistry
from repro.obs.tracing import NULL_SPAN, Tracer

if TYPE_CHECKING:  # backend.py imports this module
    from repro.fanstore.backend import DiskBackend

__all__ = [
    "Journal",
    "JournalConfig",
    "JournalStats",
    "RecoveredLog",
    "atomic_open",
    "atomic_replace",
    "fsync_dir",
    "gc_tmp_files",
    "scan_journal",
]

_SEGMENT_RE = re.compile(r"^segment-(\d{6})\.waj$")
CHECKPOINT_NAME = "checkpoint.json"


# ---------------------------------------------------------------------------
# Atomic-apply helpers (the single blessed way to mutate store files)
# ---------------------------------------------------------------------------


def fsync_dir(directory: Path | str) -> None:
    """Persist directory entries (renames, unlinks) themselves, where
    the platform allows opening a directory read-only."""
    try:
        dir_fd = os.open(directory, os.O_RDONLY)
    except OSError:
        return
    try:
        os.fsync(dir_fd)
    except OSError:
        pass
    finally:
        os.close(dir_fd)


def _tmp_for(path: Path) -> Path:
    """Unique sibling tmp name: pid+uuid so two writers racing on the
    same final name never clobber each other's half-written file."""
    return path.with_name(f"{path.name}.{os.getpid()}.{uuid.uuid4().hex}.tmp")


def atomic_replace(
    path: Path | str, data: bytes | str, *, rank: int | None = None
) -> None:
    """Atomically install ``data`` behind ``path``: tmp + fsync +
    rename + parent-dir fsync. A reader never sees a torn file; a crash
    at any instruction leaves either the old bytes or the new bytes
    behind the final name (plus, at worst, an orphaned ``*.tmp`` that
    recovery GCs).

    Cleanup on failure deliberately catches :class:`Exception`, not
    ``BaseException``: a :class:`~repro.fanstore.crash.SimulatedCrashError`
    must behave like ``kill -9`` and leave the tmp file on disk for the
    recovery drill to find.
    """
    path = Path(path)
    payload = data.encode("utf-8") if isinstance(data, str) else data
    tmp = _tmp_for(path)
    try:
        with open(tmp, "wb") as fh:  # lint: allow[durable-write] this IS the atomic-apply helper
            fh.write(payload)
            fh.flush()
            os.fsync(fh.fileno())
        crash_point("apply.tmp_written", rank)
        os.replace(tmp, path)  # lint: allow[durable-write] this IS the atomic-apply helper
    except Exception:
        tmp.unlink(missing_ok=True)
        raise
    crash_point("apply.renamed", rank)
    fsync_dir(path.parent)
    crash_point("apply.done", rank)


def gc_tmp_files(directory: Path | str) -> int:
    """Remove the ``*.tmp`` orphans of crashed atomic applies (all the
    tmp+rename protocol can leak) from ``directory``; returns how many."""
    orphans = list(Path(directory).glob("*.tmp"))  # none if no such directory
    for orphan in orphans:
        orphan.unlink(missing_ok=True)
    if orphans:
        fsync_dir(directory)
    return len(orphans)


@contextmanager
def atomic_open(path: Path | str) -> Iterator[Any]:
    """Streaming variant of :func:`atomic_replace` for writers that
    build a file incrementally (partition packing): yields a binary
    handle onto a tmp sibling; on clean exit the bytes are fsynced and
    renamed into place, on error the tmp is removed and nothing of the
    final name changes."""
    path = Path(path)
    tmp = _tmp_for(path)
    fh = open(tmp, "wb")  # lint: allow[durable-write] this IS the atomic-apply helper
    try:
        yield fh
        fh.flush()
        os.fsync(fh.fileno())
    except Exception:
        fh.close()
        tmp.unlink(missing_ok=True)
        raise
    fh.close()
    os.replace(tmp, path)  # lint: allow[durable-write] this IS the atomic-apply helper
    fsync_dir(path.parent)


# ---------------------------------------------------------------------------
# Wire forms
# ---------------------------------------------------------------------------


def _record_to_wire(record: FileRecord) -> dict[str, Any]:
    """JSON-safe form of a :class:`FileRecord` (the metadata a client
    write must get back after a restart — outputs live in no partition,
    so the journal is their only metadata source)."""
    return {
        "path": record.path,
        "stat": record.stat.pack().hex(),
        "compressor_id": record.compressor_id,
        "compressed_size": record.compressed_size,
        "home_rank": record.home_rank,
        "partition_id": record.partition_id,
        "data_offset": record.data_offset,
    }


def _record_from_wire(wire: dict[str, Any]) -> FileRecord:
    return FileRecord(
        path=wire["path"],
        stat=FileStat.unpack(bytes.fromhex(wire["stat"])),
        compressor_id=wire["compressor_id"],
        compressed_size=wire["compressed_size"],
        home_rank=wire["home_rank"],
        partition_id=wire["partition_id"],
        data_offset=wire["data_offset"],
    )


def _encode_line(body: dict[str, Any]) -> bytes:
    """One self-validating journal line: crc32-of-json, space, json."""
    blob = json.dumps(body, sort_keys=True, separators=(",", ":"))
    raw = blob.encode("utf-8")
    return b"%08x %s\n" % (zlib.crc32(raw), raw)


def _decode_line(line: bytes) -> dict[str, Any] | None:
    """Parse one line; None for a torn/corrupt line (bad crc, bad
    json, truncated tail)."""
    if not line.endswith(b"\n"):
        return None
    try:
        crc_hex, raw = line[:-1].split(b" ", 1)
        if int(crc_hex, 16) != zlib.crc32(raw):
            return None
        body = json.loads(raw)
    except (ValueError, json.JSONDecodeError):
        return None
    return body if isinstance(body, dict) else None


def _checkpoint_digest(seq: int, live: dict[str, Any]) -> str:
    canon = json.dumps(
        {"seq": seq, "live": live}, sort_keys=True, separators=(",", ":")
    )
    return hashlib.sha256(canon.encode("utf-8")).hexdigest()


# ---------------------------------------------------------------------------
# Configuration and stats
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class JournalConfig:
    """Tunables of one rank's write-ahead journal."""

    #: rotate the active segment past either bound
    segment_max_bytes: int = 1 << 20
    segment_max_records: int = 4096
    #: forced-compaction threshold; if compaction cannot get the
    #: segment count back under this (pinned by uncommitted intents),
    #: the journal browns out to read-only
    max_segments: int = 4
    #: payloads at or under this size ride inside the intent record so
    #: recovery can re-apply them outright (larger payloads rely on the
    #: commit-after-durable-apply protocol instead)
    embed_payload_max: int = 4096
    #: refuse new intents when the filesystem under the journal reports
    #: less free space than this — fail early with StorageFullError
    #: instead of tearing the journal mid-append; 0 disables the probe
    low_watermark_bytes: int = 4 << 20


@dataclass
class JournalStats:
    """Durability counters, bound into the registry as ``durability.*``
    (same zero-overhead bound-field pattern as ``DaemonStats``)."""

    journal_appends: int = 0  # records written (intents + commits)
    journal_commits: int = 0  # commit records written
    journal_aborts: int = 0  # intents dropped before commit (apply failed)
    journal_fsyncs: int = 0  # fsync(2) barriers actually issued
    journal_coalesced_syncs: int = 0  # syncs satisfied by another thread's barrier
    journal_bytes: int = 0  # bytes appended across all segments
    journal_rotations: int = 0  # segment rollovers
    journal_compactions: int = 0  # checkpoint-supersedes-segments events
    journal_segments: int = 1  # gauge: live segment files
    read_only: int = 0  # gauge: 1 while browned out
    storage_full_errors: int = 0  # writes refused (watermark/brownout/ENOSPC)
    recovery_replayed: int = 0  # committed intents verified present+clean
    recovery_reapplied: int = 0  # committed intents re-applied from payload
    recovery_rolled_back: int = 0  # uncommitted intents undone
    recovery_quarantined: int = 0  # committed intents whose bytes are gone
    recovery_tmp_gc: int = 0  # orphaned *.tmp files removed
    recovery_torn_records: int = 0  # journal lines discarded as torn
    recovery_seconds: float = 0.0  # gauge: wall time of the last recovery

    _GAUGES = ("journal_segments", "read_only", "recovery_seconds")

    def bind(self, metrics: MetricsRegistry) -> None:
        """Register every field as ``durability.journal.<x>`` /
        ``durability.recovery.<x>`` / ``durability.<x>``, backed by
        this object's attributes."""
        for name in self.__dataclass_fields__:
            if name.startswith(("journal_", "recovery_")):
                dotted = name.replace("_", ".", 1)
            else:
                dotted = name
            if name in self._GAUGES:
                metrics.bind_gauge(f"durability.{dotted}", self, name)
            else:
                metrics.bind_counter(f"durability.{dotted}", self, name)


# ---------------------------------------------------------------------------
# Scan (the read side of recovery)
# ---------------------------------------------------------------------------


@dataclass
class RecoveredLog:
    """What a journal directory says happened before the crash."""

    checkpoint_live: dict[str, dict[str, Any]] = field(default_factory=dict)
    checkpoint_seq: int = 0
    committed: list[dict[str, Any]] = field(default_factory=list)
    uncommitted: list[dict[str, Any]] = field(default_factory=list)
    torn_records: int = 0
    segments: int = 0
    max_seq: int = 0

    @property
    def empty(self) -> bool:
        return not (
            self.checkpoint_live or self.committed or self.uncommitted
        )


def _segment_files(directory: Path) -> list[tuple[int, Path]]:
    found = []
    if not directory.is_dir():
        return found
    for entry in directory.iterdir():
        m = _SEGMENT_RE.match(entry.name)
        if m:
            found.append((int(m.group(1)), entry))
    return sorted(found)


def scan_journal(directory: Path | str) -> RecoveredLog:
    """Parse a journal directory into its pre-crash truth.

    Torn lines (a crash mid-append) fail their per-line crc and are
    counted, and everything after a torn line *within that segment* is
    distrusted — append-only segments cannot have valid bytes past a
    torn write. Records at or below the checkpoint's sequence number
    are superseded (their effects are part of the checkpointed state)
    and skipped, which is what makes a crash between "checkpoint
    written" and "old segments deleted" harmless.
    """
    directory = Path(directory)
    log = RecoveredLog()
    ckpt_path = directory / CHECKPOINT_NAME
    if ckpt_path.exists():
        try:
            blob = json.loads(ckpt_path.read_text())
            if blob["sha256"] == _checkpoint_digest(blob["seq"], blob["live"]):
                log.checkpoint_seq = int(blob["seq"])
                log.checkpoint_live = dict(blob["live"])
            else:
                log.torn_records += 1
        except (json.JSONDecodeError, UnicodeDecodeError, KeyError,
                TypeError, ValueError):
            log.torn_records += 1

    intents: dict[int, dict[str, Any]] = {}
    committed_seqs: set[int] = set()
    for index, path in _segment_files(directory):
        log.segments += 1
        try:
            raw = path.read_bytes()
        except OSError:
            continue
        for line in raw.splitlines(keepends=True):
            body = _decode_line(line)
            if body is None:
                if line.strip():
                    log.torn_records += 1
                break  # distrust the rest of this segment
            seq = int(body.get("seq", 0))
            log.max_seq = max(log.max_seq, seq)
            if seq <= log.checkpoint_seq:
                continue  # superseded by the checkpoint
            if body.get("t") == "intent":
                intents[seq] = body
            elif body.get("t") == "commit":
                committed_seqs.add(int(body.get("ref", -1)))

    for seq in sorted(intents):
        if seq in committed_seqs:
            log.committed.append(intents[seq])
        else:
            log.uncommitted.append(intents[seq])
    return log


# ---------------------------------------------------------------------------
# The journal proper
# ---------------------------------------------------------------------------


class Journal:
    """One rank's append-only intent/commit log with group-commit
    fsync, segment rotation, checkpoint compaction, and read-only
    brownout.

    Thread-safe: appends serialise on one mutex; the fsync barrier is a
    second mutex so concurrent writers coalesce into one fsync(2) (the
    group commit) instead of queueing N of them.

    An existing journal directory opens only through :meth:`recover`
    (or :meth:`reopen`, after :meth:`close`); the constructor itself
    takes the committed state it is handed — ``live`` at sequence
    number ``seq`` — and refuses a directory that already holds a
    journal when it is handed none. The rank that crash points name
    and the disk-fault injector are ``disk``'s.
    """

    def __init__(
        self,
        directory: Path | str,
        disk: DiskBackend | None = None,
        *,
        config: JournalConfig | None = None,
        stats: JournalStats | None = None,
        live: dict[str, dict[str, Any]] | None = None,
        seq: int = 0,
    ) -> None:
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        segments = _segment_files(self.directory)
        if live is None:
            if segments or (self.directory / CHECKPOINT_NAME).exists():
                raise FanStoreError(
                    f"{self.directory} holds a journal: open it with "
                    f"Journal.recover"
                )
            live = {}
        self.disk = disk
        self.rank = disk.rank if disk is not None else 0
        self.injector = disk.injector if disk is not None else None
        self.config = config or JournalConfig()
        self.stats = stats or JournalStats()
        # lock order: _sync_lock before _lock, never the reverse
        self._lock = threading.Lock()
        self._sync_lock = threading.Lock()
        self._pending: dict[int, dict[str, Any]] = {}  # seq -> intent
        self._pending_segment: dict[int, int] = {}  # seq -> segment index
        self._retired: list[Any] = []  # rotated-away handles, closed at next sync
        self._needs_compaction = False
        self._closed = False
        self._live: dict[str, dict[str, Any]] = dict(live)
        self._seq = seq

        # Open-time compaction: checkpoint the adopted state, then
        # drop every superseded segment — the journal starts each
        # incarnation one checkpoint + one empty segment long.
        self._segment_index = max((i for i, _ in segments), default=0)
        self._write_checkpoint()
        for _, path in segments:
            path.unlink(missing_ok=True)
        fsync_dir(self.directory)
        self._segment_index += 1
        self._fh = self._open_segment(self._segment_index)
        self._segment_bytes = 0
        self._segment_records = 0
        self._synced_seq = self._seq
        self._read_only = False
        self.stats.journal_segments = 1

    # -- opening: restart recovery ----------------------------------------

    @classmethod
    def recover(
        cls,
        directory: Path | str,
        disk: DiskBackend,
        *,
        config: JournalConfig | None = None,
        stats: JournalStats | None = None,
        tracer: Tracer | None = None,
    ) -> tuple[Journal, list[FileRecord]]:
        """Restart recovery over ``disk``'s blob files, then the
        journal's next incarnation. Returns it with the metadata of the
        recovered outputs, which the caller indexes before it ingests
        anything (outputs live in no partition).

        One scan, then one entry per path — the checkpoint's, overridden
        by committed intents in sequence order, overridden by an
        uncommitted intent whose on-disk bytes digest-match it (the
        rename + dir fsync is the durable commit point; only the lazily
        synced commit record was lost, and since applies replace whole
        files, the match proves that apply was the last). Each entry's
        blob is checked once: re-indexed when it matches
        (``recovery_replayed``), re-applied from an embedded payload
        (``recovery_reapplied``), else quarantined
        (``recovery_quarantined`` — the crash drill asserts zero, since
        commit follows a durable apply). The other uncommitted intents
        were never acked: what their applies left is unlinked unless a
        recovered entry owns the path (``recovery_rolled_back``). Then
        tmp orphans go (``recovery_tmp_gc``).

        Recovery never appends to the journal, and its mutations (adopt,
        re-apply, unlink, tmp GC) are idempotent — so a crash at any
        ``recovery.*`` point simply reruns it on the next start. Only
        the constructor afterwards changes the journal itself, and it
        does so checkpoint-first.
        """
        if not hasattr(disk, "read_raw"):  # recovery works on blob files
            raise FanStoreError(
                f"a journal needs a DiskBackend, got {type(disk).__name__}"
            )
        stats = stats if stats is not None else JournalStats()
        t0 = time.monotonic()
        log = scan_journal(directory)
        stats.recovery_torn_records += log.torn_records
        span = NULL_SPAN if tracer is None else tracer.root(
            "durability.recover", rank=disk.rank, segments=log.segments
        )
        with span:
            crash_point("recovery.scanned", disk.rank)
            entries = dict(log.checkpoint_live)
            for intent in log.committed:
                entries[intent["path"]] = _live_entry(intent)
            adopted: set[str] = set()
            for intent in log.uncommitted:
                path = intent["path"]
                if path not in adopted and _on_disk(disk, path, intent):
                    entries[path] = _live_entry(intent)
                    adopted.add(path)
            live: dict[str, dict[str, Any]] = {}
            records: list[FileRecord] = []
            for path, entry in entries.items():
                if path in adopted or _on_disk(disk, path, entry):
                    disk.adopt(path)
                    stats.recovery_replayed += 1
                elif "payload" in entry:
                    disk.put(path, bytes.fromhex(entry["payload"]))
                    stats.recovery_reapplied += 1
                else:
                    disk.discard(path)
                    stats.recovery_quarantined += 1
                    continue
                live[path] = entry
                if "record" in entry:
                    records.append(_record_from_wire(entry["record"]))
            crash_point("recovery.replayed", disk.rank)
            for intent in log.uncommitted:
                if intent["path"] in adopted:
                    continue
                if intent["path"] not in live:
                    disk.discard(intent["path"])
                stats.recovery_rolled_back += 1
            stats.recovery_tmp_gc += gc_tmp_files(directory) + disk.gc_tmp()
            crash_point("recovery.done", disk.rank)
            span.tag(
                replayed=stats.recovery_replayed,
                reapplied=stats.recovery_reapplied,
                rolled_back=stats.recovery_rolled_back,
                quarantined=stats.recovery_quarantined,
                torn=stats.recovery_torn_records,
            )
        journal = cls(
            directory, disk, config=config, stats=stats, live=live,
            seq=max(log.max_seq, log.checkpoint_seq),
        )
        stats.recovery_seconds = time.monotonic() - t0
        return journal, records

    def reopen(self) -> Journal:
        """The next incarnation after :meth:`close`, over this one's
        live map and sequence number: nothing touched the directory
        since, so there is nothing to scan or check."""
        return Journal(
            self.directory, self.disk, config=self.config,
            stats=self.stats, live=self._live, seq=self._seq,
        )

    # -- plumbing ----------------------------------------------------------

    def _segment_path(self, index: int) -> Path:
        return self.directory / f"segment-{index:06d}.waj"

    def _open_segment(self, index: int):
        return open(self._segment_path(index), "ab")  # lint: allow[durable-write,blocking-under-lock] append-only journal segment (torn tails caught by per-line crc); the open under _lock is one syscall at rotation, off the per-record path

    def _write_checkpoint(self) -> None:
        # The checkpoint supersedes every record at or below its seq,
        # so it must stop *short of the oldest pending intent*: that
        # intent's effect is not in the live map yet, and a scan that
        # skipped its record would also orphan its eventual commit.
        seq = min(self._pending) - 1 if self._pending else self._seq
        blob = {
            "seq": seq,
            "live": self._live,
            "sha256": _checkpoint_digest(seq, self._live),
        }
        atomic_replace(
            self.directory / CHECKPOINT_NAME,
            json.dumps(blob),
            rank=self.rank,
        )

    @property
    def read_only(self) -> bool:
        return self._read_only

    @property
    def closed(self) -> bool:
        return self._closed

    @property
    def pending_intents(self) -> int:
        with self._lock:
            return len(self._pending)

    def live_state(self) -> dict[str, dict[str, Any]]:
        """Snapshot of the committed live map (path → entry)."""
        with self._lock:
            return {k: dict(v) for k, v in self._live.items()}

    # -- the write-side protocol ------------------------------------------

    def put(
        self,
        op: str,
        path: str,
        data: bytes,
        *,
        epoch: int = 0,
        record: FileRecord | None = None,
    ) -> None:
        """The journalled mutation: intent (durable) → atomic apply
        (``DiskBackend.put``) → commit. Only after this returns may the
        caller acknowledge anything.

        A clean apply failure aborts the intent (recovery would roll it
        back anyway; aborting just unpins its segment early). A
        simulated crash is a ``BaseException`` and deliberately skips
        the abort — the intent must stay pending on disk, exactly like
        a real ``kill -9``. ``begin`` and ``commit`` are called on the
        instance, outside the journal's locks, so a probe set on either
        sees every journalled write.
        """
        seq = self.begin(op, path, data, epoch=epoch, record=record)
        try:
            self.disk.put(path, data)
        except Exception:
            self.abort(seq)
            raise
        self.commit(seq)

    def begin(
        self,
        op: str,
        path: str,
        data: bytes,
        *,
        epoch: int = 0,
        offset: int | None = None,
        record: FileRecord | None = None,
    ) -> int:
        """Append + fsync an intent record; returns its sequence number
        (the handle :meth:`commit` takes). Raises
        :class:`~repro.errors.StorageFullError` — before touching the
        journal — when browned out or under the free-space watermark.
        """
        if self._closed:
            raise FanStoreError("journal is closed")
        if self._read_only:
            self.stats.storage_full_errors += 1
            raise StorageFullError(
                path, "journal browned out to read-only (cannot compact)"
            )
        self._check_watermark(path)
        if (
            record is not None
            and record.stat.has_digest
            and record.compressed_size == len(data)
        ):
            crc = record.stat.crc32  # the writer already hashed these bytes
        else:
            crc = zlib.crc32(data) & 0xFFFFFFFF
        body: dict[str, Any] = {
            "t": "intent",
            "op": op,
            "path": path,
            "crc": crc,
            "size": len(data),
            "epoch": epoch,
        }
        if offset is not None:
            body["offset"] = offset
        if record is not None:
            body["record"] = _record_to_wire(record)
        if len(data) <= self.config.embed_payload_max:
            body["payload"] = data.hex()
        seq = self._append(body, pending=True)
        self._sync(seq)
        crash_point("journal.intent", self.rank)
        return seq

    def commit(self, seq: int) -> None:
        """Append the commit record for intent ``seq``. Only after
        this returns may the caller acknowledge the write.

        No fsync here: the atomic apply preceding this call ended in
        rename + parent-dir fsync, and *that* is the durable commit
        point — recovery adopts an applied-but-uncommitted intent
        whose on-disk bytes digest-match it. The record is flushed to
        the OS (so it survives a process crash immediately) and rides
        to stable storage with the next group fsync: a later intent,
        a rotation, a checkpoint, or close. This halves the mandatory
        fsyncs on the acked-write path.

        The live-map update rides inside the append's critical section
        (``commit_ref``): a concurrent :meth:`compact` snapshots
        ``_live`` at a checkpoint ``seq`` past this commit record, so
        the entry must already be live by the time the record exists —
        otherwise the checkpoint supersedes the record while omitting
        its effect, and the path silently drops from recovery. The
        apply preceding this call is already durable, so checkpointing
        the entry before its commit record reaches disk only rolls an
        unacked-but-complete write forward — never a torn one.
        """
        with self._lock:
            if seq not in self._pending:
                raise FanStoreError(f"commit of unknown intent seq {seq}")
        self._append({"t": "commit", "ref": seq}, commit_ref=seq, flush=True)
        self.stats.journal_commits += 1
        crash_point("journal.commit", self.rank)
        if self._read_only:
            # a drained intent may have unpinned enough segments
            self.compact()

    def abort(self, seq: int) -> None:
        """Forget an intent whose apply failed cleanly (the caller is
        about to propagate an error instead of acking): recovery would
        roll it back anyway, this just unpins its segment early."""
        with self._lock:
            if self._pending.pop(seq, None) is not None:
                self.stats.journal_aborts += 1
            self._pending_segment.pop(seq, None)

    def _append(
        self,
        body: dict[str, Any],
        *,
        pending: bool = False,
        commit_ref: int | None = None,
        flush: bool = False,
    ) -> int:
        line_bytes = None
        with self._lock:
            if self._closed:
                raise FanStoreError("journal is closed")
            self._seq += 1
            seq = body["seq"] = self._seq
            line = _encode_line(body)
            # rotation check first so a record never straddles segments
            if self._segment_records >= self.config.segment_max_records or (
                self._segment_bytes + len(line)
                > self.config.segment_max_bytes
                and self._segment_records > 0
            ):
                self._rotate_locked()
            self._fh.write(line)
            if flush:
                # out of the Python buffer into the page cache: one
                # write(2), no barrier — survives a process crash now,
                # a power loss at the next group fsync
                self._fh.flush()
            self._segment_bytes += len(line)
            self._segment_records += 1
            if pending:
                self._pending[seq] = body
                self._pending_segment[seq] = self._segment_index
            if commit_ref is not None:
                entry = self._pending.pop(commit_ref, None)
                self._pending_segment.pop(commit_ref, None)
                if entry is not None:
                    self._live[entry["path"]] = _live_entry(entry)
            line_bytes = len(line)
        self.stats.journal_appends += 1
        self.stats.journal_bytes += line_bytes
        return seq

    def _rotate_locked(self) -> None:
        """Roll to a fresh segment (caller holds ``_lock``). The old
        segment is fsynced here and its handle parked on ``_retired``
        (closed at the next sync barrier — a concurrent :meth:`_sync`
        may still be fsyncing it, and fsync of a closed fd raises), so
        the barrier only ever has to cover the active handle."""
        self._fh.flush()
        os.fsync(self._fh.fileno())  # lint: allow[blocking-under-lock] segment handoff: the closing segment must be durable before it stops being the sync target
        self._retired.append(self._fh)
        self._segment_index += 1
        self._fh = self._open_segment(self._segment_index)
        self._segment_bytes = 0
        self._segment_records = 0
        self.stats.journal_rotations += 1
        self.stats.journal_segments = len(_segment_files(self.directory))
        crash_point("journal.rotate", self.rank)
        if self.stats.journal_segments > self.config.max_segments:
            self._needs_compaction = True

    def _sync(self, seq: int) -> None:
        """Group-commit barrier: make record ``seq`` durable. Threads
        that arrive while another thread's fsync is in flight wait on
        the mutex and then find their record already covered. Rotated
        segments were fsynced during rotation, so fsyncing the active
        handle durably covers every record up to the captured ``_seq``.
        """
        if self._synced_seq >= seq:  # unlocked fast path (int read)
            self.stats.journal_coalesced_syncs += 1
            return
        with self._sync_lock:
            if self._synced_seq >= seq:
                self.stats.journal_coalesced_syncs += 1
                return
            with self._lock:
                retired, self._retired = self._retired, []
                fh = self._fh
                covered = self._seq
            for old in retired:
                old.close()
            fh.flush()
            os.fsync(fh.fileno())  # lint: allow[blocking-under-lock] group commit: the sync mutex is what coalesces concurrent fsyncs into one barrier
            self._synced_seq = covered
            self.stats.journal_fsyncs += 1
        if self._needs_compaction:
            self._needs_compaction = False
            self.compact()

    # -- compaction and brownout ------------------------------------------

    def compact(self) -> bool:
        """Checkpoint the live state and delete superseded segments.
        Returns True when the segment count is back under budget;
        otherwise the journal browns out to read-only (uncommitted
        intents pin their segments, and an unbounded journal is worse
        than refusing writes)."""
        with self._lock:
            if self._closed:
                return True
            self._write_checkpoint()
            crash_point("journal.checkpoint", self.rank)
            pinned = set(self._pending_segment.values())
            for index, path in _segment_files(self.directory):
                if index == self._segment_index or index in pinned:
                    continue
                path.unlink(missing_ok=True)
            fsync_dir(self.directory)
            self.stats.journal_compactions += 1
            remaining = len(_segment_files(self.directory))
            self.stats.journal_segments = remaining
            over = remaining > self.config.max_segments
            if over and not self._read_only:
                self._read_only = True
                self.stats.read_only = 1
            elif not over and self._read_only:
                self._read_only = False
                self.stats.read_only = 0
            return not over

    def _check_watermark(self, path: str) -> None:
        low = self.config.low_watermark_bytes
        if low <= 0:
            return
        try:
            st = os.statvfs(self.directory)
        except OSError:
            return
        free = st.f_bavail * st.f_frsize
        if self.injector is not None:
            free = self.injector.free_bytes(free)
        if free < low:
            self.stats.storage_full_errors += 1
            raise StorageFullError(
                path,
                f"free space {free} B under the journal's "
                f"{low} B low watermark",
            )

    def close(self) -> None:
        with self._sync_lock:
            with self._lock:
                if self._closed:
                    return
                self._closed = True
                retired, self._retired = self._retired, []
                for old in retired:
                    old.close()
                try:
                    self._fh.flush()
                    os.fsync(self._fh.fileno())  # lint: allow[blocking-under-lock] final barrier at close; no writers remain
                except (OSError, ValueError):
                    pass
                self._fh.close()


def _on_disk(disk: DiskBackend, path: str, entry: dict[str, Any]) -> bool:
    """Whether ``path``'s blob holds exactly the bytes ``entry``
    journalled (size and crc32)."""
    data = disk.read_raw(path)
    return (
        data is not None
        and len(data) == entry["size"]
        and zlib.crc32(data) == entry["crc"]
    )


def _live_entry(intent: dict[str, Any]) -> dict[str, Any]:
    """The slice of an intent that the live map / checkpoint keeps."""
    entry = {
        "op": intent["op"],
        "crc": intent["crc"],
        "size": intent["size"],
        "epoch": intent.get("epoch", 0),
    }
    if "record" in intent:
        entry["record"] = intent["record"]
    if "payload" in intent:
        entry["payload"] = intent["payload"]
    return entry
