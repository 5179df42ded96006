"""The in-RAM metadata service (§IV-C).

Every FanStore process keeps the *entire* dataset's metadata in a local
hash table, so ``stat()``/``readdir()`` — the calls that melt shared
file-system metadata servers at scale (§II-B1) — never leave the node.
The table is built from local partition scans and completed by one
``allgather`` exchange (§IV-C1), after which it also knows, for every
file, which rank's daemon holds the compressed bytes (``home_rank``).

A derived directory index supports ``opendir``/``readdir`` without
touching the per-file records.
"""

from __future__ import annotations

import posixpath
import threading
from dataclasses import dataclass, replace
from typing import Iterable, Iterator

from repro.errors import FanStoreError, FileNotFoundInStoreError
from repro.fanstore.layout import (
    DEFAULT_DIR_MODE,
    FileStat,
    PartitionEntry,
)
from repro.fanstore.membership import ring_successor


def normalize(path: str) -> str:
    """Canonical store-relative path: forward slashes, no leading '/',
    no '.'/'..' segments."""
    norm = posixpath.normpath(path.replace("\\", "/")).lstrip("/")
    if norm in (".", ""):
        return ""
    if norm.startswith(".."):
        raise FanStoreError(f"path escapes the store root: {path!r}")
    return norm


@dataclass(frozen=True)
class FileRecord:
    """One file's full metadata as held in RAM."""

    path: str
    stat: FileStat
    compressor_id: int
    compressed_size: int
    home_rank: int
    partition_id: int
    data_offset: int = -1  # payload offset within its partition file

    @property
    def is_broadcast(self) -> bool:
        return self.stat.is_broadcast

    @property
    def has_digest(self) -> bool:
        """Whether a payload digest was recorded at prepare/write time
        (it travels inside ``stat``, so the metadata allgather
        propagates it to every rank for free)."""
        return self.stat.has_digest

    @property
    def crc32(self) -> int:
        """Digest of the *compressed* payload (valid iff has_digest)."""
        return self.stat.crc32


@dataclass(frozen=True)
class RereplicationStep:
    """One record's repair plan after a rank death: which surviving
    ranks can source the compressed bytes, which rank stages the
    restored copy, and who is the home afterwards. Pure data — the
    daemon executes the copy, :meth:`MetadataTable.apply_rereplication`
    commits the ownership change."""

    path: str
    partition_id: int
    old_home: int
    new_home: int
    stage_rank: int  # rank that receives the restored copy
    source_ranks: tuple[int, ...]  # surviving copy holders, ascending
    new_replicas: tuple[int, ...]  # replica set after repair (home excl.)
    compressed_size: int


class MetadataTable:
    """Thread-safe path → record map plus a directory index.

    Writers take ``_lock``; :meth:`probe` and :meth:`get` read a record
    without it. That is safe because a record is immutable (a frozen
    :class:`FileRecord`) and every write installs a whole new one under
    its key: one dict lookup sees either the value from just before a
    concurrent write or the one from just after it, exactly as if the
    lookup had taken the lock just before or just after that write.
    Each answer is one record from one lookup, so no answer mixes two
    writes. The same argument covers ``RamBackend.get`` /
    ``__contains__`` and ``DecompressedCache.__contains__``."""

    def __init__(self) -> None:
        self._lock = threading.RLock()
        self._files: dict[str, FileRecord] = {}
        self._dirs: dict[str, set[str]] = {"": set()}
        # path → ranks holding ring-replicated copies besides the home
        # rank (announced during the load-time allgather); the failover
        # tier between "ask the home rank" and "re-read the shared FS"
        self._replicas: dict[str, set[int]] = {}

    # -- construction -----------------------------------------------------

    def insert(self, record: FileRecord) -> None:
        """Add or replace one file record and index its ancestors."""
        self._index((record,), lowest_home_wins=False)

    def insert_entries(
        self, entries: Iterable[PartitionEntry], home_rank: int
    ) -> None:
        """Index a scanned partition, stamping locality (§IV-C1). An
        entry read with ``home_rank`` (``Backend.ingest`` reads so) has
        its stat stamped already and keeps it: no copy per file."""
        self._index(
            (
                FileRecord(
                    path=e.path,
                    stat=(
                        e.stat if e.stat.home_rank == home_rank
                        else e.stat.with_locality(home_rank)
                    ),
                    compressor_id=e.compressor_id,
                    compressed_size=e.compressed_size,
                    home_rank=home_rank,
                    partition_id=e.stat.partition_id,
                    data_offset=e.data_offset,
                )
                for e in entries
            ),
            lowest_home_wins=False,
        )

    def merge(self, other_records: Iterable[FileRecord]) -> None:
        """Fold records received from peers (the allgather exchange).

        Broadcast files may arrive from several ranks; the lowest
        home_rank wins deterministically so every node agrees.
        """
        self._index(other_records, lowest_home_wins=True)

    def _index(
        self, records: Iterable[FileRecord], *, lowest_home_wins: bool
    ) -> None:
        """Store a batch of records under their canonical keys and index
        their ancestors, in one lock hold. A packed partition lists a
        directory's files together, so a record whose parent is the
        previous record's only adds its name: that parent's ancestors
        are already indexed."""
        files, dirs = self._files, self._dirs
        last_parent, siblings = None, None
        with self._lock:
            for record in records:
                path = normalize(record.path)
                if not path:
                    raise FanStoreError("cannot insert the root as a file")
                if lowest_home_wins:
                    existing = files.get(path)
                    if (
                        existing is not None
                        and existing.home_rank <= record.home_rank
                    ):
                        continue
                files[path] = record
                parent, _, name = path.rpartition("/")
                if parent != last_parent:
                    last_parent = parent
                    siblings = dirs.setdefault(parent, set())
                    child = parent
                    while child:
                        child, _, base = child.rpartition("/")
                        dirs.setdefault(child, set()).add(base)
                siblings.add(name)

    def add_replica(self, path: str, rank: int) -> None:
        """Record that ``rank`` holds a replica of ``path``'s compressed
        bytes (in addition to the home rank)."""
        norm = normalize(path)
        with self._lock:
            self._replicas.setdefault(norm, set()).add(rank)

    def set_replicas(self, path: str, ranks: Iterable[int]) -> None:
        """Replace ``path``'s replica set wholesale. Snapshot adoption
        uses this: the serving peer's map is authoritative, and a union
        would resurrect stale split-era holders."""
        norm = normalize(path)
        with self._lock:
            holders = set(ranks)
            if holders:
                self._replicas[norm] = holders
            else:
                self._replicas.pop(norm, None)

    def replica_ranks(self, path: str) -> tuple[int, ...]:
        """Ranks holding replicas of ``path``, ascending (deterministic
        failover order; may include the home rank — callers skip it)."""
        norm = normalize(path)
        with self._lock:
            return tuple(sorted(self._replicas.get(norm, ())))

    def replica_count(self) -> int:
        """Number of paths with at least one known replica."""
        with self._lock:
            return len(self._replicas)

    # -- membership repair (ring reassignment) -----------------------------

    def plan_rereplication(
        self, dead_rank: int, alive_ranks: Iterable[int], size: int
    ) -> list[RereplicationStep]:
        """Deterministic repair plan for every record that lost a copy
        when ``dead_rank`` died.

        Pure function of the (converged) table + view: each surviving
        rank computes the identical plan with no coordination messages.
        The replacement copy is staged on the first alive ring successor
        of the dead rank that does not already hold the record, so
        repair load spreads the same way the original ring replication
        did. If the home died, the lowest surviving copy holder becomes
        the new home (matching :meth:`merge`'s lowest-rank-wins rule);
        with no surviving in-store copy the stage rank adopts the record
        and must source it from the shared-FS degraded path. Broadcast
        records are skipped — every rank already holds them.
        """
        alive = set(alive_ranks) - {dead_rank}
        if not alive:
            return []
        steps: list[RereplicationStep] = []
        with self._lock:
            for path in sorted(self._files):
                rec = self._files[path]
                if rec.is_broadcast:
                    continue
                copies = {rec.home_rank} | self._replicas.get(path, set())
                if dead_rank not in copies:
                    continue
                surviving = sorted(c for c in copies if c in alive)
                stage = None
                cursor = dead_rank
                for _ in range(size):
                    cursor = ring_successor(cursor, alive, size)
                    if cursor is None:
                        break
                    if cursor not in surviving:
                        stage = cursor
                        break
                if stage is None:
                    # every alive rank already holds a copy; nothing to
                    # restore beyond what the cluster can physically hold
                    continue
                if rec.home_rank == dead_rank:
                    new_home = surviving[0] if surviving else stage
                else:
                    new_home = rec.home_rank
                new_copies = set(surviving) | {stage}
                steps.append(
                    RereplicationStep(
                        path=path,
                        partition_id=rec.partition_id,
                        old_home=rec.home_rank,
                        new_home=new_home,
                        stage_rank=stage,
                        source_ranks=tuple(surviving),
                        new_replicas=tuple(
                            sorted(new_copies - {new_home})
                        ),
                        compressed_size=rec.compressed_size,
                    )
                )
        return steps

    def apply_rereplication(
        self, steps: Iterable[RereplicationStep], dead_rank: int
    ) -> int:
        """Commit a repair plan: re-home records away from the dead
        rank and swap its replica slots for the staged copies. Returns
        the number of records whose ownership changed."""
        changed = 0
        with self._lock:
            for step in steps:
                rec = self._files.get(step.path)
                if rec is None:
                    continue
                if rec.home_rank != step.new_home:
                    self._files[step.path] = replace(
                        rec,
                        home_rank=step.new_home,
                        stat=rec.stat.with_locality(step.new_home),
                    )
                    changed += 1
                self._replicas[step.path] = set(step.new_replicas)
        return changed

    # -- queries ----------------------------------------------------------

    def probe(self, key: str) -> FileRecord | None:
        """Exact-key lookup, no canonicalisation. Every key is canonical
        by construction (:meth:`insert` normalizes), so a hit *proves*
        ``key`` canonical and is the record :meth:`get` would return;
        ``None`` proves nothing — normalize, then :meth:`get`. One
        lock-free dict lookup (see the class docstring)."""
        return self._files.get(key)

    def get(self, path: str) -> FileRecord:
        """The record of ``path`` as given, else of its canonical
        spelling; lock-free like :meth:`probe`."""
        record = self._files.get(path)
        if record is None:
            norm = normalize(path)
            record = self._files.get(norm)
            if record is None:
                raise FileNotFoundInStoreError(norm)
        return record

    def stat(self, path: str) -> FileStat:
        """``stat()``: file records directly, synthesized for directories."""
        norm = normalize(path)
        with self._lock:
            rec = self._files.get(norm)
            if rec is not None:
                return rec.stat
            if norm in self._dirs:
                return FileStat(st_mode=DEFAULT_DIR_MODE, st_nlink=2)
            raise FileNotFoundInStoreError(norm)

    def exists(self, path: str) -> bool:
        norm = normalize(path)
        with self._lock:
            return norm in self._files or norm in self._dirs

    def is_dir(self, path: str) -> bool:
        with self._lock:
            return normalize(path) in self._dirs

    def is_file(self, path: str) -> bool:
        with self._lock:
            return normalize(path) in self._files

    def listdir(self, path: str = "") -> list[str]:
        """``readdir()``: sorted entry names of a directory."""
        norm = normalize(path)
        with self._lock:
            try:
                return sorted(self._dirs[norm])
            except KeyError:
                raise FileNotFoundInStoreError(norm) from None

    def scan(self, path: str = "") -> list[str]:
        """The start-up scan (§II-B1): every file path under a
        directory, in the order a recursive :meth:`listdir` walk visits
        them (each directory's entries sorted, files and
        sub-directories interleaved), read off the directory index in
        one lock hold."""
        norm = normalize(path)
        found: list[str] = []
        with self._lock:
            dirs = self._dirs
            if norm not in dirs:
                raise FileNotFoundInStoreError(norm)

            def _walk(directory: str) -> None:
                prefix = f"{directory}/" if directory else ""
                for name in sorted(dirs[directory]):
                    child = prefix + name
                    if child in dirs:
                        _walk(child)
                    else:
                        found.append(child)

            _walk(norm)
        return found

    def walk_files(self) -> Iterator[FileRecord]:
        """All file records (snapshot), in path order."""
        with self._lock:
            records = [self._files[p] for p in sorted(self._files)]
        return iter(records)

    def records(self) -> list[FileRecord]:
        with self._lock:
            return list(self._files.values())

    def local_records(self, rank: int) -> list[FileRecord]:
        """Records whose compressed bytes live on ``rank``."""
        with self._lock:
            return [r for r in self._files.values() if r.home_rank == rank]

    def __len__(self) -> int:
        with self._lock:
            return len(self._files)

    def __contains__(self, path: str) -> bool:
        return self.exists(path)

    def total_original_bytes(self) -> int:
        with self._lock:
            return sum(r.stat.st_size for r in self._files.values())

    def total_compressed_bytes(self) -> int:
        with self._lock:
            return sum(r.compressed_size for r in self._files.values())
