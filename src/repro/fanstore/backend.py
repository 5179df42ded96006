"""Storage backends for compressed objects (§IV-C1).

The daemon keeps each partition's compressed file bytes either in RAM
(a hash table keyed by path — the paper's default when nodes have large
memory, e.g. the V100 cluster's RAM disk) or on the node-local file
system (the SSD case). All three present one tiny interface,
:class:`Backend`, so the daemon is backend-agnostic.
"""

from __future__ import annotations

import errno as _errno
import hashlib
import operator
import os
import threading
from pathlib import Path
from typing import ClassVar, Iterable, Protocol

from repro.errors import (
    DataIntegrityError,
    FileNotFoundInStoreError,
    StorageFullError,
)
from repro.fanstore.journal import atomic_replace, gc_tmp_files
from repro.fanstore.layout import PartitionEntry, read_partition

#: The calls a backend reads with, bound at import. ``intercept()``
#: replaces ``builtins.open``, ``os.pread`` and ``os.stat`` for the
#: whole program while it is active; a store's own reads must reach the
#: real calls (the paper's trampolines reach the real libc), not run
#: through the interposer that serves its clients.
_open = open
_pread = os.pread
_stat = os.stat


class Backend(Protocol):
    """What the daemon asks of a store of compressed objects keyed by
    store path (``test_backend.py::TestBackendContract`` holds every
    implementation to it): ``ingest`` makes one prepared partition
    file's payloads readable and returns its entries (each stat stamped
    with ``home_rank`` as it is read, when given), ``put_many`` is
    ``put`` of each ``(path, data)`` pair, ``get`` raises
    :class:`FileNotFoundInStoreError` when absent, ``discard``
    quarantines a (corrupt) copy — True if there was one.

    ``hands_out_stored`` is a class-level fact: True when ``get``
    returns the very object ``put``/``ingest`` stored (immutable
    ``bytes``), so
    the same object is the same content and the daemon need not hash it
    twice for peers. False when ``get`` is a fresh read of storage that
    can rot."""

    hands_out_stored: ClassVar[bool]

    def ingest(
        self, partition_file: Path, home_rank: int | None = None
    ) -> list[PartitionEntry]: ...
    def put(self, path: str, data: bytes) -> None: ...
    def put_many(self, items: Iterable[tuple[str, bytes]]) -> None: ...
    def get(self, path: str) -> bytes: ...
    def discard(self, path: str) -> bool: ...
    def __contains__(self, path: str) -> bool: ...
    def __len__(self) -> int: ...
    @property
    def resident_bytes(self) -> int: ...


_PATH_OF = operator.itemgetter(0)  # PartitionEntry.path
_DATA_OF = operator.itemgetter(4)  # PartitionEntry.data


def _ingest_by_put(
    self: Backend, partition_file: Path, home_rank: int | None = None
) -> list[PartitionEntry]:
    """``ingest`` for a backend that holds the payloads itself: one
    read of the partition, its payloads ``put_many`` as ``bytes``
    slices of it (the partition's buffer is dropped)."""
    entries = read_partition(
        partition_file, with_data=True, home_rank=home_rank
    )
    self.put_many(zip(map(_PATH_OF, entries), map(_DATA_OF, entries)))
    return entries


class RamBackend:
    """Compressed bytes in an in-memory hash table.

    ``get`` and ``in`` read without the lock: a stored object is
    immutable and ``put`` installs a new one, so one dict operation
    sees the value from just before or just after a concurrent write
    (the argument of :class:`~repro.fanstore.metadata.MetadataTable`)."""

    hands_out_stored = True

    def __init__(self) -> None:
        self._objects: dict[str, bytes] = {}
        self._lock = threading.Lock()

    ingest = _ingest_by_put

    def put(self, path: str, data: bytes) -> None:
        with self._lock:
            self._objects[path] = data

    def put_many(self, items: Iterable[tuple[str, bytes]]) -> None:
        """Install every pair under one hold of the lock."""
        with self._lock:
            self._objects.update(items)

    def get(self, path: str) -> bytes:
        try:
            return self._objects[path]
        except KeyError:
            raise FileNotFoundInStoreError(path) from None

    def discard(self, path: str) -> bool:
        with self._lock:
            return self._objects.pop(path, None) is not None

    def __contains__(self, path: str) -> bool:
        return path in self._objects

    def __len__(self) -> int:
        with self._lock:
            return len(self._objects)

    @property
    def resident_bytes(self) -> int:
        with self._lock:
            return sum(len(v) for v in self._objects.values())


class PartitionBackend:
    """Compressed bytes left *inside* the partition files on local disk,
    fetched by ``pread`` at the offsets recorded during the metadata
    scan — the paper's SSD mode: "if local disks (e.g., SSD) are the
    back end, the compressed data files are stored in the local file
    system" (§IV-C1), without unpacking into per-file blobs.

    Requires the partition files to be present locally (the daemon
    copies them in during load); runtime writes fall back to an overlay
    dict, since partitions are immutable once prepared.
    """

    hands_out_stored = False

    def __init__(self) -> None:
        self._index: dict[str, tuple[Path, int, int]] = {}
        self._overlay: dict[str, bytes] = {}
        self._lock = threading.Lock()
        self._handles: dict[Path, object] = {}

    def ingest(
        self, partition_file: Path, home_rank: int | None = None
    ) -> list[PartitionEntry]:
        """Metadata-only scan: the payloads stay where they are."""
        entries = read_partition(
            partition_file, with_data=False, home_rank=home_rank
        )
        for e in entries:
            self.register(
                e.path, partition_file, e.data_offset, e.compressed_size
            )
        return entries

    def register(
        self, path: str, partition_file: Path, offset: int, size: int
    ) -> None:
        """Index one entry's payload location within a partition file."""
        with self._lock:
            self._index[path] = (Path(partition_file), offset, size)

    def put(self, path: str, data: bytes) -> None:
        with self._lock:
            self._overlay[path] = data

    def put_many(self, items: Iterable[tuple[str, bytes]]) -> None:
        with self._lock:
            self._overlay.update(items)

    def _handle(self, partition_file: Path):
        """Cached read handle for a partition file. The cold open(2)
        happens outside the lock — an open on a slow disk must not
        stall every other reader; a lost insert race closes the spare
        handle."""
        with self._lock:
            handle = self._handles.get(partition_file)
        if handle is not None:
            return handle
        fresh = _open(partition_file, "rb")
        with self._lock:
            handle = self._handles.setdefault(partition_file, fresh)
        if handle is not fresh:
            fresh.close()
        return handle

    def get(self, path: str) -> bytes:
        with self._lock:
            if path in self._overlay:
                return self._overlay[path]
            entry = self._index.get(path)
            if entry is None:
                raise FileNotFoundInStoreError(path)
            partition_file, offset, size = entry
        handle = self._handle(partition_file)
        data = _pread(handle.fileno(), size, offset)
        if len(data) != size:
            # the entry is indexed but its bytes are gone: a truncated
            # or torn partition file is corruption, not absence
            raise DataIntegrityError(
                path,
                f"short pread from {partition_file.name}: "
                f"{len(data)} of {size} bytes at offset {offset}",
            )
        return data

    def discard(self, path: str) -> bool:
        """Quarantine: forget both the overlay copy and the index entry
        pointing into the (corrupt) partition region."""
        with self._lock:
            had_overlay = self._overlay.pop(path, None) is not None
            had_index = self._index.pop(path, None) is not None
            return had_overlay or had_index

    def __contains__(self, path: str) -> bool:
        with self._lock:
            return path in self._overlay or path in self._index

    def __len__(self) -> int:
        with self._lock:
            return len(self._index) + len(
                set(self._overlay) - set(self._index)
            )

    @property
    def resident_bytes(self) -> int:
        """Bytes on local disk attributable to this backend (payloads
        indexed plus overlay writes); partition headers excluded."""
        with self._lock:
            indexed = sum(size for _, _, size in self._index.values())
            overlay = sum(
                len(v) for k, v in self._overlay.items()
                if k not in self._index
            )
        return indexed + overlay

    def close(self) -> None:
        with self._lock:
            for handle in self._handles.values():
                handle.close()  # type: ignore[attr-defined]
            self._handles.clear()


class DiskBackend:
    """Compressed bytes as blob files on node-local storage (SSD mode).

    Blob names are content-addressed from the store path so arbitrary
    dataset paths can't escape ``root`` or collide with OS limits.
    """

    hands_out_stored = False

    def __init__(self, root: Path | str) -> None:
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        #: store path -> its blob's file name, kept as ``str`` so a read
        #: opens it without a trip through ``Path.__fspath__``
        self._index: dict[str, str] = {}
        self._lock = threading.Lock()
        #: optional :class:`~repro.fanstore.crash.DiskFaultInjector`
        #: consulted before every put (ENOSPC/EMFILE drills)
        self.injector = None
        #: owning rank, stamped by the daemon so crash points fired
        #: inside the atomic apply identify the dying rank
        self.rank: int | None = None

    def blob_path(self, path: str) -> Path:
        """Where ``path``'s blob lives (whether or not it exists yet)."""
        digest = hashlib.sha1(path.encode("utf-8")).hexdigest()
        return self.root / f"{digest}.blob"

    ingest = _ingest_by_put  # one atomic, fsync'd blob per payload

    def put(self, path: str, data: bytes) -> None:
        """Atomically install ``data`` as the blob for ``path``: a
        crash mid-put leaves either the old blob or the new one, never
        torn bytes that a later ``get`` would happily serve. Resource
        exhaustion (real or injected) surfaces as the typed
        :class:`~repro.errors.StorageFullError` instead of a half-
        applied write."""
        blob = self.blob_path(path)
        try:
            if self.injector is not None:
                self.injector.check_put(path)
            atomic_replace(blob, data, rank=self.rank)
        except OSError as exc:
            if exc.errno in (_errno.ENOSPC, _errno.EMFILE, _errno.EDQUOT):
                raise StorageFullError(
                    path, exc.strerror or "no space left on device"
                ) from exc
            raise
        with self._lock:
            self._index[path] = str(blob)

    def put_many(self, items: Iterable[tuple[str, bytes]]) -> None:
        """One atomic, fsync'd blob per pair, in order."""
        for path, data in items:
            self.put(path, data)

    def adopt(self, path: str) -> bool:
        """Re-index a blob that already exists on disk (restart
        recovery: the bytes survived the crash, only the in-RAM index
        died with the process). True iff the blob file is present."""
        blob = self.blob_path(path)
        if not blob.is_file():
            return False
        with self._lock:
            self._index[path] = str(blob)
        return True

    def read_raw(self, path: str) -> bytes | None:
        """The bytes on disk behind ``path``, indexed or not (restart
        recovery digest-checks them before adopting), or None."""
        try:
            return self.blob_path(path).read_bytes()
        except OSError:
            return None

    def gc_tmp(self) -> int:
        """Remove crashed puts' ``*.tmp`` orphans; returns how many."""
        return gc_tmp_files(self.root)

    def get(self, path: str) -> bytes:
        with self._lock:
            blob = self._index.get(path)
        if blob is None:
            raise FileNotFoundInStoreError(path)
        with _open(blob, "rb", buffering=0) as fh:
            return fh.readall()

    def discard(self, path: str) -> bool:
        """Quarantine: forget the (corrupt) blob and unlink it, indexed
        or not (restart recovery rolls back a torn apply this way)."""
        with self._lock:
            indexed = self._index.pop(path, None) is not None
        self.blob_path(path).unlink(missing_ok=True)
        return indexed

    def __contains__(self, path: str) -> bool:
        with self._lock:
            return path in self._index

    def __len__(self) -> int:
        with self._lock:
            return len(self._index)

    @property
    def resident_bytes(self) -> int:
        with self._lock:
            blobs = list(self._index.values())
        return sum(_stat(b).st_size for b in blobs)
