"""Storage backends for compressed objects (§IV-C1).

The daemon keeps each partition's compressed file bytes either in RAM
(a hash table keyed by path — the paper's default when nodes have large
memory, e.g. the V100 cluster's RAM disk) or on the node-local file
system (the SSD case: each partition staged whole, read by ``pread``;
what a run writes kept as one blob file per path). Both present one
tiny interface, :class:`Backend`, so the daemon is backend-agnostic.
"""

from __future__ import annotations

import errno as _errno
import hashlib
import operator
import os
import threading
import weakref
from pathlib import Path
from typing import ClassVar, Iterable, Protocol

from repro.errors import (
    DataIntegrityError,
    FileNotFoundInStoreError,
    StorageFullError,
)
from repro.fanstore.journal import atomic_open, atomic_replace, gc_tmp_files
from repro.fanstore.layout import PartitionEntry, read_partition

#: The calls a backend reads and stages with, bound at import.
#: ``intercept()`` replaces ``builtins.open`` and these ``os`` calls for
#: the whole program while it is active; a store's own reads must reach the
#: real calls (the paper's trampolines reach the real libc), not run
#: through the interposer that serves its clients.
_open = open
_pread = os.pread
_stat = os.stat
_os_open = os.open
_os_close = os.close
_fstat = os.fstat


class Backend(Protocol):
    """What the daemon asks of a store of compressed objects keyed by
    store path (``test_backend.py::TestBackendContract`` holds every
    implementation to it): ``ingest`` makes one prepared partition
    file's payloads readable and returns its entries (each stat stamped
    with ``home_rank`` as it is read, when given), ``put_many`` is
    ``put`` of each ``(path, data)`` pair, ``get`` raises
    :class:`FileNotFoundInStoreError` when absent, ``discard``
    quarantines a (corrupt) copy — True if there was one. What
    ``ingest`` made readable and what ``put`` wrote answer alike; a
    ``put`` supersedes either.

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

    def ingest(
        self, partition_file: Path, home_rank: int | None = None
    ) -> list[PartitionEntry]:
        """One read of the partition, its payloads installed as
        ``bytes`` slices of it (the partition's buffer is dropped)."""
        entries = read_partition(
            partition_file, with_data=True, home_rank=home_rank
        )
        self.put_many(zip(map(_PATH_OF, entries), map(_DATA_OF, entries)))
        return entries

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


class DiskBackend:
    """Compressed bytes on node-local storage (§IV-C1's SSD case: "the
    compressed data files are stored in the local file system").

    ``ingest`` stages a partition whole into ``root``, and ``get``
    ``pread``s a payload out of that copy at its scanned offset. What a
    run writes is one blob file per path (``put``), read first; its name
    is content-addressed from the store path, so no dataset path can
    escape ``root``. The journal covers the blobs only: a staged copy is
    a cache of the shared file system, staged again by every launch.
    ``get`` and ``in`` take no lock, as in :class:`RamBackend`."""

    hands_out_stored = False

    def __init__(self, root: Path | str) -> None:
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        #: store path -> its blob's file name, kept as ``str`` so a read
        #: opens it without a trip through ``Path.__fspath__``
        self._index: dict[str, str] = {}
        #: store path -> (its staged partition's descriptor, offset, size)
        self._packed: dict[str, tuple[int, int, int]] = {}
        #: staged file name -> closes that descriptor (at a re-stage, or
        #: once this backend is freed)
        self._staged: dict[str, weakref.finalize] = {}
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

    def ingest(
        self, partition_file: Path, home_rank: int | None = None
    ) -> list[PartitionEntry]:
        """Copy ``partition_file`` to its own name in ``root`` through
        :func:`~repro.fanstore.journal.atomic_open`, the bytes moved in
        the kernel, and index its entries by offset from a metadata-only
        scan of the copy before its rename (a torn partition stages
        nothing). A copy already there is replaced, never trusted; the
        descriptor of one this backend staged is closed."""
        staged = self.root / Path(partition_file).name
        source = _os_open(partition_file, os.O_RDONLY)
        try:
            with atomic_open(staged) as fh:
                size, sent = _fstat(source).st_size, 0
                while sent < size:  # sendfile: no byte enters Python
                    n = os.sendfile(fh.fileno(), source, sent, size - sent)
                    if not n:
                        break  # the source shrank: the scan says how
                    sent += n
                fh.seek(0)
                entries = read_partition(
                    fh, with_data=False, home_rank=home_rank
                )
        finally:
            _os_close(source)
        fd = _os_open(staged, os.O_RDONLY)
        closer = weakref.finalize(self, _os_close, fd)
        with self._lock:
            self._packed.update(
                (e.path, (fd, e.data_offset, e.compressed_size))
                for e in entries
            )
            replaced = self._staged.get(staged.name)
            self._staged[staged.name] = closer
        if replaced is not None:
            replaced()
        return entries

    def put(self, path: str, data: bytes) -> None:
        """Atomically install ``data`` as the blob for ``path``, over any
        staged payload of it: a crash mid-put leaves either the
        old blob or the new one, never torn bytes that a later ``get``
        would happily serve. Resource exhaustion (real or injected)
        surfaces as the typed :class:`~repro.errors.StorageFullError`
        instead of a half-applied write."""
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
            self._packed.pop(path, None)

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
        """The bytes on disk behind ``path``'s blob, indexed or not
        (restart recovery digest-checks them before adopting), or None."""
        try:
            return self.blob_path(path).read_bytes()
        except OSError:
            return None

    def gc_tmp(self) -> int:
        """Remove the ``*.tmp`` orphans of crashed puts and interrupted
        staging copies; returns how many."""
        return gc_tmp_files(self.root)

    def get(self, path: str) -> bytes:
        # the staged entry first: a put indexes its blob before it drops
        # the entry, so a put between the two lookups shows one of them
        packed = self._packed.get(path)
        blob = self._index.get(path)
        if blob is not None:
            with _open(blob, "rb", buffering=0) as fh:
                return fh.readall()
        if packed is None:
            raise FileNotFoundInStoreError(path)
        fd, offset, size = packed
        data = _pread(fd, size, offset)
        if len(data) != size:  # a truncated copy: corruption, not absence
            raise DataIntegrityError(
                path, f"short pread from its staged partition: "
                f"{len(data)} of {size} bytes at offset {offset}",
            )
        return data

    def discard(self, path: str) -> bool:
        """Quarantine: forget the (corrupt) staged payload and blob, the
        blob unlinked indexed or not (recovery's rollback of a torn
        apply)."""
        with self._lock:
            indexed = self._index.pop(path, None) is not None
            packed = self._packed.pop(path, None) is not None
        self.blob_path(path).unlink(missing_ok=True)
        return indexed or packed

    def __contains__(self, path: str) -> bool:
        return path in self._packed or path in self._index  # as in get

    def __len__(self) -> int:
        with self._lock:
            return len(self._index.keys() | self._packed.keys())

    @property
    def resident_bytes(self) -> int:
        """Every blob's bytes, and every staged payload no blob holds."""
        with self._lock:
            blobs = list(self._index.values())
            packed = sum(
                size for path, (_, _, size) in self._packed.items()
                if path not in self._index
            )
        return packed + sum(_stat(b).st_size for b in blobs)
