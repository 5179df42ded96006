"""The POSIX-compliant client interface (§IV-A, Listing 1).

Implements the nine intercepted calls — ``open``, ``close``, ``read``,
``lseek``, ``write``, ``opendir``, ``readdir``, ``closedir``, ``stat`` —
over a :class:`~repro.fanstore.daemon.FanStoreDaemon`, entirely in user
space, with the paper's *multi-read single-write* consistency model:
any number of concurrent readers per file, at most one writer per path
ever, and a written file is sealed at ``close()`` (reopening it for
writing raises, reopening for reading is allowed).

File descriptors are small integers private to the client; each carries
its own offset, so ``lseek``/``read`` compose like the kernel's. A
Pythonic file-object facade (:meth:`FanStoreClient.open_file`) wraps the
descriptor API for the interception layer.
"""

from __future__ import annotations

import io
import os
import threading
import time
from dataclasses import dataclass
from typing import Sequence

from repro.errors import (
    BadFileDescriptorError,
    FileNotFoundInStoreError,
    InvalidArgumentError,
    WriteViolationError,
)
from repro.fanstore.daemon import FanStoreDaemon
from repro.fanstore.layout import (
    DEFAULT_BLOCK_SIZE,
    DEFAULT_FILE_MODE,
    FLAG_HAS_DIGEST,
    FLAG_OUTPUT,
    FileStat,
    blob_crc32,
)
from repro.fanstore.metadata import FileRecord, normalize

O_RDONLY = os.O_RDONLY
O_WRONLY = os.O_WRONLY
O_RDWR = os.O_RDWR
O_CREAT = os.O_CREAT
O_TRUNC = os.O_TRUNC
O_APPEND = os.O_APPEND

_ACCMODE = os.O_RDONLY | os.O_WRONLY | os.O_RDWR


@dataclass
class _OpenFile:
    path: str
    offset: int
    writable: bool
    data: bytes | None  # reader: pinned cache bytes
    buffer: io.BytesIO | None  # writer: accumulation buffer


class _DirHandle:
    """An ``opendir`` stream: readdir() yields one name per call."""

    __slots__ = ("path", "_names", "_pos", "closed")

    def __init__(self, path: str, names: list[str]) -> None:
        self.path = path
        self._names = names
        self._pos = 0
        self.closed = False

    def readdir(self) -> str | None:
        """Next entry name, or None at end-of-directory."""
        if self.closed:
            raise BadFileDescriptorError(
                "readdir on closed directory stream", path=self.path
            )
        if self._pos >= len(self._names):
            return None
        name = self._names[self._pos]
        self._pos += 1
        return name

    def rewind(self) -> None:
        self._pos = 0

    def closedir(self) -> None:
        self.closed = True


class FanStoreClient:
    """POSIX-style file API bound to one daemon (one rank)."""

    def __init__(self, daemon: FanStoreDaemon) -> None:
        self.daemon = daemon
        self._lock = threading.Lock()
        self._fds: dict[int, _OpenFile] = {}
        self._next_fd = 3  # stdin/stdout/stderr reserved, like a kernel
        # Paths sealed by the single-write rule (written then closed),
        # and paths currently open for writing.
        self._sealed: set[str] = set()
        self._writing: set[str] = set()

    # -- open/close -------------------------------------------------------

    def open(self, path: str, flags: int = O_RDONLY, mode: int = 0o644) -> int:
        """``open(2)``: returns a descriptor. Readers hit the Figure 2
        path (decompress into the pinned cache); writers start an output
        buffer subject to the single-write rule. A reader's ``path``
        goes down as given: the daemon canonicalises it, once."""
        accmode = flags & _ACCMODE
        if accmode == O_RDONLY:
            return self._open_reader(path)
        norm = normalize(path)
        if accmode == O_RDWR:
            raise WriteViolationError(
                "FanStore's multi-read single-write model has no O_RDWR",
                path=norm,
            )
        return self._open_writer(norm, flags, mode)

    def _check_not_writing(self, path: str) -> None:
        """The read side of the single-write rule. ``_writing`` holds
        canonical paths, so ``path`` is normalized to compare — but only
        when there is something to compare against. With nothing open
        for writing the lock is not taken either: a reader racing the
        first writer's ``open`` is ordered before it, as it would be had
        it taken the lock first."""
        if not self._writing:
            return
        with self._lock:
            if self._writing and normalize(path) in self._writing:
                raise WriteViolationError(
                    f"{path}: still open for writing", path=path
                )

    def _open_reader(self, path: str) -> int:
        self._check_not_writing(path)
        data = self.daemon.open_file(path)  # raises if absent
        with self._lock:
            fd = self._next_fd
            self._next_fd += 1
            self._fds[fd] = _OpenFile(
                path=path, offset=0, writable=False, data=data, buffer=None
            )
            return fd

    def _open_writer(self, path: str, flags: int, mode: int) -> int:
        if not flags & O_CREAT:
            raise WriteViolationError(
                f"{path}: output files must be created (O_CREAT)", path=path
            )
        with self._lock:
            if path in self._sealed:
                raise WriteViolationError(
                    f"{path}: already written and sealed (single-write model)",
                    path=path,
                )
            if path in self._writing:
                raise WriteViolationError(
                    f"{path}: another descriptor is writing it", path=path
                )
            if self.daemon.metadata.is_file(path):
                raise WriteViolationError(
                    f"{path}: exists in the packaged dataset (read-only)",
                    path=path,
                )
            self._writing.add(path)
            fd = self._next_fd
            self._next_fd += 1
            self._fds[fd] = _OpenFile(
                path=path,
                offset=0,
                writable=True,
                data=None,
                buffer=io.BytesIO(),
            )
            return fd

    def close(self, fd: int) -> None:
        """``close(2)``: readers unpin the cache entry; writers seal the
        file — the buffer is dumped to the backend and the metadata
        forwarded to its owner rank (§V-D site 4, Figure 4)."""
        with self._lock:
            state = self._fds.pop(fd, None)
        if state is None:
            raise BadFileDescriptorError(f"close of unknown fd {fd}")
        if not state.writable:
            self.daemon.close_file(state.path)
            return
        assert state.buffer is not None
        data = state.buffer.getvalue()
        # a failed seal (ENOSPC, say) leaves no descriptor writing the
        # path, so the path leaves _writing either way
        sealed = False
        try:
            # Optional write-path compression (checkpoints/logs are written
            # once; a dense codec costs nothing on the training fast path).
            stored = data
            compressor_id = 0
            comp_name = self.daemon.config.output_compressor
            if comp_name is not None:
                compressor = self.daemon.registry.get(comp_name)
                t0 = time.perf_counter()
                packed = compressor.compress(data)
                dt = time.perf_counter() - t0
                # write-path codec metrics mirror the read path's decode
                # metrics (codec.<name>.decode_*); writes are not hot, so
                # every encode is observed, not sampled
                metrics = self.daemon.metrics
                metrics.histogram(
                    f"codec.{compressor.name}.encode_seconds"
                ).observe(dt)
                metrics.counter(
                    f"codec.{compressor.name}.encode_bytes"
                ).inc(len(data))
                if len(packed) < len(data):
                    stored = packed
                    compressor_id = compressor.compressor_id
            now_ns = time.time_ns()
            stat = FileStat(
                st_mode=DEFAULT_FILE_MODE,
                st_size=len(data),
                st_blksize=DEFAULT_BLOCK_SIZE,
                st_blocks=(len(data) + 511) // 512,
                st_mtime_ns=now_ns,
                st_ctime_ns=now_ns,
                st_atime_ns=now_ns,
                home_rank=self.daemon.rank,
                flags=FLAG_OUTPUT | FLAG_HAS_DIGEST,
                crc32=blob_crc32(stored),
            )
            record = FileRecord(
                path=state.path,
                stat=stat,
                compressor_id=compressor_id,
                compressed_size=len(stored),
                home_rank=self.daemon.rank,
                partition_id=0,
            )
            self.daemon.store_output(state.path, stored, record)
            sealed = True
        finally:
            with self._lock:
                self._writing.discard(state.path)
                if sealed:
                    self._sealed.add(state.path)

    # -- read/seek/write ----------------------------------------------------

    def _state(self, fd: int) -> _OpenFile:
        with self._lock:
            try:
                return self._fds[fd]
            except KeyError:
                raise BadFileDescriptorError(f"unknown fd {fd}") from None

    def read(self, fd: int, size: int = -1) -> bytes:
        """``read(2)`` from the cache region (Figure 3); advances offset."""
        state = self._state(fd)
        if state.writable:
            raise BadFileDescriptorError(
                f"fd {fd} is write-only", path=state.path
            )
        assert state.data is not None
        if size < 0:
            size = len(state.data) - state.offset
        chunk = state.data[state.offset : state.offset + size]
        state.offset += len(chunk)
        return chunk

    def pread(self, fd: int, size: int, offset: int) -> bytes:
        """Positional read; does not move the descriptor offset."""
        state = self._state(fd)
        if state.writable:
            raise BadFileDescriptorError(
                f"fd {fd} is write-only", path=state.path
            )
        assert state.data is not None
        if offset < 0 or size < 0:
            raise InvalidArgumentError(
                f"pread of {size} bytes at {offset}", path=state.path
            )
        return state.data[offset : offset + size]

    def lseek(self, fd: int, offset: int, whence: int = os.SEEK_SET) -> int:
        """``lseek(2)``; returns the new offset."""
        state = self._state(fd)
        if state.writable:
            base_len = state.buffer.getbuffer().nbytes  # type: ignore[union-attr]
        else:
            base_len = len(state.data)  # type: ignore[arg-type]
        if whence == os.SEEK_SET:
            new = offset
        elif whence == os.SEEK_CUR:
            new = state.offset + offset
        elif whence == os.SEEK_END:
            new = base_len + offset
        else:
            raise InvalidArgumentError(
                f"bad whence {whence}", path=state.path
            )
        if new < 0:
            raise InvalidArgumentError(
                f"seek before start ({new})", path=state.path
            )
        state.offset = new
        if state.writable:
            state.buffer.seek(new)  # type: ignore[union-attr]
        return new

    def write(self, fd: int, data: bytes) -> int:
        """``write(2)`` into the output buffer; returns bytes written."""
        state = self._state(fd)
        if not state.writable:
            raise BadFileDescriptorError(
                f"fd {fd} is read-only", path=state.path
            )
        assert state.buffer is not None
        written = state.buffer.write(data)
        state.offset = state.buffer.tell()
        return written

    # -- metadata ----------------------------------------------------------

    def fstat(self, fd: int) -> FileStat:
        """``fstat(2)``: metadata through an open descriptor. For a
        writer the size reflects the bytes buffered so far."""
        state = self._state(fd)
        if state.writable:
            assert state.buffer is not None
            size = state.buffer.getbuffer().nbytes
            return FileStat(st_mode=DEFAULT_FILE_MODE, st_size=size)
        return self.stat(state.path)

    def stat(self, path: str) -> FileStat:
        """``stat(2)`` from the RAM table — no server round trip."""
        norm = normalize(path)
        try:
            return self.daemon.metadata.stat(norm)
        except FileNotFoundInStoreError:
            rec = self.daemon.stat_any(norm)
            if rec is None:
                raise
            return rec.stat

    def exists(self, path: str) -> bool:
        try:
            self.stat(path)
            return True
        except FileNotFoundInStoreError:
            return False

    def listdir(self, path: str = "") -> list[str]:
        return self.daemon.metadata.listdir(path)

    def opendir(self, path: str = "") -> _DirHandle:
        """``opendir(3)``: snapshot stream over the directory."""
        return _DirHandle(normalize(path), self.listdir(path))

    # -- conveniences --------------------------------------------------------

    def read_file(self, path: str) -> bytes:
        """Whole-file read: the same bytes ``open``/``read``/``close``
        return, without the descriptor nobody would see and without the
        pin nobody could observe (:meth:`FanStoreDaemon.read_file`)."""
        self._check_not_writing(path)
        return self.daemon.read_file(path)  # raises if absent

    def read_files(self, paths: Sequence[str]) -> list[bytes]:
        """``[read_file(p) for p in paths]`` — same bytes, same order,
        same errors — with the batch's remote files fetched in one
        exchange per home rank (:meth:`FanStoreDaemon.fetch_many`;
        ``docs/daemon-pipeline.md`` §3 lists what is never batched). A
        fetched blob is decompressed as the cache's in-flight miss of
        its key and never pinned (:meth:`FanStoreDaemon.read_fetched`);
        every path the exchange did not settle is a plain
        :meth:`read_file`."""
        daemon = self.daemon
        fetched = daemon.fetch_many(paths)
        if not fetched:  # one rank, nothing remote, hedged, traced, ...
            return [self.read_file(path) for path in paths]
        out = []
        for path in paths:
            hit = fetched.pop(path, None)  # a repeated path: fetched once
            if hit is None:
                out.append(self.read_file(path))
                continue
            self._check_not_writing(path)
            out.append(daemon.read_fetched(path, *hit))
        return out

    def write_file(self, path: str, data: bytes) -> None:
        """Whole-file write through the single-write path."""
        fd = self.open(path, O_WRONLY | O_CREAT)
        try:
            self.write(fd, data)
        finally:
            self.close(fd)

    def open_file(self, path: str, mode: str = "rb") -> "FanStoreFile":
        """A Python file object over the descriptor API (used by the
        interception layer to stand in for ``builtins.open``)."""
        if mode in ("rb", "r"):
            fd = self.open(path, O_RDONLY)
        elif mode in ("wb", "w", "xb", "x"):
            fd = self.open(path, O_WRONLY | O_CREAT)
        else:
            raise InvalidArgumentError(
                f"unsupported mode {mode!r}", path=path
            )
        text = "b" not in mode
        return FanStoreFile(self, fd, path, text=text)

    @property
    def open_fd_count(self) -> int:
        with self._lock:
            return len(self._fds)


class FanStoreFile:
    """Minimal file-object adapter (context manager, read/write/seek)."""

    def __init__(
        self, client: FanStoreClient, fd: int, path: str, *, text: bool = False
    ) -> None:
        self._client = client
        self.fd = fd
        self.name = path
        self._text = text
        self._closed = False

    def read(self, size: int | None = -1):
        """``size`` bytes, or the rest for ``-1`` / ``None``; any other
        negative size is refused (EINVAL), as ``io`` readers refuse it."""
        if size is None:
            size = -1
        elif size < -1:
            raise InvalidArgumentError(
                f"read length must be non-negative or -1, not {size}",
                path=self.name,
            )
        data = self._client.read(self.fd, size)
        return data.decode("utf-8") if self._text else data

    def write(self, data) -> int:
        if self._text and isinstance(data, str):
            data = data.encode("utf-8")
        return self._client.write(self.fd, data)

    def seek(self, offset: int, whence: int = os.SEEK_SET) -> int:
        return self._client.lseek(self.fd, offset, whence)

    def tell(self) -> int:
        return self._client._state(self.fd).offset

    def close(self) -> None:
        if not self._closed:
            self._client.close(self.fd)
            self._closed = True

    @property
    def closed(self) -> bool:
        return self._closed

    def __enter__(self) -> "FanStoreFile":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __iter__(self):
        """Line iteration (log-file tailing in the examples)."""
        remainder = self.read()
        lines = remainder.splitlines(keepends=True)
        return iter(lines)
