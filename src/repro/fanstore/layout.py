"""The compressed data representation (Table I).

A *partition* is a flat binary file:

+------------+-----------------------------------------------+
| 4 bytes    | number of files (uint32 LE)                   |
+------------+-----------------------------------------------+
| per file:  | 256 B path · 2 B compressor id · 144 B stat · |
|            | 8 B compressed size · compressed data         |
+------------+-----------------------------------------------+

The 144-byte stat record mirrors ``struct stat`` with FanStore's extra
locality fields appended (§IV-C1 "inserts the locality information into
the extra fields in the file metadata"): the home rank that hosts the
compressed bytes, the partition id, and a flags word (bit 0 = broadcast
partition, replicated to every node).

The format supports two read modes: a full load (bytes included) and a
metadata-only scan that seeks past the data — the daemon uses the scan
to build its RAM metadata table without touching payload bytes twice.
"""

from __future__ import annotations

import ctypes
import io
import struct
import zlib
from dataclasses import dataclass
from pathlib import Path
from typing import BinaryIO, Iterable, Iterator

from repro.errors import FormatError

MAGIC_PATH_LEN = 256
COMPRESSOR_ID_LEN = 2
STAT_LEN = 144
SIZE_LEN = 8
ENTRY_HEADER_LEN = MAGIC_PATH_LEN + COMPRESSOR_ID_LEN + STAT_LEN + SIZE_LEN
COUNT_LEN = 4

#: flags bits in FileStat.flags
FLAG_BROADCAST = 1 << 0  # replicated to all nodes (validation data, §V-B)
FLAG_OUTPUT = 1 << 1  # created at runtime through the write path
FLAG_HAS_DIGEST = 1 << 2  # crc32 covers the compressed payload

# struct stat core fields + FanStore extras, padded to exactly 144 bytes.
# The crc32 of the *compressed* payload lives in what used to be pure
# padding, so partitions written before digests existed decode
# unchanged (their flags word simply lacks FLAG_HAS_DIGEST).
_STAT_STRUCT = struct.Struct("<IQQIIIQIQQQQiIII52x")
assert _STAT_STRUCT.size == STAT_LEN

_COUNT_STRUCT = struct.Struct("<I")
_ID_STRUCT = struct.Struct("<H")
_SIZE_STRUCT = struct.Struct("<Q")

#: default st_mode for packaged regular files (0644 regular file).
DEFAULT_FILE_MODE = 0o100644
DEFAULT_DIR_MODE = 0o040755
DEFAULT_BLOCK_SIZE = 4096


@dataclass(frozen=True)
class FileStat:
    """The 144-byte per-file metadata record."""

    st_mode: int = DEFAULT_FILE_MODE
    st_ino: int = 0
    st_dev: int = 0
    st_nlink: int = 1
    st_uid: int = 0
    st_gid: int = 0
    st_size: int = 0  # ORIGINAL (uncompressed) size
    st_blksize: int = DEFAULT_BLOCK_SIZE
    st_blocks: int = 0
    st_atime_ns: int = 0
    st_mtime_ns: int = 0
    st_ctime_ns: int = 0
    # -- FanStore locality extras ----------------------------------------
    home_rank: int = -1  # rank holding the compressed bytes; -1 = unset
    partition_id: int = 0
    flags: int = 0
    crc32: int = 0  # digest of the COMPRESSED payload; see FLAG_HAS_DIGEST

    def pack(self) -> bytes:
        return _STAT_STRUCT.pack(
            self.st_mode,
            self.st_ino,
            self.st_dev,
            self.st_nlink,
            self.st_uid,
            self.st_gid,
            self.st_size,
            self.st_blksize,
            self.st_blocks,
            self.st_atime_ns,
            self.st_mtime_ns,
            self.st_ctime_ns,
            self.home_rank,
            self.partition_id,
            self.flags,
            self.crc32,
        )

    @classmethod
    def unpack(cls, raw: bytes) -> "FileStat":
        if len(raw) != STAT_LEN:
            raise FormatError(f"stat record must be {STAT_LEN} bytes, got {len(raw)}")
        fields = _STAT_STRUCT.unpack(raw)
        return cls(*fields)

    def with_locality(
        self, home_rank: int, partition_id: int | None = None
    ) -> "FileStat":
        """Copy with the locality extras filled in (done at load time)."""
        return FileStat(
            self.st_mode, self.st_ino, self.st_dev, self.st_nlink,
            self.st_uid, self.st_gid, self.st_size, self.st_blksize,
            self.st_blocks, self.st_atime_ns, self.st_mtime_ns,
            self.st_ctime_ns, home_rank,
            self.partition_id if partition_id is None else partition_id,
            self.flags, self.crc32,
        )

    @property
    def is_broadcast(self) -> bool:
        return bool(self.flags & FLAG_BROADCAST)

    @property
    def is_output(self) -> bool:
        return bool(self.flags & FLAG_OUTPUT)

    @property
    def has_digest(self) -> bool:
        return bool(self.flags & FLAG_HAS_DIGEST)

    def with_digest(self, crc32: int) -> "FileStat":
        """Copy with the payload digest recorded and flagged present."""
        return FileStat(
            self.st_mode, self.st_ino, self.st_dev, self.st_nlink,
            self.st_uid, self.st_gid, self.st_size, self.st_blksize,
            self.st_blocks, self.st_atime_ns, self.st_mtime_ns,
            self.st_ctime_ns, self.home_rank, self.partition_id,
            self.flags | FLAG_HAS_DIGEST, crc32,
        )


def _pack_path(path: str) -> bytes:
    encoded = path.encode("utf-8")
    if len(encoded) >= MAGIC_PATH_LEN:
        raise FormatError(
            f"path exceeds {MAGIC_PATH_LEN - 1} bytes: {path!r}"
        )
    if not path or path.startswith("/"):
        raise FormatError(f"partition paths must be relative and non-empty: {path!r}")
    return encoded.ljust(MAGIC_PATH_LEN, b"\x00")


def _unpack_path(raw: bytes, start: int = 0) -> str:
    """Decode the NUL-padded path field that begins at ``raw[start]``."""
    limit = start + MAGIC_PATH_LEN
    end = raw.find(b"\x00", start, limit)
    if end == start:
        raise FormatError("empty path in partition entry")
    if end == -1:
        end = limit
    try:
        return raw[start:end].decode("utf-8")
    except UnicodeDecodeError as exc:
        raise FormatError(f"undecodable path bytes: {exc}") from exc


@dataclass(frozen=True)
class PartitionEntry:
    """One packaged file: its metadata plus (optionally) compressed bytes.

    ``data`` is None for metadata-only scans; ``compressed_size`` is
    always populated.
    """

    path: str
    compressor_id: int
    stat: FileStat
    compressed_size: int
    #: compressed payload, ``None`` for metadata-only scans
    data: bytes | None = None
    data_offset: int = -1  # byte offset of the payload within the partition


def write_partition(
    entries: Iterable[tuple[str, int, FileStat, bytes]], stream: BinaryIO
) -> int:
    """Serialize ``(path, compressor_id, stat, compressed_bytes)`` tuples.

    Returns the number of bytes written. Entries are written in input
    order; the count header requires materializing the iterable.
    """
    entries = list(entries)
    written = stream.write(_COUNT_STRUCT.pack(len(entries)))
    for path, compressor_id, stat, data in entries:
        if not 0 <= compressor_id <= 0xFFFF:
            raise FormatError(f"compressor id out of range: {compressor_id}")
        written += stream.write(_pack_path(path))
        written += stream.write(_ID_STRUCT.pack(compressor_id))
        written += stream.write(stat.pack())
        written += stream.write(_SIZE_STRUCT.pack(len(data)))
        written += stream.write(data)
    return written


def _read_exact(stream: BinaryIO, n: int, what: str) -> bytes:
    try:
        raw = stream.read(n)
    except (OverflowError, MemoryError):
        # a corrupt size field can be any 64-bit pattern — too big for
        # stream.read's index type, or big enough to fail allocation
        raise FormatError(
            f"corrupt partition: implausible {what} length {n}"
        ) from None
    if len(raw) != n:
        raise FormatError(f"truncated partition: expected {n} bytes of {what}")
    return raw


def iter_partition(
    stream: BinaryIO, *, with_data: bool = True
) -> Iterator[PartitionEntry]:
    """Stream entries from a partition.

    With ``with_data=False`` the payload is seeked past, yielding only
    metadata (plus each payload's offset for later ``pread``-style access
    when the partition stays on local disk).
    """
    count = _COUNT_STRUCT.unpack(_read_exact(stream, COUNT_LEN, "count"))[0]
    for _ in range(count):
        path = _unpack_path(_read_exact(stream, MAGIC_PATH_LEN, "path"))
        compressor_id = _ID_STRUCT.unpack(
            _read_exact(stream, COMPRESSOR_ID_LEN, "compressor id")
        )[0]
        stat = FileStat.unpack(_read_exact(stream, STAT_LEN, "stat"))
        size = _SIZE_STRUCT.unpack(_read_exact(stream, SIZE_LEN, "size"))[0]
        offset = stream.tell()
        if with_data:
            data = _read_exact(stream, size, "data")
        else:
            data = None
            stream.seek(size, io.SEEK_CUR)
        yield PartitionEntry(
            path=path,
            compressor_id=compressor_id,
            stat=stat,
            compressed_size=size,
            data=data,
            data_offset=offset,
        )


def _entries_from_buffer(buf: bytes) -> list[PartitionEntry]:
    """Parse a whole in-memory partition, each payload a ``bytes`` slice
    of ``buf``: one read of the partition file and one copy per payload,
    after which ``buf`` can be dropped. A payload is then an object of
    its own, whose address the digest and the codecs get for free."""
    total = len(buf)
    if total < COUNT_LEN:
        raise FormatError("truncated partition: expected 4 bytes of count")
    count = _COUNT_STRUCT.unpack_from(buf, 0)[0]
    offset = COUNT_LEN
    entries: list[PartitionEntry] = []
    for _ in range(count):
        if offset + ENTRY_HEADER_LEN > total:
            raise FormatError(
                "truncated partition: expected "
                f"{ENTRY_HEADER_LEN} bytes of entry header"
            )
        path = _unpack_path(buf, offset)
        offset += MAGIC_PATH_LEN
        compressor_id = _ID_STRUCT.unpack_from(buf, offset)[0]
        offset += COMPRESSOR_ID_LEN
        stat = FileStat(*_STAT_STRUCT.unpack_from(buf, offset))
        offset += STAT_LEN
        size = _SIZE_STRUCT.unpack_from(buf, offset)[0]
        offset += SIZE_LEN
        if offset + size > total:
            raise FormatError(
                f"truncated partition: expected {size} bytes of data"
            )
        entries.append(
            PartitionEntry(
                path=path,
                compressor_id=compressor_id,
                stat=stat,
                compressed_size=size,
                data=buf[offset:offset + size],
                data_offset=offset,
            )
        )
        offset += size
    return entries


def read_partition(
    source: Path | BinaryIO,
    *,
    with_data: bool = True,
    zero_copy: bool = False,
) -> list[PartitionEntry]:
    """Read a whole partition from a path or open stream.

    With data, the partition is read in one piece and each payload is
    sliced out of it as ``bytes`` (:func:`_entries_from_buffer`); the
    piece is dropped once parsed. Without, the payloads are seeked past
    (:func:`iter_partition`).

    ``zero_copy`` is ignored. It once returned payloads as
    ``memoryview`` slices of the piece; ``benchmarks/e2e/traced.py``
    still passes it.
    """
    if not with_data:
        if isinstance(source, (str, Path)):
            with open(source, "rb") as stream:
                return list(iter_partition(stream, with_data=False))
        return list(iter_partition(source, with_data=False))
    if isinstance(source, (str, Path)):
        return _entries_from_buffer(Path(source).read_bytes())
    return _entries_from_buffer(source.read())


def partition_payload_bytes(entries: Iterable[PartitionEntry]) -> int:
    """Total compressed payload size of a set of entries."""
    return sum([e.compressed_size for e in entries])  # no frame per entry


def _bind_crc32():
    """The system libdeflate's ``libdeflate_crc32(crc, buffer, length)``,
    or None where the library is not installed. Bound by its soname: no
    search, no subprocess.

    ``PyDLL``: the call keeps the GIL. Alone it is as fast as ``CDLL``
    or faster, and beside a busy Python thread much faster, as a call
    that drops the GIL waits to get it back (16 KiB: 1.05 against 5.5 µs
    a call; docs/fault-tolerance.md). No ``argtypes``: ctypes then
    passes a ``bytes`` as its buffer's address and an ``int`` as a C
    ``int`` with no conversion object per argument (0.24 against
    0.63 µs a call). So :func:`blob_crc32` checks what the declarations
    would have: it hands the call only ``bytes``, only lengths under
    :data:`_CRC32_CEILING`, and a zero initial CRC."""
    try:
        crc32 = ctypes.PyDLL("libdeflate.so.0").libdeflate_crc32
    except (OSError, AttributeError):
        return None
    crc32.restype = ctypes.c_uint32
    return crc32


#: libdeflate's CRC-32, or None: then every digest is zlib's
_LIBDEFLATE_CRC32 = _bind_crc32()

#: Payloads of at least this many bytes are digested by libdeflate, the
#: rest by zlib: the smallest power of two at which the library saves a
#: third of zlib's time. Below it the saving is too small for a foreign
#: call on every small read (docs/fault-tolerance.md has the numbers).
CRC32_FLOOR = 2048

#: lengths from here on do not fit the C ``int`` the binding passes
_CRC32_CEILING = 1 << 31


def blob_crc32(data) -> int:
    """The per-record payload digest: the unsigned CRC-32 of the
    compressed bytes, zlib's polynomial and zlib's value for every
    input. A ``bytes`` payload of at least :data:`CRC32_FLOOR` bytes is
    digested by the system libdeflate (a PCLMUL kernel, about five times
    zlib's speed at 16 KiB); anything smaller, any other buffer, and
    everything on a host without the library, by ``zlib.crc32``. The
    stored digests and the partition format are the same either way."""
    crc32 = _LIBDEFLATE_CRC32
    if (
        crc32 is not None
        and type(data) is bytes
        and CRC32_FLOOR <= len(data) < _CRC32_CEILING
    ):
        return crc32(0, data, len(data))
    return zlib.crc32(data)


def entry_payload_ok(entry: PartitionEntry) -> bool:
    """Digest check of a fully-read entry; True when no digest is
    recorded (pre-digest partitions stay readable)."""
    if entry.data is None or not entry.stat.has_digest:
        return True
    return blob_crc32(entry.data) == entry.stat.crc32
