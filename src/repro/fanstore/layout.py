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
from pathlib import Path
from typing import BinaryIO, Iterable, Iterator, NamedTuple

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
_STAT_FIELDS = "IQQIIIQIQQQQiIII52x"
_STAT_STRUCT = struct.Struct("<" + _STAT_FIELDS)
assert _STAT_STRUCT.size == STAT_LEN

#: one entry's header — path, compressor id, stat, compressed size — in
#: one piece: written by one ``pack``, read by one ``unpack_from``
_ENTRY_STRUCT = struct.Struct(f"<{MAGIC_PATH_LEN}sH{_STAT_FIELDS}Q")
assert _ENTRY_STRUCT.size == ENTRY_HEADER_LEN
#: where the stat's fields, and its home rank, sit in an unpacked header
_STAT_START, _HOME_AT, _STAT_END = 2, 2 + 12, 2 + 16

_COUNT_STRUCT = struct.Struct("<I")

#: default st_mode for packaged regular files (0644 regular file).
DEFAULT_FILE_MODE = 0o100644
DEFAULT_DIR_MODE = 0o040755
DEFAULT_BLOCK_SIZE = 4096


class FileStat(NamedTuple):
    """The 144-byte per-file metadata record.

    A named tuple: a reader builds it from one ``unpack`` with
    ``_make`` (no per-field Python step), and :meth:`pack` is one
    ``pack(*self)``."""

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
        return _STAT_STRUCT.pack(*self)

    @classmethod
    def unpack(cls, raw: bytes) -> "FileStat":
        if len(raw) != STAT_LEN:
            raise FormatError(f"stat record must be {STAT_LEN} bytes, got {len(raw)}")
        return cls._make(_STAT_STRUCT.unpack(raw))

    def with_locality(
        self, home_rank: int, partition_id: int | None = None
    ) -> "FileStat":
        """Copy with the locality extras filled in (a re-homing; a
        partition read stamps the home rank as it builds the stat)."""
        if partition_id is None:
            return self._replace(home_rank=home_rank)
        return self._replace(home_rank=home_rank, partition_id=partition_id)

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
        return self._replace(flags=self.flags | FLAG_HAS_DIGEST, crc32=crc32)


_make_stat = FileStat._make


class PartitionEntry(NamedTuple):
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


#: builds a :class:`PartitionEntry` from its fields in order, with no
#: frame of the named tuple's own ``__new__``
_tuple_new = tuple.__new__


def write_partition(
    entries: Iterable[tuple[str, int, FileStat, bytes]], stream: BinaryIO
) -> int:
    """Serialize ``(path, compressor_id, stat, compressed_bytes)`` tuples.

    Returns the number of bytes written. Entries are written in input
    order, each as one write of its header and payload; the count
    header requires materializing the iterable.
    """
    entries = list(entries)
    pack, write = _ENTRY_STRUCT.pack, stream.write
    written = write(_COUNT_STRUCT.pack(len(entries)))
    for path, compressor_id, stat, data in entries:
        if not 0 <= compressor_id <= 0xFFFF:
            raise FormatError(f"compressor id out of range: {compressor_id}")
        if not path or path[0] == "/":
            raise FormatError(
                f"partition paths must be relative and non-empty: {path!r}"
            )
        encoded = path.encode("utf-8")
        if len(encoded) >= MAGIC_PATH_LEN:  # "256s" would cut it silently
            raise FormatError(
                f"path exceeds {MAGIC_PATH_LEN - 1} bytes: {path!r}"
            )
        # the path field is NUL-padded by the "256s" code
        written += write(
            pack(encoded, compressor_id, *stat, len(data)) + data
        )
    return written


def _parse_header(raw, offset: int, home_rank: int | None):
    """``(path, compressor id, stat, compressed size)`` of the entry
    header at ``raw[offset]``: one ``unpack_from``, and the stat built
    from its slice of the fields, stamped with ``home_rank`` unless that
    is None (then the stored home rank stays)."""
    fields = _ENTRY_STRUCT.unpack_from(raw, offset)
    path_field = fields[0]
    end = path_field.find(b"\x00")
    if end == 0:
        raise FormatError("empty path in partition entry")
    try:
        path = (path_field if end < 0 else path_field[:end]).decode("utf-8")
    except UnicodeDecodeError as exc:
        raise FormatError(f"undecodable path bytes: {exc}") from exc
    if home_rank is None:
        stat = _make_stat(fields[_STAT_START:_STAT_END])
    else:
        stat = _make_stat(
            fields[_STAT_START:_HOME_AT] + (home_rank,)
            + fields[_HOME_AT + 1:_STAT_END]
        )
    return path, fields[1], stat, fields[_STAT_END]


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
    stream: BinaryIO, *, with_data: bool = True, home_rank: int | None = None
) -> Iterator[PartitionEntry]:
    """Stream entries from a partition.

    With ``with_data=False`` the payload is seeked past, yielding only
    metadata (plus each payload's offset for later ``pread``-style access
    when the partition stays on local disk) — but only a payload the
    stream holds to its last byte: a torn partition raises the same
    :class:`FormatError` in both modes. ``home_rank`` (when not None)
    is stamped into every stat as it is built.
    """
    count = _COUNT_STRUCT.unpack(_read_exact(stream, COUNT_LEN, "count"))[0]
    if not with_data:
        start = stream.tell()
        total = stream.seek(0, io.SEEK_END)
        stream.seek(start)
    for _ in range(count):
        header = _read_exact(stream, ENTRY_HEADER_LEN, "entry header")
        path, compressor_id, stat, size = _parse_header(header, 0, home_rank)
        offset = stream.tell()
        if with_data:
            data = _read_exact(stream, size, "data")
        else:
            data = None
            if offset + size > total:
                raise FormatError(
                    f"truncated partition: expected {size} bytes of data"
                )
            stream.seek(offset + size)
        yield _tuple_new(
            PartitionEntry, (path, compressor_id, stat, size, data, offset)
        )


def _entries_from_buffer(
    buf: bytes, home_rank: int | None = None
) -> list[PartitionEntry]:
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
    append = entries.append
    for _ in range(count):
        if offset + ENTRY_HEADER_LEN > total:
            raise FormatError(
                "truncated partition: expected "
                f"{ENTRY_HEADER_LEN} bytes of entry header"
            )
        path, compressor_id, stat, size = _parse_header(buf, offset, home_rank)
        offset += ENTRY_HEADER_LEN
        end = offset + size
        if end > total:
            raise FormatError(
                f"truncated partition: expected {size} bytes of data"
            )
        append(_tuple_new(
            PartitionEntry,
            (path, compressor_id, stat, size, buf[offset:end], offset),
        ))
        offset = end
    return entries


def read_partition(
    source: Path | BinaryIO,
    *,
    with_data: bool = True,
    zero_copy: bool = False,
    home_rank: int | None = None,
) -> list[PartitionEntry]:
    """Read a whole partition from a path or open stream.

    With data, the partition is read in one piece and each payload is
    sliced out of it as ``bytes`` (:func:`_entries_from_buffer`); the
    piece is dropped once parsed. Without, the payloads are seeked past
    (:func:`iter_partition`). ``home_rank`` (when not None) is stamped
    into every stat as it is built: a rank ingesting the partition
    builds each stat once.

    ``zero_copy`` is ignored. It once returned payloads as
    ``memoryview`` slices of the piece; ``benchmarks/e2e/traced.py``
    still passes it.
    """
    if not with_data:
        if isinstance(source, (str, Path)):
            with open(source, "rb") as stream:
                return list(iter_partition(
                    stream, with_data=False, home_rank=home_rank
                ))
        return list(iter_partition(
            source, with_data=False, home_rank=home_rank
        ))
    if isinstance(source, (str, Path)):
        return _entries_from_buffer(Path(source).read_bytes(), home_rank)
    return _entries_from_buffer(source.read(), home_rank)


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
