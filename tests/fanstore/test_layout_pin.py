"""The Table I bytes, pinned.

One fixed three-entry partition — fixed stats, an empty payload, a
255-byte path — written and hashed: any change to how an entry is laid
out on disk (field order, padding, the count header, how a path is
NUL-padded) moves the digest. Both read modes must then give back
exactly the records that were written.
"""

from __future__ import annotations

import hashlib
import io

from repro.fanstore.layout import (
    COUNT_LEN,
    ENTRY_HEADER_LEN,
    FLAG_BROADCAST,
    FLAG_HAS_DIGEST,
    FileStat,
    blob_crc32,
    read_partition,
    write_partition,
)

LONG_PATH = "deep/" + "n" * 250  # 255 bytes: the longest the field holds
assert len(LONG_PATH.encode("utf-8")) == 255

PAYLOADS = (b"first payload \x00\xff", b"", bytes(range(256)) * 3)

ENTRIES = [
    (
        "train/cls0000/a.bin",
        1,
        FileStat(
            st_mode=0o100644, st_ino=11, st_dev=12, st_nlink=1,
            st_uid=1000, st_gid=100, st_size=4096, st_blksize=4096,
            st_blocks=8, st_atime_ns=1_700_000_000_000_000_001,
            st_mtime_ns=1_700_000_000_000_000_002,
            st_ctime_ns=1_700_000_000_000_000_003, home_rank=-1,
            partition_id=0, flags=FLAG_HAS_DIGEST,
            crc32=blob_crc32(PAYLOADS[0]),
        ),
        PAYLOADS[0],
    ),
    (
        "empty",
        0,
        FileStat(st_size=0, partition_id=0, flags=FLAG_HAS_DIGEST,
                 crc32=blob_crc32(PAYLOADS[1])),
        PAYLOADS[1],
    ),
    (
        LONG_PATH,
        0xFFFF,
        FileStat(
            st_mode=0o100600, st_size=2**40 + 3, st_blocks=2**31,
            st_atime_ns=2**63 - 1, home_rank=2**31 - 1,
            partition_id=2**32 - 1,
            flags=FLAG_BROADCAST | FLAG_HAS_DIGEST,
            crc32=blob_crc32(PAYLOADS[2]),
        ),
        PAYLOADS[2],
    ),
]

#: sha256 of the partition above, as every writer since digests were
#: recorded has laid it out
PINNED_SHA256 = (
    "ce77987da31201732431c51d587901785813829fbeb3dc7459dc417001ced8d6"
)


def _written() -> bytes:
    buf = io.BytesIO()
    assert write_partition(ENTRIES, buf) == len(buf.getvalue())
    return buf.getvalue()


def test_the_partition_bytes_are_pinned():
    raw = _written()
    assert len(raw) == COUNT_LEN + 3 * ENTRY_HEADER_LEN + sum(
        map(len, PAYLOADS)
    )
    assert hashlib.sha256(raw).hexdigest() == PINNED_SHA256


def _offsets() -> list[int]:
    offsets, at = [], COUNT_LEN
    for data in PAYLOADS:
        at += ENTRY_HEADER_LEN
        offsets.append(at)
        at += len(data)
    return offsets


def test_both_read_modes_return_what_was_written(tmp_path):
    raw = _written()
    part = tmp_path / "part-00000.fst"
    part.write_bytes(raw)
    expected = [
        (path, cid, stat, len(data), offset)
        for (path, cid, stat, data), offset in zip(ENTRIES, _offsets())
    ]
    for with_data in (True, False):
        for source in (part, io.BytesIO(raw)):
            entries = read_partition(source, with_data=with_data)
            assert [
                (e.path, e.compressor_id, e.stat, e.compressed_size,
                 e.data_offset)
                for e in entries
            ] == expected
            if with_data:
                assert [e.data for e in entries] == list(PAYLOADS)
                assert {type(e.data) for e in entries} == {bytes}
            else:
                assert [e.data for e in entries] == [None] * 3
