"""Hostile-input fuzzing of the partition reader: arbitrary bytes must
raise FormatError (or decode cleanly), never crash, hang, or over-read."""

from __future__ import annotations

import io

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import FormatError
from repro.fanstore.layout import (
    FileStat,
    read_partition,
    write_partition,
)


@settings(max_examples=120, deadline=None)
@given(garbage=st.binary(max_size=2048))
def test_arbitrary_bytes_never_crash(garbage):
    try:
        entries = read_partition(io.BytesIO(garbage))
    except FormatError:
        return
    # If it decoded, the claimed structure must be self-consistent.
    for e in entries:
        assert e.compressed_size == len(e.data or b"")


@settings(max_examples=60, deadline=None)
@given(
    payloads=st.lists(st.binary(max_size=100), min_size=1, max_size=4),
    cut=st.integers(min_value=1, max_value=2000),
)
def test_truncations_always_detected(payloads, cut):
    """Every strict prefix of a valid partition fails cleanly, in both
    read modes: the count header promises every entry, so a prefix
    lacks the header or the payload bytes of at least the last one. The
    metadata-only scan must not index a payload that is not there."""
    buf = io.BytesIO()
    write_partition(
        [
            (f"f{i}", 0, FileStat(st_size=len(p)), p)
            for i, p in enumerate(payloads)
        ],
        buf,
    )
    raw = buf.getvalue()
    prefix = raw[: len(raw) - min(cut, len(raw))]
    for with_data in (True, False):
        with pytest.raises(FormatError):
            read_partition(io.BytesIO(prefix), with_data=with_data)


@settings(max_examples=60, deadline=None)
@given(
    payloads=st.lists(st.binary(max_size=100), min_size=1, max_size=4),
    pos=st.integers(min_value=0, max_value=500),
    flip=st.integers(min_value=1, max_value=255),
)
def test_bitflips_never_hang_or_overread(payloads, pos, flip):
    buf = io.BytesIO()
    write_partition(
        [
            (f"dir/f{i}", 1, FileStat(st_size=len(p)), p)
            for i, p in enumerate(payloads)
        ],
        buf,
    )
    raw = bytearray(buf.getvalue())
    raw[pos % len(raw)] ^= flip
    try:
        entries = read_partition(io.BytesIO(bytes(raw)))
    except FormatError:
        return
    for e in entries:
        assert len(e.data or b"") == e.compressed_size
        assert len(e.path) < 256


def test_count_lies_high():
    """A count header claiming more entries than exist must fail."""
    buf = io.BytesIO()
    write_partition([("a", 0, FileStat(), b"xy")], buf)
    raw = bytearray(buf.getvalue())
    raw[0] = 200  # count = 200
    with pytest.raises(FormatError):
        read_partition(io.BytesIO(bytes(raw)))


def test_giant_claimed_size_fails_fast():
    """An entry whose size field claims 2^60 bytes must not allocate."""
    buf = io.BytesIO()
    write_partition([("a", 0, FileStat(), b"xy")], buf)
    raw = bytearray(buf.getvalue())
    size_off = 4 + 256 + 2 + 144
    raw[size_off : size_off + 8] = (1 << 60).to_bytes(8, "little")
    with pytest.raises(FormatError):
        read_partition(io.BytesIO(bytes(raw)))
