"""A zlib record inflates through the system libdeflate when its size
hint is exact, and through zlib otherwise; either way the codec answers
what a plain ``zlib.decompress`` answers.

Every test that can runs twice: with the library bound, and with the
module's binding set to ``None`` (the path of a host without it). The
cases that need the library skip where it is absent.
"""

from __future__ import annotations

import sys
import threading
import zlib
from types import SimpleNamespace

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.compressors import stdlib
from repro.compressors.stdlib import ZlibCodec
from repro.errors import CompressionError
from tests.compressors.test_size_hint import _hints, large

LIBDEFLATE = stdlib._LIBDEFLATE
needs_libdeflate = pytest.mark.skipif(
    LIBDEFLATE is None, reason="libdeflate.so.0 is not installed"
)

_CALLS = (
    "libdeflate_alloc_decompressor",
    "libdeflate_free_decompressor",
    "libdeflate_zlib_decompress",
)


class CountingBinding(SimpleNamespace):
    """Stands in for the module's libdeflate binding and counts each
    call before forwarding it to ``lib`` (calling an absent one fails)."""

    def __init__(self, lib) -> None:
        super().__init__(calls={name: 0 for name in _CALLS})
        for name in _CALLS:
            setattr(self, name, self._counted(name, getattr(lib, name, None)))

    def _counted(self, name, call):
        def counted(*args):
            self.calls[name] += 1
            return call(*args)

        return counted


@pytest.fixture(params=["libdeflate", "zlib fallback"])
def inflate(request, monkeypatch) -> str:
    """Which inflate the codec runs: the bound library, or none."""
    if request.param == "libdeflate":
        if LIBDEFLATE is None:
            pytest.skip("libdeflate.so.0 is not installed")
    else:
        monkeypatch.setattr(stdlib, "_LIBDEFLATE", None)
    return request.param


def _zlib_answer(blob) -> bytes | str:
    """What a plain ``zlib.decompress`` makes of ``blob``: its bytes, or
    the text of the error the codec raises for it."""
    try:
        return zlib.decompress(blob)
    except zlib.error as exc:
        return str(CompressionError(f"zlib: {exc}"))


def _codec_answer(codec, blob, hint) -> bytes | str:
    try:
        return codec.decompress(blob, hint)
    except CompressionError as exc:
        return str(exc)


def _variants(blob: bytes, where: int, bit: int, cut: int, tail: bytes):
    """The stored blob, one bit flipped, cut short, with trailing bytes,
    and a read-only view of it (what ``RamBackend`` hands out)."""
    flipped = bytearray(blob)
    flipped[where % len(blob)] ^= 1 << bit
    return {
        "valid": blob,
        "bit-flipped": bytes(flipped),
        "truncated": blob[: max(0, len(blob) - 1 - cut % len(blob))],
        "trailing-garbage": blob + tail,
        "view": memoryview(b"\0" + blob)[1:],
    }


@settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(
    data=large,
    where=st.integers(min_value=0),
    bit=st.integers(min_value=0, max_value=7),
    cut=st.integers(min_value=0),
    tail=st.binary(min_size=1, max_size=16),
)
def test_the_codec_answers_what_zlib_answers(inflate, data, where, bit,
                                             cut, tail):
    codec = ZlibCodec(1)
    for name, blob in _variants(
        codec.compress(data), where, bit, cut, tail
    ).items():
        want = _zlib_answer(blob)
        for hint in _hints(len(data)):
            assert _codec_answer(codec, blob, hint) == want, (name, hint)


def test_four_threads_decode_byte_exact(inflate, monkeypatch):
    """Four threads decode the same codec's blobs of different sizes at
    once, with the interpreter switching threads every microsecond;
    each result is its plaintext, byte for byte, and with the library
    each thread decoded with a decompressor of its own."""
    binding = CountingBinding(stdlib._LIBDEFLATE)
    if inflate == "libdeflate":
        monkeypatch.setattr(stdlib, "_LIBDEFLATE", binding)
    codec = ZlibCodec(1)
    plain = [
        bytes(range(256)) * (96 + 40 * i) + bytes([i]) * 5000
        for i in range(4)
    ]
    blobs = [codec.compress(p) for p in plain]
    wrong: list[int] = []

    def decode(first: int) -> None:
        for n in range(40):
            i = (first + n) % len(plain)
            if codec.decompress(blobs[i], len(plain[i])) != plain[i]:
                wrong.append(i)  # list.append is atomic

    threads = [
        threading.Thread(target=decode, args=(i,), daemon=True)
        for i in range(4)
    ]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert wrong == []
    if inflate == "libdeflate":
        assert binding.calls["libdeflate_alloc_decompressor"] == 4
        assert binding.calls["libdeflate_zlib_decompress"] == 4 * 40


@needs_libdeflate
def test_a_short_lived_threads_decompressor_is_freed(monkeypatch):
    """``AsyncLoader`` starts a producer thread per epoch: each thread
    that decodes allocates one decompressor, and it is freed when the
    thread ends, before ``join`` returns."""
    binding = CountingBinding(LIBDEFLATE)
    monkeypatch.setattr(stdlib, "_LIBDEFLATE", binding)
    codec = ZlibCodec(1)
    data = b"epoch " * 8192
    blob = codec.compress(data)
    for epoch in range(1, 4):
        thread = threading.Thread(
            target=lambda: [codec.decompress(blob, len(data)) for _ in "ab"]
        )
        thread.start()
        thread.join(timeout=30)
        assert not thread.is_alive()
        assert binding.calls == {
            "libdeflate_alloc_decompressor": epoch,
            "libdeflate_free_decompressor": epoch,
            "libdeflate_zlib_decompress": 2 * epoch,
        }


@needs_libdeflate
def test_only_an_exact_hint_past_the_floor_reaches_libdeflate(monkeypatch):
    """The library decodes exactly ``size`` bytes or fails: an exact
    hint above zlib's 16 KiB block decodes there alone, a wrong one is
    tried and left to zlib, and no hint, a hint at or under the block
    and a hint past the 1032:1 cap never reach it."""
    binding = CountingBinding(LIBDEFLATE)
    monkeypatch.setattr(stdlib, "_LIBDEFLATE", binding)
    codec = ZlibCodec(1)
    for size, hint, calls in (
        (64 * 1024, 64 * 1024, 1),
        (64 * 1024, 64 * 1024 + 1, 1),
        (64 * 1024, 64 * 1024 - 1, 1),
        (64 * 1024, None, 0),
        (zlib.DEF_BUF_SIZE, zlib.DEF_BUF_SIZE, 0),
        (64 * 1024, 2**40, 0),
    ):
        data = bytes(range(256)) * (size // 256)
        blob = codec.compress(data)
        before = binding.calls["libdeflate_zlib_decompress"]
        assert codec.decompress(blob, hint) == data
        after = binding.calls["libdeflate_zlib_decompress"]
        assert after - before == calls, (size, hint)
