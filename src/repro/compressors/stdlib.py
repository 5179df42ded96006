"""Wrappers over the CPython standard-library codecs.

These give the suite its production-strength members: DEFLATE (zlib,
9 levels — the algorithm family of gzip/zling), Burrows-Wheeler (bz2,
9 levels), and LZMA (10 presets — the algorithm of xz/7z, the paper's
highest-ratio compressors). Their C implementations also provide the
fast end of the measured-throughput spectrum on this host.

A zlib record whose size is known inflates through the system
libdeflate where it is installed: the same DEFLATE stream, decoded in
about half of zlib's time, and zlib decodes everything else.
"""

from __future__ import annotations

import bz2
import ctypes
import lzma
import threading
import zlib

import numpy as np

from repro.compressors.base import Codec
from repro.errors import CompressionError

#: deflate's largest possible expansion, output bytes per input byte
_DEFLATE_MAX_RATIO = 1032


def _bind_libdeflate() -> ctypes.CDLL | None:
    """The system libdeflate's decompressor calls, or None where the
    library is not installed. Bound by its soname: no search, no
    subprocess."""
    try:
        lib = ctypes.CDLL("libdeflate.so.0")
    except OSError:
        return None
    lib.libdeflate_alloc_decompressor.argtypes = []
    lib.libdeflate_alloc_decompressor.restype = ctypes.c_void_p
    lib.libdeflate_free_decompressor.argtypes = [ctypes.c_void_p]
    lib.libdeflate_free_decompressor.restype = None
    # (decompressor, in, in_nbytes, out, out_nbytes_avail,
    # actual_out_nbytes_ret): with no ``actual`` pointer the output must
    # fill ``out_nbytes_avail`` exactly, or the call fails
    lib.libdeflate_zlib_decompress.argtypes = [
        ctypes.c_void_p, ctypes.c_void_p, ctypes.c_size_t,
        ctypes.c_void_p, ctypes.c_size_t, ctypes.c_void_p,
    ]
    lib.libdeflate_zlib_decompress.restype = ctypes.c_int
    return lib


#: the libdeflate binding every zlib codec decodes through; None: zlib only
_LIBDEFLATE = _bind_libdeflate()


class _Scratch:
    """One thread's libdeflate decompressor and output buffer. A
    thread's locals die with it, and the decompressor with them."""

    __slots__ = ("lib", "decompressor", "out", "address")

    def __init__(self, lib) -> None:
        self.lib = lib
        self.decompressor = lib.libdeflate_alloc_decompressor()
        if not self.decompressor:
            raise MemoryError("libdeflate_alloc_decompressor failed")
        self.out = memoryview(b"")
        self.address = 0

    def __del__(self) -> None:
        if self.decompressor:
            self.lib.libdeflate_free_decompressor(self.decompressor)

    def reserve(self, size: int) -> None:
        """Replace the buffer by one of ``size`` bytes. The view's
        export pins the buffer at its address: nothing resizes it."""
        buffer = bytearray(size)
        self.out = memoryview(buffer)
        self.address = ctypes.addressof(ctypes.c_char.from_buffer(buffer))


class ZlibCodec(Codec):
    """DEFLATE at a fixed level (1 fastest … 9 best)."""

    def __init__(self, level: int = 6) -> None:
        if not 1 <= level <= 9:
            raise ValueError(f"zlib level must be in [1, 9], got {level}")
        self.level = level
        self.name = f"zlib-{level}"
        self._threads = threading.local()

    def compress(self, data: bytes) -> bytes:
        return zlib.compress(data, self.level)

    def decompress(self, data: bytes, size: int | None = None) -> bytes:
        # Inflate into one buffer of the final size: from the default
        # 16 KiB block CPython grows the output and copies it whole.
        # Floor: at or below that block the default holds it all (an
        # exactly full block grows a spare one). Cap: deflate expands
        # at most 1032:1, whatever an absurd hint says.
        bufsize = zlib.DEF_BUF_SIZE
        if size is not None:
            bufsize = max(bufsize, min(size, _DEFLATE_MAX_RATIO * len(data)))
            # A hint past the floor and within the cap goes to
            # libdeflate first. It decodes exactly ``size`` bytes or
            # nothing, so a wrong hint, bad data and every error are
            # left to zlib's line below, as without the library.
            lib = _LIBDEFLATE
            if lib is not None and bufsize == size > zlib.DEF_BUF_SIZE:
                plain = self._inflate(lib, data, size)
                if plain is not None:
                    return plain
        try:
            return zlib.decompress(data, zlib.MAX_WBITS, bufsize)
        except zlib.error as exc:
            raise CompressionError(f"zlib: {exc}") from exc

    def _inflate(self, lib, data, size: int) -> bytes | None:
        """``data`` inflated by libdeflate to exactly ``size`` bytes,
        its Adler-32 trailer checked; None when libdeflate refuses it
        for any reason."""
        try:
            scratch = self._threads.scratch
        except AttributeError:
            scratch = self._threads.scratch = _Scratch(lib)
        if len(scratch.out) < size:
            scratch.reserve(size)
        if type(data) is bytes:
            source, length = data, len(data)
        else:  # any other buffer (a caller's view): its address, no copy
            array = np.frombuffer(data, np.uint8)  # refuses a strided one
            source, length = array.ctypes.data, array.size
        if lib.libdeflate_zlib_decompress(
            scratch.decompressor, source, length, scratch.address, size,
            None,
        ):
            return None
        return bytes(scratch.out[:size])


class Bz2Codec(Codec):
    """Burrows–Wheeler at a fixed block size (1 … 9 × 100 KB blocks)."""

    def __init__(self, level: int = 9) -> None:
        if not 1 <= level <= 9:
            raise ValueError(f"bz2 level must be in [1, 9], got {level}")
        self.level = level
        self.name = f"bz2-{level}"

    def compress(self, data: bytes) -> bytes:
        return bz2.compress(data, self.level)

    def decompress(self, data: bytes, size: int | None = None) -> bytes:
        # the stdlib decompressor has no way to pre-size: size unused
        try:
            return bz2.decompress(data)
        except (OSError, ValueError) as exc:
            raise CompressionError(f"bz2: {exc}") from exc


class LzmaCodec(Codec):
    """LZMA (xz container) at a fixed preset (0 fastest … 9 best).

    This is the repo's functional equivalent of both the paper's ``lzma``
    and ``xz`` entries (identical algorithm, different container in
    lzbench; Table IV reports them with equal ratios).
    """

    def __init__(self, preset: int = 6) -> None:
        if not 0 <= preset <= 9:
            raise ValueError(f"lzma preset must be in [0, 9], got {preset}")
        self.preset = preset
        self.name = f"lzma-{preset}"

    def compress(self, data: bytes) -> bytes:
        return lzma.compress(data, preset=self.preset)

    def decompress(self, data: bytes, size: int | None = None) -> bytes:
        # the stdlib decompressor has no way to pre-size: size unused
        try:
            return lzma.decompress(data)
        except lzma.LZMAError as exc:
            raise CompressionError(f"lzma: {exc}") from exc
