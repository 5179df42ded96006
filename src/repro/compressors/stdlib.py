"""Wrappers over the CPython standard-library codecs.

These give the suite its production-strength members: DEFLATE (zlib,
9 levels — the algorithm family of gzip/zling), Burrows-Wheeler (bz2,
9 levels), and LZMA (10 presets — the algorithm of xz/7z, the paper's
highest-ratio compressors). Their C implementations also provide the
fast end of the measured-throughput spectrum on this host.
"""

from __future__ import annotations

import bz2
import lzma
import zlib

from repro.compressors.base import Codec
from repro.errors import CompressionError

#: deflate's largest possible expansion, output bytes per input byte
_DEFLATE_MAX_RATIO = 1032


class ZlibCodec(Codec):
    """DEFLATE at a fixed level (1 fastest … 9 best)."""

    def __init__(self, level: int = 6) -> None:
        if not 1 <= level <= 9:
            raise ValueError(f"zlib level must be in [1, 9], got {level}")
        self.level = level
        self.name = f"zlib-{level}"

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
        try:
            return zlib.decompress(data, zlib.MAX_WBITS, bufsize)
        except zlib.error as exc:
            raise CompressionError(f"zlib: {exc}") from exc


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
