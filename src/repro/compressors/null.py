"""The store ("memcpy") codec — the paper's decompression-cost baseline.

Figure 7 plots every compressor against a *memcpy* reference; this codec
is that reference: ratio exactly 1.0, decompression cost one buffer copy.
"""

from __future__ import annotations

from repro.compressors.base import Codec


class NullCodec(Codec):
    """Identity coder; compress and decompress both copy the buffer."""

    name = "memcpy"

    def compress(self, data: bytes) -> bytes:
        return bytes(data)

    def decompress(self, data: bytes, size: int | None = None) -> bytes:
        return bytes(data)
