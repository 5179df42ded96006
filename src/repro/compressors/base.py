"""Core abstractions of the compressor suite.

The suite is organized the way lzbench (the tool the paper uses)
organizes its candidates: a *codec* is an entropy/dictionary coder
operating on raw bytes; a *filter* is a reversible byte transform
applied before the codec to expose structure (delta, bitshuffle, ...).
A :class:`Compressor` is a named filter-chain + codec pipeline and is
the unit the registry, the data-preparation tool, and the selection
algorithm all operate on. The registry assigns each compressor the
2-byte integer identifier stored in the partition layout (Table I of
the paper).
"""

from __future__ import annotations

import abc
from dataclasses import dataclass

from repro.errors import CompressionError


class Codec(abc.ABC):
    """A lossless byte-stream coder.

    Implementations must satisfy ``decompress(compress(x), size) == x``
    for all byte strings ``x`` and every ``size`` (the round-trip
    property; enforced by the hypothesis suite in ``tests/compressors``).
    """

    #: short machine name, unique among codecs ("zlib-6", "fastlz-3", ...)
    name: str = "codec"

    @abc.abstractmethod
    def compress(self, data: bytes) -> bytes:
        """Compress ``data``; never raises for valid byte input."""

    @abc.abstractmethod
    def decompress(self, data: bytes, size: int | None = None) -> bytes:
        """Invert :meth:`compress`; raises CompressionError on corrupt input.

        ``size`` is the expected output length (a record's ``st_size``),
        a hint only: a codec may size its output buffer from it or
        ignore it, and a wrong hint never changes the result."""

    def __repr__(self) -> str:
        return f"<{type(self).__name__} {self.name!r}>"


class Filter(abc.ABC):
    """A reversible byte transform applied ahead of a codec.

    Filters never change semantics, only byte layout; they must satisfy
    ``backward(forward(x)) == x``.
    """

    name: str = "filter"

    @abc.abstractmethod
    def forward(self, data: bytes) -> bytes:
        """Apply the transform."""

    @abc.abstractmethod
    def backward(self, data: bytes) -> bytes:
        """Invert :meth:`forward`."""

    def __repr__(self) -> str:
        return f"<{type(self).__name__} {self.name!r}>"


@dataclass(frozen=True)
class Compressor:
    """A named, registry-addressable (filters → codec) pipeline.

    ``compressor_id`` is the 2-byte integer recorded per file in the
    FanStore partition format; ids are assigned by the registry and are
    stable for a given registry build order.
    """

    name: str
    codec: Codec
    filters: tuple[Filter, ...] = ()
    compressor_id: int = -1

    def __post_init__(self) -> None:
        # A pipeline without filters is its codec: its ``decompress`` is
        # the codec's own bound method, so a decode runs no forwarding
        # frame, and whoever wraps ``compressor.decompress`` (a probe)
        # still sees every decode.
        if not self.filters:
            object.__setattr__(self, "decompress", self.codec.decompress)

    def compress(self, data: bytes) -> bytes:
        """Run the filter chain forward, then the codec."""
        for f in self.filters:
            data = f.forward(data)
        return self.codec.compress(data)

    def decompress(self, data: bytes, size: int | None = None) -> bytes:
        """Run the codec, then the filter chain backward. The ``size``
        hint reaches the codec only without filters, where an instance
        answers with the codec's ``decompress`` itself (see
        ``__post_init__``): a filter may change the length the codec
        sees (bitshuffle pads)."""
        data = self.codec.decompress(data)
        for f in reversed(self.filters):
            data = f.backward(data)
        return data

    def ratio(self, data: bytes) -> float:
        """Compression ratio original/compressed on a sample (>= 0).

        Matches the paper's convention: larger is better, 1.0 means
        incompressible. Empty inputs report 1.0.
        """
        if not data:
            return 1.0
        compressed = self.compress(data)
        if not compressed:
            raise CompressionError(
                f"{self.name} produced empty output for non-empty input"
            )
        return len(data) / len(compressed)

    def __str__(self) -> str:
        return self.name


def write_uvarint(value: int) -> bytes:
    """LEB128-encode a non-negative integer (codec payload headers)."""
    if value < 0:
        raise ValueError("uvarint must be non-negative")
    out = bytearray()
    while True:
        byte = value & 0x7F
        value >>= 7
        if value:
            out.append(byte | 0x80)
        else:
            out.append(byte)
            return bytes(out)


def read_uvarint(data: bytes, offset: int = 0) -> tuple[int, int]:
    """Decode a LEB128 integer; returns ``(value, next_offset)``."""
    result = 0
    shift = 0
    pos = offset
    while True:
        if pos >= len(data):
            raise CompressionError("truncated uvarint")
        byte = data[pos]
        pos += 1
        result |= (byte & 0x7F) << shift
        if not byte & 0x80:
            return result, pos
        shift += 7
        if shift > 63:
            raise CompressionError("uvarint too long")
