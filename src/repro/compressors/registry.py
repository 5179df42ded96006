"""Compressor registry: the suite of named configurations with stable ids.

The paper evaluates "over 180 compressor and option combinations"
(lzbench's codecs × levels × filters). This registry reproduces that
surface: 36 codecs × 5 filter variants = 180 configurations, each a
:class:`~repro.compressors.base.Compressor` with a stable 2-byte id —
the integer FanStore records per file in the partition layout (Table I).

Id 0 is reserved for *raw* (uncompressed passthrough, distinct from the
``memcpy`` suite member only in that it is the implicit default when no
compressor was applied). Ids are assigned deterministically in build
order, so partitions written by one process decode in any other.

Paper compressor names (lzsse8, lz4hc, brotli, …) that have no stdlib
implementation resolve via :data:`PAPER_ALIASES` to the closest member
of the suite, so code written against the paper's vocabulary runs
unchanged; their *performance characteristics* (Table IV/VII constants)
live separately in :mod:`repro.compressors.profiles`.
"""

from __future__ import annotations

import threading
from types import MappingProxyType
from typing import Iterable, Mapping

from repro.compressors.base import Codec, Compressor, Filter
from repro.compressors.filters import (
    BitshuffleFilter,
    DeltaFilter,
    TransposeFilter,
    XorFilter,
)
from repro.compressors.huffman import HuffmanCodec
from repro.compressors.lz77 import Lz77Codec
from repro.compressors.lzw import LzwCodec
from repro.compressors.null import NullCodec
from repro.compressors.rle import RleCodec
from repro.compressors.stdlib import Bz2Codec, LzmaCodec, ZlibCodec
from repro.errors import UnknownCompressorError

#: id reserved for "no compression applied" in the partition format.
RAW_ID = 0
RAW_NAME = "raw"

#: Paper compressor names → suite member carrying the real byte path.
PAPER_ALIASES: dict[str, str] = {
    "lz4fast": "fastlz-1",
    "lzf": "fastlz-2",
    "lz4": "fastlz-3",
    "lzsse8": "fastlz-6",
    "lz4hc": "fastlz-9",
    "gzip": "zlib-6",
    "zling": "zlib-7",
    "brotli": "zlib-9",
    "zstd": "zlib-5",
    "lzma": "lzma-6",
    "xz": "lzma-9",
    "memcpy": "memcpy",
}


class CompressorRegistry:
    """Thread-safe name/id ↔ compressor mapping."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._by_name: dict[str, Compressor] = {}
        self._by_id: dict[int, Compressor] = {}
        #: read-only live view of the compressors by numeric id: one
        #: dict lookup for a hot decode path (:meth:`get` raises the
        #: typed error for an unknown id)
        self.by_id: Mapping[int, Compressor] = MappingProxyType(self._by_id)
        self._next_id = 1  # 0 is RAW_ID
        raw = Compressor(
            name=RAW_NAME, codec=NullCodec(), compressor_id=RAW_ID
        )
        self._by_name[RAW_NAME] = raw
        self._by_id[RAW_ID] = raw

    def register(
        self, codec: Codec, filters: Iterable[Filter] = (), name: str | None = None
    ) -> Compressor:
        """Add a (filters → codec) pipeline; returns the bound Compressor."""
        filters = tuple(filters)
        if name is None:
            prefix = "+".join(f.name for f in filters)
            name = f"{prefix}+{codec.name}" if prefix else codec.name
        with self._lock:
            if name in self._by_name:
                raise ValueError(f"compressor {name!r} already registered")
            comp = Compressor(
                name=name,
                codec=codec,
                filters=filters,
                compressor_id=self._next_id,
            )
            self._by_name[name] = comp
            self._by_id[comp.compressor_id] = comp
            self._next_id += 1
            return comp

    def get(self, key: str | int) -> Compressor:
        """Look up by name, paper alias, or numeric id."""
        if isinstance(key, int):
            try:
                return self._by_id[key]
            except KeyError:
                raise UnknownCompressorError(f"no compressor with id {key}") from None
        name = PAPER_ALIASES.get(key, key)
        try:
            return self._by_name[name]
        except KeyError:
            raise UnknownCompressorError(f"no compressor named {key!r}") from None

    def __contains__(self, key: str | int) -> bool:
        try:
            self.get(key)
            return True
        except UnknownCompressorError:
            return False

    def names(self) -> list[str]:
        """All registered names except the reserved raw entry, in id order."""
        return [
            c.name
            for _, c in sorted(self._by_id.items())
            if c.compressor_id != RAW_ID
        ]

    def __len__(self) -> int:
        return len(self._by_id) - 1  # exclude raw

    def __iter__(self):
        return (c for _, c in sorted(self._by_id.items()) if c.compressor_id)


def _suite_codecs() -> list[Codec]:
    """The 36 base codecs of the default suite."""
    codecs: list[Codec] = [
        NullCodec(),
        RleCodec(),
        HuffmanCodec(),
        LzwCodec(12),
        LzwCodec(14),
        LzwCodec(16),
        Lz77Codec(1),
        Lz77Codec(2),
        Lz77Codec(3),
        Lz77Codec(6),
        Lz77Codec(9),
        Lz77Codec(12),
    ]
    codecs.extend(ZlibCodec(level) for level in range(1, 10))
    codecs.extend(Bz2Codec(level) for level in range(1, 10))
    codecs.extend(LzmaCodec(preset) for preset in (0, 2, 4, 6, 8, 9))
    return codecs


def build_default_registry() -> CompressorRegistry:
    """Construct the 180-configuration suite: 36 codecs × 5 filter chains."""
    registry = CompressorRegistry()
    filter_variants: list[tuple[Filter, ...]] = [
        (),
        (DeltaFilter(),),
        (XorFilter(),),
        (BitshuffleFilter(),),
        (TransposeFilter(4),),
    ]
    for filters in filter_variants:
        for codec in _suite_codecs():
            registry.register(codec, filters)
    return registry


_default_registry: CompressorRegistry | None = None
_default_lock = threading.Lock()


def default_registry() -> CompressorRegistry:
    """The process-wide default suite, built once on first use."""
    global _default_registry
    if _default_registry is None:
        with _default_lock:
            if _default_registry is None:
                _default_registry = build_default_registry()
    return _default_registry


def get_compressor(key: str | int) -> Compressor:
    """Resolve a compressor by name, paper alias, or id in the default suite."""
    return default_registry().get(key)


def list_compressors() -> list[str]:
    """Names of every configuration in the default suite (id order)."""
    return default_registry().names()
