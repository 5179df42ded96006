"""Canonical Huffman coding (the paper's §II-C "encoding" family).

A pure entropy coder: no dictionary, so it compresses byte-skewed data
(text, filtered numeric arrays) but not data with repeated substrings.
In the suite it provides mid-ratio/mid-cost points and composes with the
delta/bitshuffle filters, which skew byte distributions.

Format: ``uvarint(original_len)``, 256 nibble-packed code lengths
(128 bytes, each length 0..15), then the MSB-first packed bit stream.
Canonical code assignment makes the table self-describing.
"""

from __future__ import annotations

import heapq
from collections import Counter

import numpy as np

from repro.compressors.base import Codec, read_uvarint, write_uvarint
from repro.errors import CompressionError

_MAX_CODE_LEN = 15


def _code_lengths(freqs: Counter) -> list[int]:
    """Huffman code lengths per symbol, capped at ``_MAX_CODE_LEN``.

    Uses the standard heap construction; if the tree exceeds the cap
    (possible with > ~2.7M highly skewed bytes), lengths are flattened
    with the package-merge-free heuristic of re-weighting and retrying.
    """
    symbols = sorted(freqs)
    if len(symbols) == 1:
        return [1 if s == symbols[0] else 0 for s in range(256)]
    weights = {s: freqs[s] for s in symbols}
    for _attempt in range(8):
        # heap items: (weight, tiebreak, {symbol: depth})
        heap = [(w, s, {s: 0}) for s, w in weights.items()]
        heapq.heapify(heap)
        counter = 256  # tiebreak ids above symbol range
        while len(heap) > 1:
            w1, _, d1 = heapq.heappop(heap)
            w2, _, d2 = heapq.heappop(heap)
            merged = {s: d + 1 for s, d in d1.items()}
            merged.update({s: d + 1 for s, d in d2.items()})
            heapq.heappush(heap, (w1 + w2, counter, merged))
            counter += 1
        depths = heap[0][2]
        if max(depths.values()) <= _MAX_CODE_LEN:
            lengths = [0] * 256
            for s, d in depths.items():
                lengths[s] = d
            return lengths
        # Flatten the distribution and retry: raising small weights
        # shortens the deepest codes.
        weights = {s: (w + 1) // 2 + 1 for s, w in weights.items()}
    raise CompressionError("huffman: could not cap code lengths")


def _canonical_codes(lengths: list[int]) -> list[tuple[int, int]]:
    """Assign canonical codes; returns ``[(code, length)]`` per symbol."""
    order = sorted(
        (s for s in range(256) if lengths[s]), key=lambda s: (lengths[s], s)
    )
    codes: list[tuple[int, int]] = [(0, 0)] * 256
    code = 0
    prev_len = 0
    for s in order:
        code <<= lengths[s] - prev_len
        codes[s] = (code, lengths[s])
        code += 1
        prev_len = lengths[s]
    return codes


class HuffmanCodec(Codec):
    """Order-0 canonical Huffman coder."""

    name = "huffman"

    def compress(self, data: bytes) -> bytes:
        out = bytearray(write_uvarint(len(data)))
        if not data:
            out.extend(b"\x00" * 128)
            return bytes(out)
        freqs = Counter(data)
        lengths = _code_lengths(freqs)
        codes = _canonical_codes(lengths)
        # Nibble-pack the 256 lengths.
        for i in range(0, 256, 2):
            out.append((lengths[i] << 4) | lengths[i + 1])
        # Encode via per-byte code/length lookup, accumulating MSB-first.
        code_arr = [c for c, _ in codes]
        len_arr = [l for _, l in codes]
        bitbuf = 0
        bitcount = 0
        for byte in data:
            bitbuf = (bitbuf << len_arr[byte]) | code_arr[byte]
            bitcount += len_arr[byte]
            while bitcount >= 8:
                bitcount -= 8
                out.append((bitbuf >> bitcount) & 0xFF)
        if bitcount:
            out.append((bitbuf << (8 - bitcount)) & 0xFF)
        return bytes(out)

    def decompress(self, data: bytes, size: int | None = None) -> bytes:
        original_len, pos = read_uvarint(data)
        if pos + 128 > len(data):
            raise CompressionError("huffman: truncated length table")
        lengths = []
        for i in range(128):
            packed = data[pos + i]
            lengths.append(packed >> 4)
            lengths.append(packed & 0x0F)
        pos += 128
        if original_len == 0:
            return b""
        codes = _canonical_codes(lengths)
        # Invert to (length, code) → symbol for the decode loop.
        decode: dict[tuple[int, int], int] = {}
        for sym in range(256):
            code, length = codes[sym]
            if length:
                decode[(length, code)] = sym
        if not decode:
            raise CompressionError("huffman: empty code table")
        # Bit-unpack the remainder once, then walk it.
        bits = np.unpackbits(np.frombuffer(data, dtype=np.uint8, offset=pos))
        out = bytearray()
        acc = 0
        acc_len = 0
        max_len = max(l for l, _ in decode)
        for bit in bits:
            acc = (acc << 1) | int(bit)
            acc_len += 1
            sym = decode.get((acc_len, acc))
            if sym is not None:
                out.append(sym)
                if len(out) == original_len:
                    return bytes(out)
                acc = 0
                acc_len = 0
            elif acc_len > max_len:
                raise CompressionError("huffman: invalid bit sequence")
        raise CompressionError(
            f"huffman: expected {original_len} bytes, decoded {len(out)}"
        )
