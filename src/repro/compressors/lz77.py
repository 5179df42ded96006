"""A byte-oriented LZ77 codec in the LZ4 family ("fastlz").

This is the suite's stand-in for the fast-decompression compressors the
paper converges on (lzsse8, lz4fast, lz4hc, lzf): greedy hash-based
match finding, token format modeled on the LZ4 block format, and a
*level* knob trading compression effort (hash-chain search depth) for
ratio — level 1 behaves like lz4fast (single probe), level 9 like lz4hc
(deep chain search).

Token format (LZ4-style):

- token byte: high nibble = literal count (15 ⇒ extended with
  255-continuation bytes), low nibble = match length − 4 (15 ⇒ extended)
- literal bytes
- 2-byte little-endian match offset (1..65535), omitted for the final
  literals-only sequence

Payload is prefixed with ``uvarint(original_len)``.
"""

from __future__ import annotations

from repro.compressors.base import Codec, read_uvarint, write_uvarint
from repro.errors import CompressionError

_MIN_MATCH = 4
_MAX_OFFSET = 0xFFFF
_HASH_BITS = 14
_HASH_SIZE = 1 << _HASH_BITS


def _hash4(data: bytes, i: int) -> int:
    """Multiplicative hash of the 4 bytes at ``i`` (Knuth constant)."""
    v = data[i] | (data[i + 1] << 8) | (data[i + 2] << 16) | (data[i + 3] << 24)
    return ((v * 2654435761) >> (32 - _HASH_BITS)) & (_HASH_SIZE - 1)


def _write_length(out: bytearray, extra: int) -> None:
    """Emit LZ4-style 255-continuation extension bytes."""
    while extra >= 255:
        out.append(255)
        extra -= 255
    out.append(extra)


class Lz77Codec(Codec):
    """LZ4-block-format LZ77 with level-controlled match search."""

    def __init__(self, level: int = 3) -> None:
        if not 1 <= level <= 12:
            raise ValueError(f"level must be in [1, 12], got {level}")
        self.level = level
        self.name = f"fastlz-{level}"
        # Chain probes per position: level 1 = plain hash table (depth 1),
        # deeper levels approach exhaustive chain search (lz4hc-like).
        self._max_probes = 1 if level == 1 else 1 << min(level, 10)

    # -- compression ----------------------------------------------------

    def compress(self, data: bytes) -> bytes:
        out = bytearray(write_uvarint(len(data)))
        n = len(data)
        if n == 0:
            return bytes(out)
        # head[h] = most recent position with hash h; prev[i] = previous
        # position in i's chain. Chains enable hc-style deeper search.
        head = [-1] * _HASH_SIZE
        prev = [-1] * n if self._max_probes > 1 else None
        anchor = 0  # start of pending literals
        i = 0
        limit = n - _MIN_MATCH

        def emit_sequence(lit_end: int, match_len: int, offset: int) -> None:
            lit_len = lit_end - anchor
            token_lit = min(lit_len, 15)
            token_match = min(match_len - _MIN_MATCH, 15) if match_len else 0
            out.append((token_lit << 4) | token_match)
            if token_lit == 15:
                _write_length(out, lit_len - 15)
            out.extend(data[anchor:lit_end])
            if match_len:
                out.append(offset & 0xFF)
                out.append(offset >> 8)
                if token_match == 15:
                    _write_length(out, match_len - _MIN_MATCH - 15)

        while i <= limit:
            h = _hash4(data, i)
            best_len = 0
            best_off = 0
            candidate = head[h]
            probes = self._max_probes
            while candidate >= 0 and probes > 0:
                off = i - candidate
                if off > _MAX_OFFSET:
                    break
                # Cheap reject: compare the byte one past the current best.
                if (
                    best_len == 0
                    or (
                        i + best_len < n
                        and data[candidate + best_len] == data[i + best_len]
                    )
                ) and data[candidate : candidate + _MIN_MATCH] == data[
                    i : i + _MIN_MATCH
                ]:
                    length = _MIN_MATCH
                    max_len = n - i
                    while (
                        length < max_len
                        and data[candidate + length] == data[i + length]
                    ):
                        length += 1
                    if length > best_len:
                        best_len = length
                        best_off = off
                probes -= 1
                candidate = prev[candidate] if prev is not None else -1
            if best_len >= _MIN_MATCH:
                emit_sequence(i, best_len, best_off)
                # Index the positions covered by the match (sparsely for
                # speed at low levels, densely at high levels).
                step = 1 if self.level >= 6 else max(1, best_len // 8)
                end = min(i + best_len, limit + 1)
                for j in range(i, end, step):
                    hj = _hash4(data, j)
                    if prev is not None:
                        prev[j] = head[hj]
                    head[hj] = j
                i += best_len
                anchor = i
            else:
                if prev is not None:
                    prev[i] = head[h]
                head[h] = i
                i += 1
        # Trailing literals-only sequence.
        if anchor < n or n == 0:
            lit_len = n - anchor
            token_lit = min(lit_len, 15)
            out.append(token_lit << 4)
            if token_lit == 15:
                _write_length(out, lit_len - 15)
            out.extend(data[anchor:n])
        return bytes(out)

    # -- decompression --------------------------------------------------

    def decompress(self, data: bytes, size: int | None = None) -> bytes:
        original_len, pos = read_uvarint(data)
        out = bytearray()
        n = len(data)

        def read_extra() -> int:
            nonlocal pos
            total = 0
            while True:
                if pos >= n:
                    raise CompressionError("fastlz: truncated length")
                byte = data[pos]
                pos += 1
                total += byte
                if byte != 255:
                    return total

        while pos < n:
            token = data[pos]
            pos += 1
            lit_len = token >> 4
            if lit_len == 15:
                lit_len += read_extra()
            if pos + lit_len > n:
                raise CompressionError("fastlz: truncated literals")
            out.extend(data[pos : pos + lit_len])
            pos += lit_len
            if pos >= n:
                break  # final sequence has no match part
            if pos + 2 > n:
                raise CompressionError("fastlz: truncated offset")
            offset = data[pos] | (data[pos + 1] << 8)
            pos += 2
            if offset == 0 or offset > len(out):
                raise CompressionError(f"fastlz: bad offset {offset}")
            match_len = (token & 0x0F) + _MIN_MATCH
            if (token & 0x0F) == 15:
                match_len += read_extra()
            start = len(out) - offset
            if offset >= match_len:
                out.extend(out[start : start + match_len])
            else:
                # Overlapping copy (run extension) must go byte-wise.
                for _ in range(match_len):
                    out.append(out[start])
                    start += 1
        if len(out) != original_len:
            raise CompressionError(
                f"fastlz: expected {original_len} bytes, decoded {len(out)}"
            )
        return bytes(out)
