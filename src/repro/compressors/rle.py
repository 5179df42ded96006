"""Byte-level run-length encoding.

The simplest dictionary-free member of the suite: very fast, only
effective on data with long byte runs (sparse scientific arrays,
padded records). Serves as a low-ratio/low-cost point in the Fig. 7
tradeoff space.

Format: ``uvarint(original_len)`` then a sequence of tokens:
``0x00..0x7F n`` → copy the next ``n+1`` literal bytes;
``0x80..0xFF n`` → repeat the next byte ``(n & 0x7F) + 2`` … encoded as
(control, payload) pairs where control's high bit selects run vs literal
and the low 7 bits carry ``count-1`` (literals) or ``count-2`` (runs,
min run length 2). Runs longer than 129 are split.
"""

from __future__ import annotations

import numpy as np

from repro.compressors.base import Codec, read_uvarint, write_uvarint
from repro.errors import CompressionError

_MAX_LIT = 128  # control 0x00..0x7F → 1..128 literals
_MAX_RUN = 129  # control 0x80..0xFF → 2..129 repeats


class RleCodec(Codec):
    """Run-length coder with literal-run escapes."""

    name = "rle"

    def compress(self, data: bytes) -> bytes:
        out = bytearray(write_uvarint(len(data)))
        if not data:
            return bytes(out)
        arr = np.frombuffer(data, dtype=np.uint8)
        # Boundaries of equal-byte runs, vectorized.
        change = np.nonzero(np.diff(arr))[0] + 1
        starts = np.concatenate(([0], change))
        ends = np.concatenate((change, [len(arr)]))
        lit_start = -1  # start of a pending literal stretch

        def flush_literals(upto: int) -> None:
            nonlocal lit_start
            if lit_start < 0:
                return
            pos = lit_start
            while pos < upto:
                n = min(_MAX_LIT, upto - pos)
                out.append(n - 1)
                out.extend(data[pos : pos + n])
                pos += n
            lit_start = -1

        for s, e in zip(starts.tolist(), ends.tolist()):
            run = e - s
            if run >= 2:
                flush_literals(s)
                byte = data[s]
                while run > 0:
                    n = min(_MAX_RUN, run)
                    if n == 1:
                        # A leftover single byte: emit as a literal.
                        out.append(0)
                        out.append(byte)
                    else:
                        out.append(0x80 | (n - 2))
                        out.append(byte)
                    run -= n
            else:
                if lit_start < 0:
                    lit_start = s
        flush_literals(len(data))
        return bytes(out)

    def decompress(self, data: bytes, size: int | None = None) -> bytes:
        original_len, pos = read_uvarint(data)
        out = bytearray()
        n = len(data)
        while pos < n:
            control = data[pos]
            pos += 1
            if control & 0x80:
                if pos >= n:
                    raise CompressionError("rle: truncated run token")
                out.extend(bytes([data[pos]]) * ((control & 0x7F) + 2))
                pos += 1
            else:
                count = control + 1
                if pos + count > n:
                    raise CompressionError("rle: truncated literal run")
                out.extend(data[pos : pos + count])
                pos += count
        if len(out) != original_len:
            raise CompressionError(
                f"rle: expected {original_len} bytes, decoded {len(out)}"
            )
        return bytes(out)
