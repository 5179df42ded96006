"""LZW dictionary coder (the TIFF/GIF algorithm; paper §II-C cites LZW).

Variable-width codes from 9 bits, growing to ``max_bits`` then resetting
the dictionary (the classic "clear code" strategy), which bounds memory
and adapts to shifting statistics.

Format: ``uvarint(original_len)`` followed by the packed code stream.
Code 256 is CLEAR, 257 is END; entries start at 258.
"""

from __future__ import annotations

from repro.compressors.base import Codec, read_uvarint, write_uvarint
from repro.errors import CompressionError

_CLEAR = 256
_END = 257
_FIRST = 258


class LzwCodec(Codec):
    """LZW with variable-width codes and dictionary reset."""

    def __init__(self, max_bits: int = 14) -> None:
        if not 10 <= max_bits <= 20:
            raise ValueError(f"max_bits must be in [10, 20], got {max_bits}")
        self.max_bits = max_bits
        self.name = f"lzw-{max_bits}"

    def compress(self, data: bytes) -> bytes:
        out = bytearray(write_uvarint(len(data)))
        bitbuf = 0
        bitcount = 0
        width = 9
        max_code = (1 << self.max_bits) - 1

        def emit(code: int) -> None:
            nonlocal bitbuf, bitcount
            bitbuf |= code << bitcount
            bitcount += width
            while bitcount >= 8:
                out.append(bitbuf & 0xFF)
                bitbuf >>= 8
                bitcount -= 8

        table: dict[bytes, int] = {bytes([i]): i for i in range(256)}
        next_code = _FIRST
        emit(_CLEAR)
        prefix = b""
        for i in range(len(data)):
            byte = data[i : i + 1]
            candidate = prefix + byte
            if candidate in table:
                prefix = candidate
                continue
            emit(table[prefix])
            if next_code > max_code:
                emit(_CLEAR)
                table = {bytes([j]): j for j in range(256)}
                next_code = _FIRST
                width = 9
            else:
                table[candidate] = next_code
                next_code += 1
                if next_code - 1 == (1 << width) and width < self.max_bits:
                    width += 1
            prefix = byte
        if prefix:
            emit(table[prefix])
        emit(_END)
        if bitcount:
            out.append(bitbuf & 0xFF)
        return bytes(out)

    def decompress(self, data: bytes, size: int | None = None) -> bytes:
        original_len, pos = read_uvarint(data)
        out = bytearray()
        bitbuf = 0
        bitcount = 0
        width = 9
        max_code = (1 << self.max_bits) - 1

        def read_code() -> int:
            nonlocal bitbuf, bitcount, pos
            while bitcount < width:
                if pos >= len(data):
                    raise CompressionError("lzw: truncated code stream")
                bitbuf |= data[pos] << bitcount
                pos += 1
                bitcount += 8
            code = bitbuf & ((1 << width) - 1)
            bitbuf >>= width
            bitcount -= width
            return code

        table: list[bytes] = [bytes([i]) for i in range(256)] + [b"", b""]
        prev: bytes | None = None
        while True:
            code = read_code()
            if code == _END:
                break
            if code == _CLEAR:
                table = [bytes([i]) for i in range(256)] + [b"", b""]
                width = 9
                prev = None
                continue
            if code < len(table):
                entry = table[code]
            elif code == len(table) and prev is not None:
                entry = prev + prev[:1]  # the KwKwK special case
            else:
                raise CompressionError(f"lzw: invalid code {code}")
            out.extend(entry)
            if prev is not None and len(table) <= max_code:
                table.append(prev + entry[:1])
                # Encoder widens after assigning code (1 << width); mirror it.
                if len(table) == (1 << width) and width < self.max_bits:
                    width += 1
            prev = entry
        if len(out) != original_len:
            raise CompressionError(
                f"lzw: expected {original_len} bytes, decoded {len(out)}"
            )
        return bytes(out)
