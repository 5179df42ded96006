"""Error-bounded lossy compression for floating-point arrays.

The paper's future work (§VIII): "investigate … lossy compressors such
as SZ and ZFP as examined in the CODAR project." This module implements
both families from scratch, at the level the selection algorithm and
data-preparation pipeline need:

- :class:`SzLikeCodec` — SZ-style *error-bounded* prediction +
  quantization: a Lorenzo/linear predictor, uniform quantization of the
  residual in units of the error bound, and lossless entropy coding of
  the quantization codes. **Guarantee**: every reconstructed value is
  within ``error_bound`` of the original (absolute), enforced by
  falling back to exact storage for unpredictable points — the property
  the hypothesis suite proves.
- :class:`ZfpLikeCodec` — ZFP-style *fixed-rate* block coding: values
  are grouped into blocks, aligned to the block's largest exponent, and
  their mantissas truncated to a fixed number of bits per value. The
  guarantee here is the *rate* (bits/value), with error relative to the
  block's magnitude.

Lossy codecs deliberately do **not** implement the lossless
:class:`~repro.compressors.base.Codec` interface (they cannot satisfy
the round-trip identity); they expose an array-in/array-out API plus
the error metrics the CODAR-style evaluation reports.
"""

from __future__ import annotations

import struct
import zlib

import numpy as np

from repro.errors import CompressionError

_MAGIC_SZ = b"SZL1"
_MAGIC_ZFP = b"ZFL1"

_DTYPES = {0: np.float32, 1: np.float64}
_DTYPE_CODES = {np.dtype(np.float32): 0, np.dtype(np.float64): 1}


def max_abs_error(original: np.ndarray, reconstructed: np.ndarray) -> float:
    """L∞ error between two arrays (the bound SZ-style codecs certify)."""
    if original.shape != reconstructed.shape:
        raise CompressionError("shape mismatch in error computation")
    if original.size == 0:
        return 0.0
    return float(np.max(np.abs(original.astype(np.float64) -
                               reconstructed.astype(np.float64))))


def psnr(original: np.ndarray, reconstructed: np.ndarray) -> float:
    """Peak signal-to-noise ratio in dB (CODAR's headline metric)."""
    if original.size == 0:
        return float("inf")
    peak = float(np.max(np.abs(original))) or 1.0
    mse = float(np.mean((original.astype(np.float64) -
                         reconstructed.astype(np.float64)) ** 2))
    if mse == 0.0:
        return float("inf")
    return 20.0 * np.log10(peak) - 10.0 * np.log10(mse)


class SzLikeCodec:
    """SZ-style error-bounded predictive quantizer for 1-D float arrays.

    ``error_bound`` is the absolute L∞ bound; ``predictor`` selects
    order-1 Lorenzo (previous value) or order-2 linear extrapolation.
    Multidimensional inputs are compressed along their flattened order
    and restored to shape.
    """

    #: quantization codes span [-_QUANT_RANGE, +_QUANT_RANGE]; residuals
    #: beyond that are stored exactly ("unpredictable" points in SZ).
    _QUANT_RANGE = 1 << 20

    def __init__(self, error_bound: float, predictor: str = "lorenzo") -> None:
        if not error_bound > 0:
            raise CompressionError(
                f"error bound must be positive, got {error_bound}"
            )
        if predictor not in ("lorenzo", "linear"):
            raise CompressionError(f"unknown predictor {predictor!r}")
        self.error_bound = float(error_bound)
        self.predictor = predictor
        self.name = f"szlike({error_bound:g},{predictor})"

    # -- encode -----------------------------------------------------------

    def _predict(self, recon: np.ndarray, i: int) -> float:
        if i == 0:
            return 0.0
        if self.predictor == "lorenzo" or i == 1:
            return float(recon[i - 1])
        return float(2.0 * recon[i - 1] - recon[i - 2])

    def compress(self, array: np.ndarray) -> bytes:
        arr = np.asarray(array)
        if arr.dtype not in (np.float32, np.float64):
            raise CompressionError(
                f"szlike compresses float arrays, got {arr.dtype}"
            )
        if not np.all(np.isfinite(arr)):
            raise CompressionError("szlike requires finite values")
        shape = arr.shape
        flat = arr.reshape(-1).astype(np.float64)
        n = flat.size
        eb = self.error_bound
        codes = np.zeros(n, dtype=np.int32)
        exact_idx: list[int] = []
        exact_vals: list[float] = []
        recon = np.zeros(n, dtype=np.float64)
        for i in range(n):
            pred = self._predict(recon, i)
            code = int(np.rint((flat[i] - pred) / (2.0 * eb)))
            if abs(code) >= self._QUANT_RANGE:
                exact_idx.append(i)
                exact_vals.append(flat[i])
                recon[i] = flat[i]
                codes[i] = self._QUANT_RANGE  # sentinel
                continue
            value = pred + code * 2.0 * eb
            if abs(value - flat[i]) > eb:  # rounding edge: store exact
                exact_idx.append(i)
                exact_vals.append(flat[i])
                recon[i] = flat[i]
                codes[i] = self._QUANT_RANGE
            else:
                recon[i] = value
                codes[i] = code
        packed_codes = zlib.compress(codes.astype("<i4").tobytes(), 6)
        packed_exact = zlib.compress(
            np.asarray(exact_idx, dtype="<u8").tobytes()
            + np.asarray(exact_vals, dtype="<f8").tobytes(),
            6,
        )
        header = struct.pack(
            "<4sBBdII",
            _MAGIC_SZ,
            _DTYPE_CODES[arr.dtype],
            0 if self.predictor == "lorenzo" else 1,
            eb,
            len(shape),
            len(exact_idx),
        )
        header += struct.pack(f"<{len(shape)}Q", *shape)
        header += struct.pack("<II", len(packed_codes), len(packed_exact))
        return header + packed_codes + packed_exact

    # -- decode ----------------------------------------------------------

    def decompress(self, blob: bytes) -> np.ndarray:
        base = struct.calcsize("<4sBBdII")
        if len(blob) < base or blob[:4] != _MAGIC_SZ:
            raise CompressionError("szlike: bad magic")
        (_, dtype_code, pred_code, eb, ndim, n_exact) = struct.unpack(
            "<4sBBdII", blob[:base]
        )
        off = base
        shape = struct.unpack(f"<{ndim}Q", blob[off : off + 8 * ndim])
        off += 8 * ndim
        len_codes, len_exact = struct.unpack("<II", blob[off : off + 8])
        off += 8
        codes = np.frombuffer(
            zlib.decompress(blob[off : off + len_codes]), dtype="<i4"
        )
        off += len_codes
        exact_raw = zlib.decompress(blob[off : off + len_exact])
        exact_idx = np.frombuffer(exact_raw[: 8 * n_exact], dtype="<u8")
        exact_vals = np.frombuffer(exact_raw[8 * n_exact :], dtype="<f8")
        predictor = "lorenzo" if pred_code == 0 else "linear"
        n = int(np.prod(shape)) if shape else codes.size
        recon = np.zeros(n, dtype=np.float64)
        exact_map = dict(zip(exact_idx.tolist(), exact_vals.tolist()))
        saved_pred, self.predictor = self.predictor, predictor
        try:
            for i in range(n):
                if codes[i] == self._QUANT_RANGE:
                    recon[i] = exact_map[i]
                else:
                    recon[i] = self._predict(recon, i) + codes[i] * 2.0 * eb
        finally:
            self.predictor = saved_pred
        return recon.reshape(shape).astype(_DTYPES[dtype_code])

    def ratio(self, array: np.ndarray) -> float:
        """Original bytes / compressed bytes."""
        blob = self.compress(array)
        return array.nbytes / len(blob)


class ZfpLikeCodec:
    """ZFP-style fixed-rate block coder for 1-D float arrays.

    Blocks of ``block_size`` values share one exponent; each value's
    mantissa is kept to ``bits_per_value`` bits. Rate is exactly
    ``bits_per_value`` plus one 2-byte exponent per block.
    """

    def __init__(self, bits_per_value: int = 12, block_size: int = 64) -> None:
        if not 2 <= bits_per_value <= 32:
            raise CompressionError(
                f"bits_per_value must be in [2, 32], got {bits_per_value}"
            )
        if not 4 <= block_size <= 4096:
            raise CompressionError(
                f"block_size must be in [4, 4096], got {block_size}"
            )
        self.bits = bits_per_value
        self.block_size = block_size
        self.name = f"zfplike({bits_per_value}bpv)"

    def compress(self, array: np.ndarray) -> bytes:
        arr = np.asarray(array)
        if arr.dtype not in (np.float32, np.float64):
            raise CompressionError(
                f"zfplike compresses float arrays, got {arr.dtype}"
            )
        if not np.all(np.isfinite(arr)):
            raise CompressionError("zfplike requires finite values")
        shape = arr.shape
        flat = arr.reshape(-1).astype(np.float64)
        n = flat.size
        bs = self.block_size
        n_blocks = (n + bs - 1) // bs
        exps = np.zeros(n_blocks, dtype="<i2")
        # signed quantized values, bits-1 magnitude bits
        scale_limit = (1 << (self.bits - 1)) - 1
        quants = np.zeros(n, dtype="<i4")
        for b in range(n_blocks):
            chunk = flat[b * bs : (b + 1) * bs]
            peak = float(np.max(np.abs(chunk))) if chunk.size else 0.0
            exp = int(np.ceil(np.log2(peak))) if peak > 0 else 0
            scale = scale_limit / (2.0 ** exp)
            if peak == 0.0 or np.isinf(scale):
                # "all zero" sentinel — also for a peak so deep in the
                # subnormals that the scale overflows: 0 x inf would
                # quantize the block's zeros to NaN garbage
                exps[b] = -(1 << 14)
                continue
            exps[b] = exp
            quants[b * bs : (b + 1) * bs] = np.clip(
                np.rint(chunk * scale), -scale_limit - 1, scale_limit
            ).astype("<i4")
        packed = zlib.compress(quants.tobytes() + exps.tobytes(), 1)
        header = struct.pack(
            "<4sBBHI",
            _MAGIC_ZFP,
            _DTYPE_CODES[arr.dtype],
            self.bits,
            self.block_size,
            len(shape),
        )
        header += struct.pack(f"<{len(shape)}Q", *shape)
        return header + packed

    def decompress(self, blob: bytes) -> np.ndarray:
        base = struct.calcsize("<4sBBHI")
        if len(blob) < base or blob[:4] != _MAGIC_ZFP:
            raise CompressionError("zfplike: bad magic")
        _, dtype_code, bits, bs, ndim = struct.unpack("<4sBBHI", blob[:base])
        off = base
        shape = struct.unpack(f"<{ndim}Q", blob[off : off + 8 * ndim])
        off += 8 * ndim
        raw = zlib.decompress(blob[off:])
        n = int(np.prod(shape)) if shape else 0
        n_blocks = (n + bs - 1) // bs
        quants = np.frombuffer(raw[: 4 * n], dtype="<i4")
        exps = np.frombuffer(raw[4 * n : 4 * n + 2 * n_blocks], dtype="<i2")
        scale_limit = (1 << (bits - 1)) - 1
        out = np.zeros(n, dtype=np.float64)
        for b in range(n_blocks):
            if exps[b] == -(1 << 14):
                continue
            scale = scale_limit / (2.0 ** int(exps[b]))
            out[b * bs : (b + 1) * bs] = (
                quants[b * bs : (b + 1) * bs] / scale
            )
        return out.reshape(shape).astype(_DTYPES[dtype_code])

    def ratio(self, array: np.ndarray) -> float:
        blob = self.compress(array)
        return array.nbytes / len(blob)

    def block_relative_error_bound(self) -> float:
        """Worst-case error relative to each block's peak magnitude:
        half a quantization step."""
        return 1.0 / ((1 << (self.bits - 1)) - 1)
