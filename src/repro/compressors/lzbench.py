"""An lzbench-like evaluation driver for the compressor suite.

Reproduces the methodology of §VII-D: sample files from a dataset, run
every configuration in the registry over the samples, and record
compression ratio plus compression/decompression throughput. The
results feed Figure 7 (ratio vs decompression-time tradeoff) and
Table IV (ratios of the headline compressors per dataset).
"""

from __future__ import annotations

import argparse
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Sequence

from repro.compressors.base import Compressor
from repro.compressors.registry import CompressorRegistry, default_registry
from repro.errors import CompressionError


@dataclass(frozen=True)
class BenchResult:
    """Measured behaviour of one compressor configuration on one sample set."""

    compressor: str
    input_bytes: int
    compressed_bytes: int
    compress_seconds: float
    decompress_seconds: float
    files: int

    @property
    def ratio(self) -> float:
        """Original/compressed — the paper's convention, ≥ is better."""
        if self.compressed_bytes == 0:
            return float("inf")
        return self.input_bytes / self.compressed_bytes

    @property
    def compress_bandwidth(self) -> float:
        """Original bytes/s through ``compress``."""
        return self.input_bytes / max(self.compress_seconds, 1e-12)

    @property
    def decompress_bandwidth(self) -> float:
        """Original bytes/s through ``decompress``."""
        return self.input_bytes / max(self.decompress_seconds, 1e-12)

    @property
    def decompress_cost_per_file(self) -> float:
        """Mean seconds to decompress one sample file (Fig. 7's x-axis)."""
        return self.decompress_seconds / max(self.files, 1)

    @property
    def decompress_throughput(self) -> float:
        """Files/s through ``decompress`` (``Tpt_decom`` of Eq. 1/2)."""
        return self.files / max(self.decompress_seconds, 1e-12)


def bench_compressor(
    compressor: Compressor,
    samples: Sequence[bytes],
    *,
    repetitions: int = 1,
    verify: bool = True,
) -> BenchResult:
    """Measure one configuration over ``samples``.

    With ``verify`` the round-trip is checked on every sample — an
    lzbench ``-v`` equivalent that doubles as an integration test of the
    codec under real data.
    """
    if not samples:
        raise ValueError("bench_compressor requires at least one sample")
    if repetitions < 1:
        raise ValueError(f"repetitions must be >= 1, got {repetitions}")
    compressed: list[bytes] = []
    t0 = time.perf_counter()
    for _ in range(repetitions):
        compressed = [compressor.compress(s) for s in samples]
    compress_seconds = (time.perf_counter() - t0) / repetitions
    t0 = time.perf_counter()
    restored: list[bytes] = []
    for _ in range(repetitions):
        restored = [
            compressor.decompress(c, len(s))
            for c, s in zip(compressed, samples)
        ]
    decompress_seconds = (time.perf_counter() - t0) / repetitions
    if verify:
        for original, roundtrip in zip(samples, restored):
            if original != roundtrip:
                raise CompressionError(
                    f"{compressor.name}: round-trip mismatch on "
                    f"{len(original)}-byte sample"
                )
    return BenchResult(
        compressor=compressor.name,
        input_bytes=sum(len(s) for s in samples),
        compressed_bytes=sum(len(c) for c in compressed),
        compress_seconds=compress_seconds,
        decompress_seconds=decompress_seconds,
        files=len(samples),
    )


def run_suite(
    samples: Sequence[bytes],
    *,
    registry: CompressorRegistry | None = None,
    names: Iterable[str] | None = None,
    repetitions: int = 1,
    verify: bool = True,
) -> list[BenchResult]:
    """Benchmark every (or the named subset of) configuration(s)."""
    registry = registry or default_registry()
    compressors = (
        [registry.get(n) for n in names] if names is not None else list(registry)
    )
    return [
        bench_compressor(c, samples, repetitions=repetitions, verify=verify)
        for c in compressors
    ]


def pareto_front(results: Sequence[BenchResult]) -> list[BenchResult]:
    """Configurations not dominated in (ratio ↑, decompression cost ↓).

    This is the set Figure 7 highlights: for every plotted point either
    nothing compresses better, or nothing decompresses faster.
    """
    ordered = sorted(
        results, key=lambda r: (r.decompress_cost_per_file, -r.ratio)
    )
    front: list[BenchResult] = []
    best_ratio = -1.0
    for r in ordered:
        if r.ratio > best_ratio:
            front.append(r)
            best_ratio = r.ratio
    return front


def format_results(results: Sequence[BenchResult]) -> str:
    """Render results as an lzbench-style text table."""
    header = (
        f"{'compressor':<24} {'ratio':>7} {'c.MB/s':>9} {'d.MB/s':>9} "
        f"{'d.µs/file':>10}"
    )
    lines = [header, "-" * len(header)]
    for r in sorted(results, key=lambda r: -r.ratio):
        lines.append(
            f"{r.compressor:<24} {r.ratio:>7.2f} "
            f"{r.compress_bandwidth / 1e6:>9.1f} "
            f"{r.decompress_bandwidth / 1e6:>9.1f} "
            f"{r.decompress_cost_per_file * 1e6:>10.1f}"
        )
    return "\n".join(lines)


def main(argv: Sequence[str] | None = None) -> int:
    """CLI: ``fanstore-lzbench FILE [FILE ...] [--names a,b] [--reps N]``."""
    parser = argparse.ArgumentParser(
        prog="fanstore-lzbench",
        description="Evaluate the compressor suite over sample files.",
    )
    parser.add_argument("files", nargs="+", type=Path, help="sample files")
    parser.add_argument(
        "--names",
        default=None,
        help="comma-separated configuration names (default: whole suite)",
    )
    parser.add_argument("--reps", type=int, default=1, help="repetitions")
    args = parser.parse_args(argv)
    samples = [p.read_bytes() for p in args.files]
    names = args.names.split(",") if args.names else None
    results = run_suite(samples, names=names, repetitions=args.reps)
    print(format_results(results))
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
