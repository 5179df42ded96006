"""Profiling helpers that produce the selection algorithm's inputs.

§VI-B: "``S_batch`` and ``Tpt_decom(c)`` can be estimated with samples
using a set of candidate compressors. ``Tpt_read`` and ``Bdw_read`` can
be determined by an I/O performance benchmark." These helpers implement
both measurements — real ones against a live FanStore client / the
compressor suite on this host, and modeled ones against the calibrated
storage models for cluster-scale numbers.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Sequence

from repro.compressors.base import Compressor
from repro.compressors.profiles import PaperProfile
from repro.errors import SelectionError
from repro.fanstore.client import FanStoreClient
from repro.selection.model import CompressorCandidate, IoPerformance
from repro.simnet.devices import StorageModel


@dataclass(frozen=True)
class DecompressionProfile:
    """Measured decompression behaviour of one compressor on samples."""

    name: str
    ratio: float
    cost_per_file: float  # seconds
    throughput: float  # files/s

    def as_candidate(self) -> CompressorCandidate:
        return CompressorCandidate(
            name=self.name,
            ratio=max(self.ratio, 1.0),
            decompress_cost=self.cost_per_file,
        )


def profile_compressor(
    compressor: Compressor, samples: Sequence[bytes], *, repetitions: int = 3
) -> DecompressionProfile:
    """Measure ``Tpt_decom`` and ratio of a real suite member on samples.
    Each sample decodes with its length as the size hint, as the read
    path decodes a record at its ``st_size``."""
    if not samples:
        raise SelectionError("need at least one sample")
    compressed = [(compressor.compress(s), len(s)) for s in samples]
    start = time.perf_counter()
    for _ in range(repetitions):
        for c, size in compressed:
            compressor.decompress(c, size)
    elapsed = time.perf_counter() - start
    n = len(samples) * repetitions
    total_in = sum(len(s) for s in samples)
    total_out = sum(len(c) for c, _ in compressed)
    return DecompressionProfile(
        name=compressor.name,
        ratio=total_in / max(total_out, 1),
        cost_per_file=elapsed / n,
        throughput=n / max(elapsed, 1e-12),
    )


def profile_from_metrics(registry, name: str) -> DecompressionProfile | None:
    """Rebuild a :class:`DecompressionProfile` from the live
    ``codec.<name>.*`` metrics the daemon's observed reads accumulate
    (:meth:`FanStoreDaemon._observed_miss_bytes`) — the
    production-traffic counterpart of :func:`profile_compressor`, no
    offline sampling pass needed. Returns None when the codec has no
    observations yet.

    ``registry`` is a :class:`repro.obs.metrics.MetricsRegistry` (or a
    :class:`~repro.obs.metrics.MetricsSnapshot` would need its own
    reader — this reads the live objects)."""
    hist_name = f"codec.{name}.decode_seconds"
    if hist_name not in registry:
        return None
    hist = registry.get(hist_name)
    if hist.count == 0:
        return None
    plain = registry.get(f"codec.{name}.decode_bytes").value
    packed = registry.get(f"codec.{name}.decode_compressed_bytes").value
    return DecompressionProfile(
        name=name,
        ratio=plain / max(packed, 1),
        cost_per_file=hist.sum / hist.count,
        throughput=hist.count / max(hist.sum, 1e-12),
    )


def candidates_from_metrics(
    registry, names: Sequence[str] | None = None
) -> list[CompressorCandidate]:
    """Selection candidates for every codec the registry has decode
    observations for (or the named subset) — feeds production traffic
    straight into the §VI-B selection algorithm."""
    if names is None:
        prefix, suffix = "codec.", ".decode_seconds"
        names = sorted(
            n[len(prefix):-len(suffix)]
            for n in registry.names()
            if n.startswith(prefix) and n.endswith(suffix)
        )
    candidates = []
    for name in names:
        profile = profile_from_metrics(registry, name)
        if profile is not None:
            candidates.append(profile.as_candidate())
    return candidates


def candidate_from_profile(
    profile: PaperProfile, dataset: str, avg_file_size: int, arch: str = "skx"
) -> CompressorCandidate:
    """Turn a calibrated paper profile into a selection candidate for a
    dataset and average file size (the modeled path of Table VII)."""
    return CompressorCandidate(
        name=profile.name,
        ratio=profile.ratio_for(dataset),
        decompress_cost=profile.decompress_cost(avg_file_size, arch),
    )


def measure_client_read(
    client: FanStoreClient,
    paths: Sequence[str],
    *,
    repetitions: int = 1,
) -> IoPerformance:
    """Measure a live client's (``Tpt_read``, ``Bdw_read``) on this host
    by timing whole-file reads through the POSIX path."""
    if not paths:
        raise SelectionError("need at least one path")
    total_bytes = 0
    start = time.perf_counter()
    for _ in range(repetitions):
        for p in paths:
            total_bytes += len(client.read_file(p))
    elapsed = max(time.perf_counter() - start, 1e-12)
    files = len(paths) * repetitions
    return IoPerformance(tpt_read=files / elapsed, bdw_read=total_bytes / elapsed)


def model_read_performance(
    model: StorageModel, file_size: int, *, streams: int = 1
) -> IoPerformance:
    """Table VI from a calibrated storage model (cluster-scale numbers)."""
    tpt, bdw = model.table6_row(file_size, streams)
    return IoPerformance(tpt_read=tpt, bdw_read=bdw)
