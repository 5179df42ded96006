"""Ablation — cache policy (§IV-C3's design choice).

The paper chooses release-at-refcount-zero on the argument that DL
access is uniform (every file equally likely per epoch), so retention
buys almost nothing while costing RAM. This ablation measures exactly
that: hit rates and resident memory of the paper policy (the store's
own :class:`DecompressedCache`) vs a retaining FIFO, under a
uniform-epoch access trace. The store implements only the paper's
policy, so the retaining FIFO is modelled here, in a few lines.
"""

from __future__ import annotations

from collections import OrderedDict

import numpy as np
import pytest

from repro.bench.report import PaperComparison
from repro.fanstore.cache import DecompressedCache

FILES = 64
FILE_BYTES = 4_096
EPOCHS = 3


def _trace():
    """Uniform per-epoch access: every epoch reads every file once, in
    a fresh shuffled order (the same trace for every policy)."""
    rng = np.random.default_rng(0)
    for _ in range(EPOCHS):
        for idx in rng.permutation(FILES):
            yield f"f{idx}"


def _paper_policy() -> tuple[float, int]:
    """Each read opens (pins), reads and closes (frees) its file in the
    store's cache; returns (hit rate, peak bytes)."""
    cache = DecompressedCache()
    peak = 0
    payload = bytes(FILE_BYTES)
    for path in _trace():
        if cache.open(path) is None:
            cache.insert(path, payload)
        peak = max(peak, cache.resident_bytes)
        cache.close(path)
    return cache.stats.hit_rate, peak


def _retaining_fifo(capacity_fraction: float) -> tuple[float, int]:
    """The policy the paper rejects: a closed file stays resident, and
    a miss that does not fit evicts the oldest-installed files first
    (a hit does not refresh a file's place). Returns (hit rate, peak
    bytes)."""
    capacity = max(int(FILES * FILE_BYTES * capacity_fraction), FILE_BYTES)
    resident: OrderedDict[str, int] = OrderedDict()
    hits = reads = peak = 0
    for path in _trace():
        reads += 1
        if path in resident:
            hits += 1
        else:
            while resident and sum(resident.values()) + FILE_BYTES > capacity:
                resident.popitem(last=False)
            resident[path] = FILE_BYTES
        peak = max(peak, sum(resident.values()))
    return hits / reads, peak


def test_ablation_cache_policy(benchmark, emit_report):
    results = benchmark.pedantic(
        lambda: {
            "paper (release at zero)": _paper_policy(),
            "retain, 25% capacity": _retaining_fifo(0.25),
            "retain, 50% capacity": _retaining_fifo(0.5),
            "retain, 100% capacity": _retaining_fifo(1.0),
        },
        rounds=1,
        iterations=1,
    )

    report = PaperComparison(
        "Ablation (cache policy)",
        "hit rate vs peak RAM under uniform per-epoch access",
        columns=["policy", "hit rate", "peak bytes"],
    )
    for name, (hit, peak) in results.items():
        report.add_row(name, f"{hit:.1%}", peak)
    report.add_note(
        "uniform access makes partial retention nearly worthless "
        "(hit rate ≈ capacity fraction) while holding RAM — the paper's "
        "minimum-RAM argument"
    )
    emit_report(report)

    paper_hit, paper_peak = results["paper (release at zero)"]
    retain50_hit, retain50_peak = results["retain, 50% capacity"]
    retain100_hit, _ = results["retain, 100% capacity"]

    # The paper policy holds at most one file at a time here.
    assert paper_peak == FILE_BYTES
    assert paper_hit == 0.0
    # Partial retention thrashes on permutation scans: FIFO usually
    # evicts a file before its next epoch's access, so the hit rate
    # lands far below the capacity fraction — uniform access leaves no
    # locality to exploit, which is the paper's point.
    assert retain50_hit < 0.35
    assert retain50_peak > 10 * paper_peak
    # Only full retention wins outright — at full dataset RAM cost.
    assert retain100_hit > 0.6