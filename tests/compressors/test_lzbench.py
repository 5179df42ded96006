"""The lzbench-like evaluation driver."""

from __future__ import annotations

import pytest

from repro.compressors.lzbench import (
    BenchResult,
    bench_compressor,
    format_results,
    pareto_front,
    run_suite,
)
from repro.errors import CompressionError


@pytest.fixture(scope="module")
def samples(request):
    return [
        b"an easily compressible sample file, repeated. " * 40,
        bytes(1000),
        bytes(range(256)) * 4,
    ]


def test_bench_measures_ratio_and_times(registry, samples):
    res = bench_compressor(registry.get("zlib-6"), samples)
    assert res.compressor == "zlib-6"
    assert res.files == 3
    assert res.input_bytes == sum(len(s) for s in samples)
    assert res.ratio > 2.0
    assert res.compress_seconds > 0
    assert res.decompress_seconds > 0
    assert res.decompress_throughput > 0


def test_bench_memcpy_ratio_is_one(registry, samples):
    res = bench_compressor(registry.get("memcpy"), samples)
    assert res.ratio == pytest.approx(1.0)


def test_bench_rejects_empty_samples(registry):
    with pytest.raises(ValueError):
        bench_compressor(registry.get("zlib-1"), [])


def test_bench_rejects_bad_repetitions(registry, samples):
    with pytest.raises(ValueError):
        bench_compressor(registry.get("zlib-1"), samples, repetitions=0)


def test_verify_catches_corruption(registry, samples):
    """A codec whose decompress lies must be caught by verify."""

    class LyingCodec:
        name = "liar"

        def compress(self, data):
            return data

        def decompress(self, data, size=None):
            return data[:-1] if data else data

    from repro.compressors.base import Compressor

    liar = Compressor(name="liar", codec=LyingCodec())
    with pytest.raises(CompressionError):
        bench_compressor(liar, samples, verify=True)


def test_run_suite_subset(registry, samples):
    results = run_suite(samples, names=["zlib-1", "fastlz-3", "rle"])
    assert [r.compressor for r in results] == ["zlib-1", "fastlz-3", "rle"]


def test_pareto_front_dominance(samples):
    mk = lambda name, ratio, cost: BenchResult(
        compressor=name,
        input_bytes=1000,
        compressed_bytes=int(1000 / ratio),
        compress_seconds=1.0,
        decompress_seconds=cost,
        files=1,
    )
    fast_low = mk("fast", 1.5, 0.001)
    slow_high = mk("slow", 4.0, 0.1)
    dominated = mk("bad", 1.2, 0.05)  # worse ratio AND slower than fast
    front = pareto_front([fast_low, slow_high, dominated])
    names = {r.compressor for r in front}
    assert names == {"fast", "slow"}


def test_format_results_renders_table(registry, samples):
    out = format_results(run_suite(samples, names=["zlib-1", "rle"]))
    assert "compressor" in out
    assert "zlib-1" in out and "rle" in out


def test_cli_main(tmp_path, capsys):
    from repro.compressors.lzbench import main

    f = tmp_path / "sample.bin"
    f.write_bytes(b"abc" * 500)
    assert main([str(f), "--names", "zlib-1,rle", "--reps", "2"]) == 0
    out = capsys.readouterr().out
    assert "zlib-1" in out
