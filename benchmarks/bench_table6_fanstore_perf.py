"""Table VI — FanStore (Tpt_read, Bdw_read) per file size and cluster.

Modeled: the calibrated per-cluster storage models at the paper's file
sizes, with 4 parallel streams (the paper measures on four nodes).
Measured: the live client's throughput/bandwidth on this host, showing
the same throughput-bound-to-bandwidth-bound transition across sizes.
"""

from __future__ import annotations

import time

import pytest

from repro.bench.report import PaperComparison
from repro.cluster.machines import cpu, gtx, v100
from repro.datasets.synthetic import generate_dataset
from repro.fanstore.daemon import DaemonConfig
from repro.fanstore.prepare import prepare_dataset
from repro.fanstore.store import FanStore, FanStoreOptions
from repro.selection.profiling import measure_client_read, model_read_performance
from repro.simnet.devices import fanstore_local
from repro.training.loader import list_training_files
from repro.util.units import KIB, MB

PAPER_TABLE6 = [
    # cluster, size label, size, Tpt_read (f/s), Bdw_read (MB/s)
    ("GTX", "512 KB", 512 * KIB, 9_469, 4_969),
    ("GTX", "2 MB", 2_048 * KIB, 3_158, 6_663),
    ("V100", "512 KB", 512 * KIB, 8_654, 4_540),
    ("V100", "2 MB", 2_048 * KIB, 5_026, 10_546),
    ("CPU", "1 KB", 1_024, 29_103, 30),
]

_MACHINES = {"GTX": gtx, "V100": v100, "CPU": cpu}


def _modeled_table6():
    # The paper's Table VI satisfies Bdw = Tpt × size exactly — i.e. it
    # reports the single-stream FanStore rate per cluster ("the FanStore
    # benchmark only uses one process per node", §VII-E discussion).
    rows = []
    for cluster, label, size, paper_tpt, paper_bdw in PAPER_TABLE6:
        machine = _MACHINES[cluster]()
        perf = model_read_performance(
            fanstore_local(machine.node.storage), size, streams=1
        )
        rows.append(
            (cluster, label, perf.tpt_read, paper_tpt,
             perf.bdw_read / MB, paper_bdw)
        )
    return rows


def test_table6_modeled(benchmark, emit_report):
    rows = benchmark(_modeled_table6)
    report = PaperComparison(
        "Table VI",
        "FanStore read performance, 4 nodes (modeled vs paper)",
        columns=["cluster", "size", "Tpt f/s", "(paper)", "Bdw MB/s",
                 "(paper)"],
    )
    for cluster, label, tpt, ptpt, bdw, pbdw in rows:
        report.add_row(cluster, label, round(tpt), ptpt, round(bdw), pbdw)
    report.add_note(
        "CPU cluster's 1 KB row is throughput-bound (30 MB/s at 29k f/s)"
        " — the regime Eq. 3's max() exists for"
    )
    emit_report(report)

    for cluster, label, tpt, ptpt, bdw, pbdw in rows:
        if cluster == "CPU":
            # tiny files: order-of-magnitude agreement is the target
            assert tpt == pytest.approx(ptpt, rel=2.0)
        else:
            assert tpt == pytest.approx(ptpt, rel=0.7)

    # The structural property: larger files shift from throughput-bound
    # to bandwidth-bound (files/s drops, MB/s rises).
    gtx_small = rows[0]
    gtx_big = rows[1]
    assert gtx_small[2] > gtx_big[2]  # Tpt falls
    assert gtx_small[4] < gtx_big[4]  # Bdw rises


def test_table6_measured_live_client(benchmark, em_store_raw, emit_report):
    files = list_training_files(em_store_raw.client)

    def read_all():
        return measure_client_read(em_store_raw.client, files)

    perf = benchmark.pedantic(read_all, rounds=3, iterations=1)
    report = PaperComparison(
        "Table VI (measured)",
        "live FanStore client on this host",
        columns=["metric", "value"],
    )
    report.add_row("Tpt_read (files/s)", round(perf.tpt_read))
    report.add_row("Bdw_read (MB/s)", round(perf.bdw_read / MB, 1))
    emit_report(report)
    assert perf.tpt_read > 1000  # user-space path is not the bottleneck

    # the run's MetricsSnapshot (written next to the report by
    # emit_report) must carry populated per-phase latency histograms:
    # with the default sampling (metrics_every=8) the 72 misses above
    # observed the fetch/verify/decompress split of the read path
    snap = em_store_raw.metrics.snapshot()
    assert snap.value("daemon.local_opens") >= len(files)
    for name in (
        "daemon.open_seconds",
        "daemon.phase.metadata_seconds",
        "daemon.phase.fetch_seconds",
        "daemon.phase.decompress_seconds",
    ):
        assert snap.get(name)["type"] == "histogram"
        assert snap.value(name) > 0, name


def _instrumentation_overhead(prepared, sweeps: int = 15):
    """Seconds per sweep over every file of ``prepared`` through an
    instrumented store (default sampling, ``metrics_every=8``) and
    through one with observation off, each the minimum of ``sweeps``
    interleaved sweeps: the minimum strips scheduler noise, the
    interleaving strips drift. Also checks that only the instrumented
    store observed phase timings."""
    instrumented = FanStore(prepared)
    bare = FanStore(
        prepared,
        FanStoreOptions(config=DaemonConfig(metrics_every=0)),
    )
    try:
        files = list_training_files(instrumented.client)

        def read_all(fs):
            t0 = time.perf_counter()
            for path in files:
                fs.client.read_file(path)
            return time.perf_counter() - t0

        read_all(instrumented), read_all(bare)  # warm both paths
        t_instr = t_bare = float("inf")
        for _ in range(sweeps):
            t_instr = min(t_instr, read_all(instrumented))
            t_bare = min(t_bare, read_all(bare))
        assert instrumented.metrics.snapshot().value("daemon.open_seconds") > 0
        assert bare.metrics.snapshot().value("daemon.open_seconds") == 0
        return t_instr, t_bare
    finally:
        instrumented.shutdown()
        bare.shutdown()


def test_table6_instrumentation_overhead(
    em_dataset_dir, tmp_path_factory, emit_report
):
    """The observability layer's read-path cost, measured: the same
    dataset read through an instrumented store (default sampling) and
    through one with observation disabled must agree within 5% — on the
    EM row, where decode hides the sampled miss's clock reads and
    histogram updates. The small-file row (1.2 KB ``memcpy``, the
    ``local_1k_memcpy`` shape: per-open overhead is all there is) is
    reported, not gated: it is the number ROADMAP item 4b's ``repro.obs``
    spans have to beat."""
    prepared = prepare_dataset(
        em_dataset_dir, tmp_path_factory.mktemp("em-packed-overhead"),
        num_partitions=2, compressor="zlib-1", threads=2,
    )
    small_raw = tmp_path_factory.mktemp("small-raw-overhead")
    generate_dataset("tokamak", small_raw, num_files=2048,
                     avg_file_size=1200, num_dirs=4, seed=11)
    small = prepare_dataset(
        small_raw, tmp_path_factory.mktemp("small-packed-overhead"),
        num_partitions=2, compressor="memcpy", threads=2,
    )
    report = PaperComparison(
        "Table VI (instrumentation overhead)",
        "observed vs unobserved read path, min of 15 interleaved sweeps",
        columns=["dataset", "configuration", "seconds/sweep"],
    )
    ratios = {}
    for label, dataset in (("EM zlib-1", prepared), ("1.2 KB memcpy", small)):
        t_instr, t_bare = _instrumentation_overhead(dataset)
        ratios[label] = t_instr / t_bare
        report.add_row(label, "metrics_every=8 (default)", round(t_instr, 6))
        report.add_row(label, "metrics_every=0 (off)", round(t_bare, 6))
        report.add_row(label, "ratio", round(ratios[label], 4))
    report.add_note("the <= 1.05 gate is on the EM row; the 1.2 KB row is "
                    "report-only (ROADMAP item 4b)")
    emit_report(report)

    # sampled observation must stay within the 5% budget
    ratio = ratios["EM zlib-1"]
    assert ratio <= 1.05, f"instrumentation overhead {ratio:.3f}x > 1.05x"
