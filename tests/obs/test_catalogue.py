"""docs/observability.md is the metric-name contract: every name the
runtime registers must appear in the catalogue (placeholders like
``<codec>`` match any concrete segment)."""

from __future__ import annotations

import re
from pathlib import Path

import numpy as np
import pytest

from repro.comm.launcher import run_parallel
from repro.fanstore.daemon import DaemonConfig
from repro.fanstore.store import FanStore, FanStoreOptions
from repro.obs import MetricsRegistry
from repro.training.loader import SyncLoader, list_training_files
from repro.training.models import MLP
from repro.training.trainer import DataParallelTrainer, make_array_collate

DOCS = Path(__file__).parents[2] / "docs" / "observability.md"

FEATURES = 16
CLASSES = 3


def _catalogue_patterns() -> list[re.Pattern]:
    """Backticked names from the first cell of every docs table row,
    with ``<placeholder>`` segments widened to wildcards."""
    patterns = []
    for line in DOCS.read_text().splitlines():
        m = re.match(r"\|\s*`([^`]+)`\s*\|", line)
        if not m:
            continue
        escaped = re.escape(m.group(1))
        wildcarded = re.sub(r"<[a-z_]+>", r"[A-Za-z0-9_\\-]+", escaped)
        patterns.append(re.compile(rf"^{wildcarded}$"))
    return patterns


def _em_decoder(raw: bytes, path: str):
    arr = np.frombuffer(raw[8 : 8 + FEATURES * 8], dtype=np.uint8)
    features = arr[:FEATURES].astype(np.float64) / 255.0
    label = int(path.split("/")[0].removeprefix("cls"))
    return features, label


@pytest.fixture(scope="module")
def runtime_names(prepared_dataset):
    """Every metric name a full workload registers: reads with phase
    observation, a compressed write, a scrub, a short training run,
    and a 2-rank membership store."""
    reg = MetricsRegistry(rank=0, label="catalogue")
    config = DaemonConfig(metrics_every=1, output_compressor="zlib-1")
    opts = FanStoreOptions(config=config, metrics=reg)
    with FanStore(prepared_dataset, opts) as fs:
        for rec in fs.daemon.metadata.walk_files():
            fs.client.read_file(rec.path)
        fs.client.write_file("out/artifact.bin", b"payload" * 64)
        fs.scrubber().run()
        files = [
            p for p in list_training_files(fs.client) if p.startswith("cls")
        ]
        loader = SyncLoader(
            fs.client, files, batch_size=6, epochs=1,
            decoder=_em_decoder, metrics=reg,
        )
        trainer = DataParallelTrainer(
            MLP([FEATURES, 12, CLASSES], seed=42),
            loader,
            make_array_collate((FEATURES,), CLASSES),
            lr=0.1,
            log_client=fs.client,
            metrics=reg,
        )
        trainer.train()
    names = set(reg.names())

    def body(comm):
        fs = FanStore(
            prepared_dataset, FanStoreOptions(comm=comm, membership=True)
        )
        with fs:
            comm.barrier()
        return fs.metrics.names()

    for rank_names in run_parallel(body, 2, timeout=60):
        names.update(rank_names)
    return names


def test_catalogue_covers_every_runtime_name(runtime_names):
    patterns = _catalogue_patterns()
    assert len(patterns) > 40  # the docs tables parsed
    undocumented = sorted(
        name for name in runtime_names
        if not any(p.match(name) for p in patterns)
    )
    assert not undocumented, (
        f"metric names missing from docs/observability.md: {undocumented}"
    )


def test_workload_exercises_every_subsystem(runtime_names):
    """The lint is only meaningful if the workload actually registered
    each namespace the catalogue documents."""
    for expected in (
        "daemon.local_opens",
        "daemon.open_seconds",
        "daemon.phase.fetch_seconds",
        "daemon.phase.verify_seconds",
        "daemon.phase.decompress_seconds",
        "daemon.write_seconds",
        "cache.hit_ratio",
        "codec.zlib-1.decode_seconds",
        "codec.zlib-1.encode_seconds",
        "scrub.bytes_scanned",
        "scrub.pending",
        "membership.view_epoch",
        "membership.heartbeats_sent",
        "trainer.steps",
        "trainer.step_seconds",
        "loader.batch_seconds",
        "loader.bytes_read",
    ):
        assert expected in runtime_names, expected


def test_docs_cross_linked():
    readme = (Path(__file__).parents[2] / "README.md").read_text()
    assert "docs/observability.md" in readme
    internals = (
        Path(__file__).parents[2] / "docs" / "fanstore-internals.md"
    ).read_text()
    assert "observability.md" in internals
