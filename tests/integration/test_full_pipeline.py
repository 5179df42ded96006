"""The whole system in one pass: generate → prepare → multi-node store
→ interception → async training → outputs → teardown, with invariants
checked at every seam."""

from __future__ import annotations

import numpy as np
import pytest

from repro.comm.launcher import run_parallel
from repro.datasets.synthetic import generate_dataset
from repro.fanstore.daemon import DaemonConfig
from repro.fanstore.interception import intercept
from repro.fanstore.prepare import PreparedDataset, prepare_dataset
from repro.fanstore.store import FanStore, FanStoreOptions
from repro.training.loader import AsyncLoader, list_training_files
from repro.training.models import MLP
from repro.training.trainer import DataParallelTrainer, make_array_collate

NODES = 3
FEATURES = 8


def decoder(raw: bytes, path: str):
    arr = np.frombuffer(raw[8 : 8 + FEATURES], dtype=np.uint8)
    return arr.astype(np.float64) / 255.0, int(arr[0]) % 2


@pytest.fixture(scope="module")
def pipeline_dataset(tmp_path_factory):
    raw = tmp_path_factory.mktemp("pipe-raw")
    generate_dataset("astro", raw, num_files=9, avg_file_size=6_000,
                     num_dirs=3, seed=17)
    out = tmp_path_factory.mktemp("pipe-packed")
    prepare_dataset(raw, out, num_partitions=NODES,
                    compressor="delta+zlib-6", threads=2)
    return raw, out


def test_full_pipeline(pipeline_dataset):
    raw_dir, packed_dir = pipeline_dataset
    prepared = PreparedDataset.load(packed_dir)
    assert prepared.ratio > 1.0

    originals = {
        str(p.relative_to(raw_dir)): p.read_bytes()
        for p in sorted(raw_dir.rglob("*"))
        if p.is_file()
    }

    config = DaemonConfig(output_compressor="zlib-1")

    def node_main(comm):
        opts = FanStoreOptions(comm=comm, config=config)
        with FanStore(prepared, opts) as fs:
            # 1. global view: every file enumerable and statable
            files = list_training_files(fs.client)
            assert len(files) == len(originals)
            for f in files:
                assert fs.client.stat(f).st_size == len(originals[f])

            # 2. every byte correct, local or remote
            for f in files:
                assert fs.client.read_file(f) == originals[f]

            # 3. interception serves unmodified code (one rank only;
            # builtins are process-global)
            if comm.rank == 0:
                import os

                with intercept(fs):
                    listing = os.listdir(fs.mount_point)
                    assert "cls0000" in listing

            # 4. async training with allreduce
            loader = AsyncLoader(
                fs.client, files, batch_size=6, epochs=2,
                rank=comm.rank, world_size=comm.size, seed=3,
                decoder=decoder,
            )
            trainer = DataParallelTrainer(
                MLP([FEATURES, 6, 2], seed=5),
                loader,
                make_array_collate((FEATURES,), 2),
                comm=comm,
                lr=0.1,
                log_client=fs.client,  # rank 0 writes the training log
                log_path="logs/train.log",
            )
            report = trainer.train()

            # 5. outputs: every rank writes a sample artifact (§II-B3's
            # GAN-sample pattern) through the compressed write path;
            # after a barrier, peers can read it remotely.
            fs.client.write_file(
                f"samples/rank{comm.rank}.bin",
                bytes([comm.rank]) * 512,
            )
            comm.barrier()
            peer = (comm.rank + 1) % comm.size
            assert fs.client.read_file(
                f"samples/rank{peer}.bin"
            ) == bytes([peer]) * 512
            log = fs.client.read_file("logs/train.log")
            assert b"epoch=" in log

            stats = fs.daemon.stats
            return {
                "params": trainer.model.get_flat_params(),
                "iterations": report.iterations,
                "decompressions": stats.decompressions,
                "remote": stats.remote_fetches,
                "writes": stats.writes,
            }

    results = run_parallel(node_main, NODES, timeout=180)

    # replicas identical; every rank decompressed and wrote
    p0 = results[0]["params"]
    for r in results[1:]:
        np.testing.assert_array_equal(r["params"], p0)
    for r in results:
        assert r["iterations"] > 0
        assert r["decompressions"] > 0
        assert r["writes"] >= 1
    # with 3 ranks and 3 partitions, somebody must have fetched remotely
    assert sum(r["remote"] for r in results) > 0


def test_pipeline_reuses_prepared_dataset(pipeline_dataset):
    """§V-B: prepare once, mount many times — a second mount of the
    same partitions sees the identical namespace."""
    _, packed_dir = pipeline_dataset
    prepared = PreparedDataset.load(packed_dir)
    with FanStore(prepared) as first:
        names_first = sorted(
            r.path for r in first.daemon.metadata.walk_files()
        )
    with FanStore(prepared) as second:
        names_second = sorted(
            r.path for r in second.daemon.metadata.walk_files()
        )
        assert names_first == names_second
        assert second.verify_integrity() == len(names_second)
