"""The integrity acceptance drill: seeded corruption of K records per
rank, a scrub-then-train epoch that completes with byte-identical
reads, and counters proving every hit was detected and healed — plus
the unrepairable case surfacing as a typed error naming the path."""

from __future__ import annotations

import random
import shutil
import time

import numpy as np
import pytest

from repro.comm.launcher import run_parallel
from repro.errors import DataIntegrityError
from repro.fanstore.corruption import corrupt_backend, corrupt_record
from repro.fanstore.daemon import DaemonConfig
from repro.fanstore.exchange import TAG_DAEMON
from repro.fanstore.faults import CheckpointManager
from repro.fanstore.layout import read_partition
from repro.fanstore.metadata import normalize
from repro.fanstore.prepare import PreparedDataset
from repro.fanstore.store import FanStore, FanStoreOptions
from repro.training.loader import SyncLoader, list_training_files
from repro.training.models import MLP
from repro.training.trainer import DataParallelTrainer, make_array_collate

NODES = 3
K = 2  # records corrupted per rank
EPOCHS = 2
FEATURES = 8
CLASSES = 2

SEEDS = (11, 22, 33)
seeds = pytest.mark.parametrize("seed", SEEDS, ids=[f"seed{s}" for s in SEEDS])

#: tight budgets so ladder walks cost milliseconds, not default timeouts
FAST = dict(
    request_timeout=0.4,
    max_retries=1,
)


def _drain_serve_side(fs) -> None:
    """Return once this rank's daemon serves nothing: its service loop,
    the one thread that serves, is parked in the receive of the request
    tag, so no request waits in the mailbox or is being served. Once
    every rank has stopped reading, nothing new arrives, so the state
    is final."""
    daemon = fs.daemon
    mailbox = daemon.comm.world._mailboxes[daemon.rank]
    give_up = time.monotonic() + 60
    while not any(w.tag == TAG_DAEMON for w in mailbox._waiters):
        assert time.monotonic() < give_up, "the serve side never drained"
        time.sleep(0)


def decoder(raw: bytes, path: str):
    arr = np.frombuffer(raw[8 : 8 + FEATURES], dtype=np.uint8)
    features = arr.astype(np.float64) / 255.0
    return features, int(arr.sum()) % CLASSES


@pytest.fixture(scope="module")
def originals(raw_dataset_dir):
    """store path → raw bytes, for byte-identity assertions."""
    expected = {}
    train = raw_dataset_dir / "train"
    for p in sorted(train.rglob("*")):
        if p.is_file():
            expected[normalize(str(p.relative_to(train)))] = p.read_bytes()
    for p in sorted((raw_dataset_dir / "val").iterdir()):
        if p.is_file():
            expected[f"val/{p.name}"] = p.read_bytes()
    return expected


class TestCorruptionDrill:
    @seeds
    def test_scrub_heals_k_records_per_rank_then_training_completes(
        self, seed, prepared_dataset, originals, tmp_path
    ):
        ckpt_dir = tmp_path / "ckpt"

        def body(comm):
            config = DaemonConfig(**FAST)
            opts = FanStoreOptions(comm=comm, config=config)
            with FanStore(prepared_dataset, opts) as fs:
                # each rank corrupts K of the records it is home for —
                # its *staged* copies only; the shared FS stays good
                local = sorted(
                    r.path
                    for r in fs.daemon.metadata.local_records(comm.rank)
                )
                victims = random.Random(seed + comm.rank).sample(local, K)
                for i, path in enumerate(victims):
                    corrupt_backend(
                        fs.daemon.backend, path, seed=seed + comm.rank + i
                    )

                # scrub first: the damage is found and healed before the
                # epoch ever touches it, so counts are exactly K
                report = fs.scrub()
                assert report.corrupted == K, report
                assert report.repaired == K, report
                assert report.clean
                # no cross-rank reads until every rank finished healing,
                # so one record is never detected by two threads at once
                comm.barrier()

                # byte-identical epoch reads across the whole namespace
                data = {
                    rec.path: fs.client.read_file(rec.path)
                    for rec in fs.daemon.metadata.walk_files()
                }
                assert data == originals

                # and training completes on the healed store
                files = [
                    p for p in list_training_files(fs.client)
                    if p.startswith("cls")
                ]
                loader = SyncLoader(
                    fs.client, files, batch_size=6, epochs=EPOCHS,
                    rank=comm.rank, world_size=comm.size, seed=1,
                    decoder=decoder,
                )
                trainer = DataParallelTrainer(
                    MLP([FEATURES, 6, CLASSES], seed=13),
                    loader,
                    make_array_collate((FEATURES,), CLASSES),
                    comm=comm,
                    lr=0.2,
                    checkpoints=CheckpointManager(ckpt_dir),
                )
                train_report = trainer.train()
                assert train_report.epochs_completed == EPOCHS
                stats = fs.daemon.stats
                return (
                    stats.corruption_detected,
                    stats.corruption_repaired,
                    trainer.model.get_flat_params(),
                )

        results = run_parallel(body, NODES, timeout=300)
        for detected, repaired, params in results:
            assert detected == K  # nothing double-counted by the reads
            assert repaired == K
            np.testing.assert_array_equal(params, results[0][2])

    @seeds
    def test_read_path_alone_heals_without_scrubbing(
        self, seed, prepared_dataset, originals
    ):
        """No scrubber: verify-on-read catches the corruption the
        moment the epoch reaches it and the reads still come back
        byte-identical."""

        def body(comm):
            config = DaemonConfig(**FAST)
            opts = FanStoreOptions(comm=comm, config=config)
            with FanStore(prepared_dataset, opts) as fs:
                local = sorted(
                    r.path
                    for r in fs.daemon.metadata.local_records(comm.rank)
                )
                victims = random.Random(seed * 7 + comm.rank).sample(local, K)
                for i, path in enumerate(victims):
                    corrupt_backend(
                        fs.daemon.backend, path, seed=seed + comm.rank + i
                    )
                data = {
                    rec.path: fs.client.read_file(rec.path)
                    for rec in fs.daemon.metadata.walk_files()
                }
                assert data == originals
                # a peer's read can still be repairing this rank's copy
                # on its serve side: count only once every rank is done
                # reading and this rank's serve side has drained
                comm.barrier()
                _drain_serve_side(fs)
                stats = fs.daemon.stats
                # every victim was healed by whoever read it first (this
                # rank locally, or a peer via the serve path + ladder);
                # this rank's own counters cover its local reads
                return stats.corruption_detected, stats.corruption_repaired

        results = run_parallel(body, NODES, timeout=300)
        total_detected = sum(d for d, _ in results)
        total_repaired = sum(r for _, r in results)
        assert total_detected == total_repaired
        assert total_detected >= NODES * K


class TestUnrepairable:
    def test_typed_error_names_the_path(self, prepared_dataset, tmp_path):
        """Both the staged copy and the shared-FS floor are corrupt:
        the ladder is exhausted and the failure is a DataIntegrityError
        (an EIO-carrying OSError) naming the exact record."""
        bad_root = tmp_path / "bad"
        shutil.copytree(prepared_dataset.root, bad_root)
        prepared = PreparedDataset.load(bad_root)
        victim = read_partition(
            prepared.partition_paths()[0], with_data=False
        )[0].path
        corrupt_record(prepared, victim, seed=1)

        with FanStore(prepared) as fs:
            report = fs.scrub()
            assert report.unrepaired == [victim]
            assert not report.clean
            with pytest.raises(DataIntegrityError) as exc_info:
                fs.client.read_file(victim)
            assert exc_info.value.filename == victim
            # every other record is untouched and readable
            for rec in fs.daemon.metadata.walk_files():
                if rec.path != victim:
                    fs.client.read_file(rec.path)
