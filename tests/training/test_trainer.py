"""The functional data-parallel trainer: replica consistency,
checkpoint/resume, logging through the FanStore write path."""

from __future__ import annotations

import numpy as np
import pytest

from repro.comm.launcher import run_parallel
from repro.fanstore.faults import CheckpointManager
from repro.fanstore.store import FanStore, FanStoreOptions
from repro.training.loader import SyncLoader, list_training_files
from repro.training.models import MLP
from repro.training.trainer import DataParallelTrainer, make_array_collate

FEATURES = 16
CLASSES = 3


def em_decoder(raw: bytes, path: str):
    """Deterministic features from file bytes; label from the class dir."""
    arr = np.frombuffer(raw[8 : 8 + FEATURES * 8], dtype=np.uint8)
    features = arr[:FEATURES].astype(np.float64) / 255.0
    label = int(path.split("/")[0].removeprefix("cls"))
    return features, label


def make_trainer(store, *, comm=None, checkpoints=None, epochs=2, seed=0):
    files = [
        p for p in list_training_files(store.client) if p.startswith("cls")
    ]
    loader = SyncLoader(
        store.client,
        files,
        batch_size=6,
        epochs=epochs,
        rank=comm.rank if comm else 0,
        world_size=comm.size if comm else 1,
        seed=seed,
        decoder=em_decoder,
    )
    model = MLP([FEATURES, 12, CLASSES], seed=42)
    return DataParallelTrainer(
        model,
        loader,
        make_array_collate((FEATURES,), CLASSES),
        comm=comm,
        lr=0.1,
        checkpoints=checkpoints,
        log_client=store.client,
    )


class TestSingleNode:
    def test_runs_and_reports(self, single_store):
        trainer = make_trainer(single_store)
        report = trainer.train()
        assert report.iterations == 4  # 12 files / 6 per batch × 2 epochs
        assert report.epochs_completed == 2
        assert report.bytes_read > 0
        assert len(report.losses) == report.iterations
        assert report.mean_iteration_seconds > 0

    def test_loss_decreases_over_epochs(self, single_store):
        trainer = make_trainer(single_store, epochs=30)
        report = trainer.train()
        early = np.mean(report.losses[:3])
        late = np.mean(report.losses[-3:])
        assert late < early

    def test_log_written_through_fanstore(self, single_store):
        trainer = make_trainer(single_store)
        trainer.train()
        log = single_store.client.read_file(trainer.log_path).decode()
        assert "epoch=0" in log and "loss=" in log


class TestCheckpointResume:
    def test_checkpoints_per_epoch(self, single_store, tmp_path):
        mgr = CheckpointManager(tmp_path)
        make_trainer(single_store, checkpoints=mgr, epochs=3).train()
        assert mgr.epochs() == [0, 1, 2]

    def test_resume_skips_completed_epochs(self, single_store, tmp_path):
        mgr = CheckpointManager(tmp_path)
        full = make_trainer(single_store, checkpoints=mgr, epochs=3)
        full_report = full.train()
        resumed = make_trainer(single_store, checkpoints=mgr, epochs=3)
        report = resumed.train(resume=True)
        assert report.resumed_from_epoch == 2
        assert report.iterations == 0  # everything already covered
        np.testing.assert_allclose(
            resumed.model.get_flat_params(), full.model.get_flat_params()
        )

    def test_partial_resume_continues(self, single_store, tmp_path):
        mgr = CheckpointManager(tmp_path)
        make_trainer(single_store, checkpoints=mgr, epochs=1).train()
        cont = make_trainer(single_store, checkpoints=mgr, epochs=3)
        report = cont.train(resume=True)
        assert report.resumed_from_epoch == 0
        assert report.iterations == 4  # epochs 1 and 2 only


class TestDataParallel:
    def test_replicas_stay_identical(self, prepared_dataset):
        def body(comm):
            with FanStore(prepared_dataset, FanStoreOptions(comm=comm)) as fs:
                trainer = make_trainer(fs, comm=comm, epochs=2)
                report = trainer.train()
                return (
                    trainer.model.get_flat_params(),
                    tuple(report.losses),
                )

        results = run_parallel(body, 3, timeout=120)
        params0, losses0 = results[0]
        for params, losses in results[1:]:
            np.testing.assert_array_equal(params, params0)
            assert losses == losses0

    def test_parallel_matches_serial_direction(self, prepared_dataset,
                                               single_store):
        """Averaged-gradient parallel training must track single-node
        training on the same global batches (identical, given the
        deterministic sharded loader and sum-then-average)."""
        serial = make_trainer(single_store, epochs=1, seed=5)
        serial_report = serial.train()

        def body(comm):
            with FanStore(prepared_dataset, FanStoreOptions(comm=comm)) as fs:
                trainer = make_trainer(fs, comm=comm, epochs=1, seed=5)
                trainer.train()
                return trainer.model.get_flat_params()

        results = run_parallel(body, 2, timeout=120)
        # Same batches split across 2 ranks; sample-mean gradients of
        # sub-batches averaged == full-batch gradient.
        np.testing.assert_allclose(
            results[0], serial.model.get_flat_params(), rtol=1e-8
        )
        assert serial_report.iterations == 2


class TestFusionTraining:
    def test_fused_matches_monolithic(self, prepared_dataset):
        """§II-A's fusion buffer changes the allreduce schedule but not
        the training math: final parameters identical."""

        def run(fusion_bytes):
            def body(comm):
                opts = FanStoreOptions(comm=comm)
                with FanStore(prepared_dataset, opts) as fs:
                    trainer = make_trainer(fs, comm=comm, epochs=1, seed=8)
                    trainer.fusion_bytes = fusion_bytes
                    trainer.train()
                    return trainer.model.get_flat_params()

            return run_parallel(body, 2, timeout=120)[0]

        mono = run(None)
        fused_small = run(256)
        fused_big = run(1 << 22)
        np.testing.assert_allclose(mono, fused_small, atol=1e-12)
        np.testing.assert_allclose(mono, fused_big, atol=1e-12)
