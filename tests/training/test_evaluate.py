"""Validation evaluation over the broadcast partition."""

from __future__ import annotations

import numpy as np
import pytest

from repro.comm.launcher import run_parallel
from repro.errors import ReproError
from repro.fanstore.store import FanStore, FanStoreOptions
from repro.training.loader import SyncLoader, list_training_files
from repro.training.models import MLP
from repro.training.trainer import DataParallelTrainer, make_array_collate

FEATURES = 8


def decoder(raw: bytes, path: str):
    arr = np.frombuffer(raw[8 : 8 + FEATURES], dtype=np.uint8)
    return arr.astype(np.float64) / 255.0, int(arr[1]) % 2


def _trainer(store, comm=None):
    files = [p for p in list_training_files(store.client)
             if p.startswith("cls")]
    loader = SyncLoader(
        store.client, files, batch_size=6, epochs=2,
        rank=comm.rank if comm else 0,
        world_size=comm.size if comm else 1,
        seed=4, decoder=decoder,
    )
    return DataParallelTrainer(
        MLP([FEATURES, 6, 2], seed=11), loader,
        make_array_collate((FEATURES,), 2), comm=comm, lr=0.1,
    )


def _val_loader(store):
    val_files = [f"val/{n}" for n in store.client.listdir("val")]
    return SyncLoader(
        store.client, val_files, batch_size=len(val_files), epochs=1,
        decoder=decoder,
    )


class TestEvaluate:
    def test_returns_loss_and_accuracy(self, single_store):
        trainer = _trainer(single_store)
        trainer.train()
        loss, acc = trainer.evaluate(_val_loader(single_store))
        assert loss > 0
        assert 0.0 <= acc <= 1.0

    def test_empty_loader_rejected(self, single_store):
        trainer = _trainer(single_store)

        class Empty:
            def __iter__(self):
                return iter(())

        with pytest.raises(ReproError):
            trainer.evaluate(Empty())

    def test_broadcast_validation_identical_on_all_ranks(
        self, prepared_dataset
    ):
        """§V-B's point: the validation set is replicated to every node,
        so evaluation needs no communication and agrees everywhere."""

        def body(comm):
            with FanStore(prepared_dataset, FanStoreOptions(comm=comm)) as fs:
                trainer = _trainer(fs, comm)
                trainer.train()
                before = fs.daemon.stats.remote_fetches
                loss, acc = trainer.evaluate(_val_loader(fs))
                remote_during_eval = fs.daemon.stats.remote_fetches - before
                return loss, acc, remote_during_eval

        results = run_parallel(body, 3, timeout=120)
        losses = {round(loss, 12) for loss, _, _ in results}
        accs = {acc for _, acc, _ in results}
        assert len(losses) == 1 and len(accs) == 1
        # broadcast data is local everywhere: zero interconnect traffic
        assert all(remote == 0 for _, _, remote in results)
