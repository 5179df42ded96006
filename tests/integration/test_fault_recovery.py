"""§V-E end-to-end: a node failure mid-training, relaunch at the same
scale, resume from the last epoch checkpoint, and converge to the exact
state an uninterrupted run reaches.

Two flavors of failure live here: a simulated one (a loader that raises
partway, taking the whole launch down) and the real chaos drill — a
rank killed by the fault-injection layer while its peers keep running,
abort fast on ``comm_timeout``, and a relaunched world resumes.
"""

from __future__ import annotations

import time

import numpy as np
import pytest

from repro.comm.chaos import ChaosWorld, FaultPlan
from repro.comm.launcher import ParallelFailure, run_parallel
from repro.errors import CommError
from repro.fanstore.daemon import DaemonConfig
from repro.fanstore.exchange import TAG_DAEMON
from repro.fanstore.faults import CheckpointManager
from repro.fanstore.metadata import normalize
from repro.fanstore.store import FanStore, FanStoreOptions
from repro.training.loader import SyncLoader, list_training_files
from repro.training.models import MLP
from repro.training.trainer import DataParallelTrainer, make_array_collate

FEATURES = 8
CLASSES = 2
NODES = 3


def decoder(raw: bytes, path: str):
    arr = np.frombuffer(raw[8 : 8 + FEATURES], dtype=np.uint8)
    features = arr.astype(np.float64) / 255.0
    return features, int(arr.sum()) % CLASSES


class _CrashAfterEpoch(Exception):
    pass


class _CrashingLoader:
    """A loader that simulates node failure entering a given epoch."""

    def __init__(self, inner, crash_after: int) -> None:
        self.inner = inner
        self.crash_after = crash_after

    def __iter__(self):
        for batch in self.inner:
            if batch.epoch > self.crash_after:
                raise _CrashAfterEpoch(f"node died at epoch {batch.epoch}")
            yield batch


def _make_trainer(fs, comm, ckpt_dir, epochs, crash_after=None,
                  comm_timeout=None):
    files = [p for p in list_training_files(fs.client) if p.startswith("cls")]
    loader = SyncLoader(
        fs.client, files, batch_size=6, epochs=epochs,
        rank=comm.rank, world_size=comm.size, seed=1, decoder=decoder,
    )
    if crash_after is not None:
        loader = _CrashingLoader(loader, crash_after)
    model = MLP([FEATURES, 6, CLASSES], seed=13)
    # Every rank points at the shared checkpoint directory — the trainer
    # itself restricts *saving* to rank 0, but all ranks must read the
    # same resume point (or their epoch counts diverge).
    return DataParallelTrainer(
        model,
        loader,
        make_array_collate((FEATURES,), CLASSES),
        comm=comm,
        lr=0.2,
        checkpoints=CheckpointManager(ckpt_dir),
        comm_timeout=comm_timeout,
    )


def test_crash_then_resume_matches_uninterrupted(prepared_dataset, tmp_path):
    epochs = 4
    ckpt_crash = tmp_path / "ckpt-crash"
    ckpt_clean = tmp_path / "ckpt-clean"

    # Reference: an uninterrupted run.
    def clean(comm):
        with FanStore(prepared_dataset, FanStoreOptions(comm=comm)) as fs:
            trainer = _make_trainer(fs, comm, ckpt_clean, epochs)
            trainer.train()
            return trainer.model.get_flat_params()

    reference = run_parallel(clean, NODES, timeout=120)[0]

    # Crashed run: rank 1 dies entering epoch 2 (epochs 0-1 completed
    # and checkpointed by rank 0).
    def crashing(comm):
        with FanStore(prepared_dataset, FanStoreOptions(comm=comm)) as fs:
            trainer = _make_trainer(
                fs, comm, ckpt_crash, epochs,
                crash_after=1 if comm.rank == 1 else None,
            )
            trainer.train()

    with pytest.raises(ParallelFailure) as exc_info:
        run_parallel(crashing, NODES, timeout=120)
    assert any(
        isinstance(e, _CrashAfterEpoch)
        for e in exc_info.value.errors.values()
    )

    # The shared FS holds the epoch-1 checkpoint (the §V-E resume point).
    mgr = CheckpointManager(ckpt_crash)
    assert mgr.latest() is not None
    assert mgr.latest().epoch == 1

    # Relaunch at the same scale and resume.
    def resumed(comm):
        with FanStore(prepared_dataset, FanStoreOptions(comm=comm)) as fs:
            trainer = _make_trainer(fs, comm, ckpt_crash, epochs)
            report = trainer.train(resume=True)
            return report.resumed_from_epoch, trainer.model.get_flat_params()

    results = run_parallel(resumed, NODES, timeout=120)
    for resumed_from, params in results:
        assert resumed_from == 1
        # deterministic loaders + averaged gradients ⇒ bit-identical
        # final state to the run that never crashed
        np.testing.assert_array_equal(params, reference)


# -- the real thing: a rank killed by the chaos layer --------------------

CHAOS_SEEDS = (101, 202, 303)
seeds = pytest.mark.parametrize(
    "seed", CHAOS_SEEDS, ids=[f"seed{s}" for s in CHAOS_SEEDS]
)

DEAD = 2
TOTAL_EPOCHS = 4
CRASH_AFTER = 2  # epochs completed (and checkpointed) before the kill
_TAG_DONE = 0x0D0E

#: tight budgets so a dead rank costs seconds, not default timeouts
FAST = dict(
    request_timeout=0.4,
    max_retries=1,
)


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


@pytest.fixture(scope="module")
def drill_reference_params(prepared_dataset, tmp_path_factory):
    """Final parameters of a clean, never-crashed TOTAL_EPOCHS run —
    the drill must land on exactly these."""
    ckpt = tmp_path_factory.mktemp("drill-ref-ckpt")

    def body(comm):
        config = DaemonConfig(**FAST)
        opts = FanStoreOptions(comm=comm, config=config)
        with FanStore(prepared_dataset, opts) as fs:
            trainer = _make_trainer(fs, comm, ckpt, TOTAL_EPOCHS)
            report = trainer.train()
            assert report.epochs_completed == TOTAL_EPOCHS
            return trainer.model.get_flat_params()

    results = run_parallel(body, NODES, timeout=300)
    for r in results[1:]:
        np.testing.assert_array_equal(r, results[0])
    return results[0]


class TestChaosRecoveryDrill:
    """The acceptance drill: kill a rank mid-job under chaos, relaunch
    the world at the same size, resume from the latest checkpoint, and
    finish with byte-identical reads and bit-identical parameters."""

    @seeds
    def test_kill_relaunch_resume(
        self, seed, prepared_dataset, originals, drill_reference_params,
        tmp_path,
    ):
        ckpt_dir = tmp_path / "ckpt"
        config = DaemonConfig(**FAST)
        # light chaos while the healthy epochs train: a few delayed
        # daemon requests, well inside the request timeout
        plan = FaultPlan(seed).delay(0.02, tag=TAG_DAEMON, times=4)
        world = ChaosWorld(NODES, plan)

        # -- phase 1: train, crash, abort fast ---------------------------
        def phase1(comm):
            opts = FanStoreOptions(comm=comm, config=config)
            fs = FanStore(prepared_dataset, opts)
            trainer = _make_trainer(fs, comm, ckpt_dir, CRASH_AFTER)
            report = trainer.train()
            assert report.epochs_completed == CRASH_AFTER
            comm.barrier()
            if comm.rank == 0:
                world.kill(DEAD)
            # the job pushes on for the remaining epochs, but one rank
            # is now a corpse: its own ops raise RankDeadError, and the
            # survivors' next allreduce must give up at comm_timeout
            resumed = _make_trainer(
                fs, comm, ckpt_dir, TOTAL_EPOCHS, comm_timeout=2.0
            )
            start = time.monotonic()
            try:
                resumed.train(resume=True)
            except CommError:
                outcome = (
                    "died" if world.plan.is_dead(comm.rank) else "aborted"
                )
            else:
                outcome = "finished"  # must not happen with a corpse
            if outcome != "aborted":
                return outcome
            # gave up at comm_timeout, not at the communicator's 60 s
            # default: the gradient reduction honours it too
            assert time.monotonic() - start < 30
            # survivors skip the collective shutdown barrier (it would
            # wait on the corpse); drain pairwise — each must keep
            # serving until the other is done too — then stop
            other = 1 - comm.rank
            comm.send("done", other, _TAG_DONE)
            comm.recv(other, _TAG_DONE, timeout=60)
            fs.daemon.stop()
            return outcome

        results = run_parallel(phase1, NODES, world=world, timeout=300)
        assert results[DEAD] == "died"
        assert results[0] == results[1] == "aborted"

        # the crash left exactly the healthy epochs' checkpoints — no
        # missing epoch, no corrupt payload, no stray tmp files
        mgr = CheckpointManager(ckpt_dir)
        assert mgr.epochs() == list(range(CRASH_AFTER))
        for epoch in mgr.epochs():
            assert mgr.load(epoch).payload["params"]
        assert list(ckpt_dir.glob("*.tmp")) == []

        # -- phase 2: relaunch at the same size and resume ---------------
        def phase2(comm):
            opts = FanStoreOptions(comm=comm, config=config)
            with FanStore(prepared_dataset, opts) as fs:
                data = {
                    rec.path: fs.client.read_file(rec.path)
                    for rec in fs.daemon.metadata.walk_files()
                }
                assert data == originals  # byte-identical training reads
                trainer = _make_trainer(fs, comm, ckpt_dir, TOTAL_EPOCHS)
                report = trainer.train(resume=True)
                return (
                    report.resumed_from_epoch,
                    report.epochs_completed,
                    trainer.model.get_flat_params(),
                )

        results = run_parallel(phase2, NODES, timeout=300)
        for resumed_from, completed, params in results:
            assert resumed_from == CRASH_AFTER - 1
            assert completed == TOTAL_EPOCHS - CRASH_AFTER
            # bit-identical to the run that never crashed
            np.testing.assert_array_equal(params, drill_reference_params)

        # the relaunched job filled in the missing epochs' checkpoints
        assert mgr.epochs() == list(range(TOTAL_EPOCHS))
        assert list(ckpt_dir.glob("*.tmp")) == []


def test_resume_requires_same_checkpoint_payload(prepared_dataset, tmp_path):
    """A corrupted resume point must be detected, not silently used."""
    ckpt = tmp_path / "ckpt"
    mgr = CheckpointManager(ckpt)
    mgr.save(0, {"params": [0.0] * 3})  # wrong parameter count

    def body(comm):
        with FanStore(prepared_dataset, FanStoreOptions(comm=comm)) as fs:
            trainer = _make_trainer(fs, comm, ckpt, 2)
            trainer.train(resume=True)

    with pytest.raises(ParallelFailure):
        run_parallel(body, 2, timeout=60)
