"""The self-healing membership acceptance drill.

A rank is killed by the chaos layer mid-job. The survivors must:
convict it within the detector's threshold, re-replicate every record
it held (digest-verified, counted), keep training elastically with
zero step failures, and route post-detection reads without ever
entering the retry/backoff ladder. The killed rank is then relaunched
as a fresh incarnation that rejoins via the membership protocol —
ending ALIVE in every peer's view at the same epoch and serving
verified reads — all inside one world, one launch.
"""

from __future__ import annotations

import time

import numpy as np
import pytest

from repro.comm.chaos import ChaosWorld, FaultPlan
from repro.comm.launcher import run_parallel
from repro.fanstore.daemon import DaemonConfig
from repro.fanstore.exchange import TAG_DAEMON
from repro.fanstore.faults import CheckpointManager
from repro.fanstore.membership import MembershipConfig, RankState
from repro.fanstore.metadata import normalize
from repro.fanstore.store import FanStore, FanStoreOptions
from repro.training.loader import SyncLoader, list_training_files
from repro.training.models import MLP
from repro.training.trainer import DataParallelTrainer, make_array_collate

FEATURES = 8
CLASSES = 2
NODES = 3
DEAD = 2
KILLER = 1  # the rank that pulls the trigger (and later relaunches)
TOTAL_EPOCHS = 4
HEALTHY_EPOCHS = 2

MEMBERSHIP_SEEDS = (41, 42, 43)
seeds = pytest.mark.parametrize(
    "seed", MEMBERSHIP_SEEDS, ids=[f"seed{s}" for s in MEMBERSHIP_SEEDS]
)

#: tight request budgets (the PR-1 drill's FAST profile)
FAST = dict(
    request_timeout=0.4,
    max_retries=1,
)

#: dead_after is deliberately the slow part: the deterministic probe
#: reads (full retry ladder, then an open-breaker skip) must both land
#: before the conviction makes the skip the view's doing.
MCFG = MembershipConfig(
    heartbeat_interval=0.05, suspect_after=0.3, dead_after=2.0
)

#: records with the dead rank among their copies, given 3 partitions of
#: 4 files and extra_partition_budget=1 (rank r replicates partition
#: r-1): the 4 files homed on DEAD plus the 4 replicas DEAD held of
#: partition KILLER — the total the survivors must restore.
LOST_COPIES = 8

_TAG_DONE = 0x0D0F  # pairwise teardown drain (no collective barrier)
_TAG_READY = 0x0D10  # rank 0 → KILLER: conviction asserts captured

POLL = 0.01


def decoder(raw: bytes, path: str):
    arr = np.frombuffer(raw[8 : 8 + FEATURES], dtype=np.uint8)
    features = arr.astype(np.float64) / 255.0
    return features, int(arr.sum()) % CLASSES


def _make_trainer(fs, comm, ckpt_dir, epochs):
    files = [p for p in list_training_files(fs.client) if p.startswith("cls")]
    loader = SyncLoader(
        fs.client, files, batch_size=6, epochs=epochs,
        rank=comm.rank, world_size=comm.size, seed=1, decoder=decoder,
    )
    model = MLP([FEATURES, 6, CLASSES], seed=13)
    return DataParallelTrainer(
        model,
        loader,
        make_array_collate((FEATURES,), CLASSES),
        comm=comm,
        lr=0.2,
        checkpoints=CheckpointManager(ckpt_dir),
        membership=fs.membership,
        elastic_timeout=0.5,
        elastic_deadline=30.0,
    )


def _await(predicate, deadline_s, what):
    deadline = time.monotonic() + deadline_s
    while time.monotonic() < deadline:
        if predicate():
            return
        time.sleep(POLL)
    raise AssertionError(f"timed out waiting for {what}")


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


def _read_all(fs):
    return {
        rec.path: fs.client.read_file(rec.path)
        for rec in fs.daemon.metadata.walk_files()
    }


def _drain(comm):
    """Pairwise teardown: keep serving until every peer is done too."""
    others = [r for r in range(NODES) if r != comm.rank]
    for other in others:
        comm.send("done", other, _TAG_DONE)
    for other in others:
        comm.recv(other, _TAG_DONE, timeout=120)


class TestMembershipDrill:
    """Kill → convict → re-replicate → keep training → rejoin."""

    @seeds
    def test_kill_heal_rejoin(
        self, seed, prepared_dataset, originals, tmp_path
    ):
        ckpt_dir = tmp_path / "ckpt"
        config = DaemonConfig(**FAST, extra_partition_budget=1)
        # light chaos on the daemon tag while the healthy epochs train,
        # well inside the request timeout
        plan = FaultPlan(seed).delay(0.02, tag=TAG_DAEMON, times=4)
        world = ChaosWorld(NODES, plan)

        def body(comm):
            fs = FanStore(
                prepared_dataset,
                FanStoreOptions(comm=comm, config=config, membership=MCFG),
            )
            det = fs.membership
            report1 = _make_trainer(fs, comm, ckpt_dir, HEALTHY_EPOCHS).train()
            assert report1.epochs_completed == HEALTHY_EPOCHS
            comm.barrier()

            if comm.rank == DEAD:
                return _corpse_then_rejoin(fs, comm, world, originals)

            if comm.rank == KILLER:
                t_kill = time.monotonic()
                world.kill(DEAD)
                probe = _probe_exhausted_home(fs)
            else:
                t_kill = None
                probe = {}

            # -- survivors keep training, elastically --------------------
            trainer = _make_trainer(fs, comm, ckpt_dir, TOTAL_EPOCHS)
            report2 = trainer.train(resume=True)
            assert report2.resumed_from_epoch == HEALTHY_EPOCHS - 1
            assert report2.epochs_completed == TOTAL_EPOCHS - HEALTHY_EPOCHS
            assert report2.elastic_steps > 0  # steps ran short-handed

            # -- conviction within threshold -----------------------------
            _await(
                lambda: det.view.state(DEAD) == RankState.DEAD,
                30, "conviction of the killed rank",
            )
            assert det.stats.convictions == 1
            detected = det.detected_at[DEAD]
            if t_kill is not None:
                # the detector's clock is time.monotonic, so the latency
                # is directly comparable; one heartbeat of slack for the
                # last beat that arrived just before the kill, plus
                # generous scheduling slack for a loaded CI machine
                assert detected - t_kill <= MCFG.dead_after + 2.0
                assert detected - t_kill >= 1.0

            # -- replication factor restored, digest-verified ------------
            stats = fs.daemon.stats
            _await(
                lambda: stats.rereplicated_records
                + stats.rereplication_failed >= LOST_COPIES // 2,
                30, "re-replication to finish",
            )
            assert stats.rereplication_failed == 0
            assert stats.rereplicated_records == LOST_COPIES // 2
            assert 0 < stats.mean_time_to_repair < 30
            assert fs.scrub(repair=False).clean  # restored copies verify

            # -- post-detection reads: no retry/backoff ------------------
            retries_before = stats.retries
            assert _read_all(fs) == originals
            assert stats.retries == retries_before

            # -- relaunch the corpse's rank ------------------------------
            if comm.rank == KILLER:
                comm.recv(0, _TAG_READY, timeout=120)
                world.revive(DEAD)
            else:
                comm.send("ready", KILLER, _TAG_READY)

            # every peer ends with the joiner ALIVE at the same epoch:
            # one bump for the conviction, one for the verified rejoin
            _await(
                lambda: det.view.state(DEAD) == RankState.ALIVE
                and det.view.epoch == 2,
                60, "the relaunched rank to be promoted",
            )
            if comm.rank == KILLER:
                # the rejoined rank serves reads directly: fetch a record
                # it re-staged and digest-verify the bytes
                path = min(
                    r.path for r in fs.daemon.metadata.records()
                    if not r.is_broadcast and r.partition_id % NODES == DEAD
                )
                assert fs.daemon._peer_fetch(
                    path, fs.daemon.metadata.get(path), DEAD, attempts=2
                ) is not None
            if comm.rank == 0:
                assert det.stats.joins_served == 1
                assert det.stats.promotions == 1
                own = fs.export_ownership()
                assert own["epoch"] == 2
                # a record that lost its home was adopted by the lowest
                # surviving copy holder, and the rejoined rank was
                # re-announced as a replica for its old partition
                rehomed = [
                    r for r in fs.daemon.metadata.records()
                    if not r.is_broadcast and r.partition_id % NODES == DEAD
                ]
                for rec in rehomed:
                    assert rec.home_rank == 0
                    assert DEAD in own["files"][rec.path]["replicas"]

            _drain(comm)
            fs.shutdown()
            return {
                "role": "survivor",
                "rereplicated": stats.rereplicated_records,
                "epoch": det.view.epoch,
                "probe": probe,
            }

        results = run_parallel(body, NODES, world=world, timeout=300)
        survivors = [r for r in results if r["role"] == "survivor"]
        rejoined = [r for r in results if r["role"] == "rejoined"]
        assert len(survivors) == 2 and len(rejoined) == 1

        # every lost copy was restored, across the surviving cohort
        assert sum(r["rereplicated"] for r in survivors) == LOST_COPIES
        # the whole cluster converged on the same membership history
        assert {r["epoch"] for r in results} == {2}

        # the deterministic probe: one full retry ladder on the dead
        # home opens its breaker, which short-circuits the next read —
        # failover without a single new retry
        probe = next(r["probe"] for r in survivors if r["probe"])
        assert probe["first_retries"] >= 1
        assert probe["second_retries"] == 0
        assert probe["breaker_skips"] == 1

        # the rejoined incarnation read the full namespace byte-exact
        assert rejoined[0]["files_ok"]
        assert rejoined[0]["promoted"]

        # training never failed a step: the run checkpointed every epoch
        assert CheckpointManager(ckpt_dir).epochs() == list(range(TOTAL_EPOCHS))


def _probe_exhausted_home(fs) -> dict:
    """Two reads of records homed on the (not yet convicted) corpse:
    the first pays the full retry ladder, which opens the corpse's
    breaker (two strikes, below the threshold — the spent budget does
    it); the second must fail over immediately off the open breaker."""
    stats = fs.daemon.stats
    victims = sorted(
        r.path for r in fs.daemon.metadata.records()
        if not r.is_broadcast and r.home_rank == DEAD
    )
    assert len(victims) >= 2
    fs.client.read_file(victims[0])  # retry ladder → replica failover
    first_retries = stats.retries
    skips_before = stats.breaker_skips
    fs.client.read_file(victims[1])  # gate says no → straight to replica
    return {
        "first_retries": first_retries,
        "second_retries": stats.retries - first_retries,
        "breaker_skips": stats.breaker_skips - skips_before,
    }


def _corpse_then_rejoin(fs, comm, world, originals) -> dict:
    """The killed rank's script: notice the kill, go quiet, then come
    back as a relaunched incarnation that rejoins via the protocol."""
    _await(lambda: world.plan.is_dead(DEAD), 60, "the kill to land")
    # the old incarnation's service threads die on their own (their
    # blocked receives wake via the closed mailbox); make that
    # deterministic before the rank slot is reused
    fs.membership.stop()
    serve = fs.daemon._service_thread
    if serve is not None:
        serve.join(timeout=30)
        assert not serve.is_alive()
    _await(lambda: not world.plan.is_dead(DEAD), 120, "the operator relaunch")

    # fresh incarnation: partitions off the shared FS, metadata from the
    # join snapshot, ALIVE only after a peer verified a read against us
    fs2 = FanStore(
        fs.prepared,
        FanStoreOptions(
            comm=comm, config=fs.daemon.config,
            membership=MCFG, rejoin_peer=0,
        ),
    )
    view = fs2.membership.view
    assert view.state(DEAD) == RankState.ALIVE
    files_ok = _read_all(fs2) == originals  # byte-exact, remote + local
    _drain(comm)
    result = {
        "role": "rejoined",
        "promoted": view.state(DEAD) == RankState.ALIVE,
        "epoch": view.epoch,
        "files_ok": files_ok,
    }
    fs2.shutdown()
    return result
