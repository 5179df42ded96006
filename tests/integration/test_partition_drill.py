"""The partition-tolerance acceptance drill.

A 3-rank cluster is split 2|1 by the chaos layer. The majority side
must keep full service: convict the unreachable rank behind its quorum,
re-replicate every copy it held, and elect a writer. The minority side
must freeze: no convictions, no re-replication storm, reads degraded to
the shared FS, mutations fenced off. After the cut heals, the stale
minority's first write is rejected by epoch fencing, the rank rejoins
through the membership protocol, and heal anti-entropy reconverges the
placements digest-clean — garbage-collecting every split-era duplicate.

A second drill flaps the link instead of cutting it, and asserts the
hysteresis dampers turn the flapping into zero membership churn.
"""

from __future__ import annotations

import threading
import time
import zlib

import pytest

from repro.comm.chaos import ChaosWorld, FaultPlan
from repro.comm.launcher import run_parallel
from repro.errors import StaleEpochError
from repro.fanstore.daemon import DaemonConfig
from repro.fanstore.exchange import TAG_DAEMON
from repro.fanstore.membership import MembershipConfig, RankState
from repro.fanstore.metadata import normalize
from repro.fanstore.store import FanStore, FanStoreOptions

NODES = 3
MINORITY = 2  # the rank cut off alone
CONDUCTOR = 0  # applies the cut, heals it, serves the rejoin

PARTITION_SEEDS = (7, 77, 777)
seeds = pytest.mark.parametrize(
    "seed", PARTITION_SEEDS, ids=[f"seed{s}" for s in PARTITION_SEEDS]
)

#: tight request budgets so the degraded-read ladder completes quickly
FAST = dict(
    request_timeout=0.4,
    max_retries=1,
)

#: dead_after leaves headroom over the CI boxes' scheduling stalls,
#: and flap_damper adds promotion hysteresis on top: the rejoin counts
#: as a flap, so re-convicting the freshly promoted rank takes
#: dead_after + flap_damper of *extra* silence. Without it, a stall
#: longer than dead_after right after the promotion re-convicts the
#: rank, bumps the epoch past 2, and wedges the drill's single-rejoin
#: choreography (observed on 1-core runners: final view all-ALIVE at
#: epoch 3 with the promoted rank on its recovery version).
MCFG = MembershipConfig(
    heartbeat_interval=0.05,
    suspect_after=0.3,
    dead_after=3.5,
    isolation_damper=0.2,
    flap_damper=2.0,
)

#: copies the majority must restore once it convicts MINORITY: the 4
#: files homed on it plus the 4 replicas it held of partition 1
#: (extra_partition_budget=1: rank r replicates partition r-1).
LOST_COPIES = 8

#: split-era backend copies heal reconciliation must GC off MINORITY:
#: its 4 partition-1 replica copies (duty re-homed to rank 0 by the
#: majority's repair) plus the 1 degraded-read promotion made while
#: isolated.
SPLIT_DUPLICATES = 5

_TAG_DONE = 0x0D0F  # pairwise teardown drain (no collective barrier)
POLL = 0.01


def _rank0_owned(prefix: str) -> str:
    """A runtime output path whose metadata owner hashes to rank 0."""
    for i in range(1000):
        path = f"out/{prefix}{i}.bin"
        if zlib.crc32(path.encode("utf-8")) % NODES == 0:
            return path
    raise AssertionError("no rank-0-owned path found")


FENCED_PATH = _rank0_owned("fenced")  # written while epoch-stale
OUT_PATH = _rank0_owned("healed")  # written after rejoin


def _await(predicate, deadline_s, what):
    deadline = time.monotonic() + deadline_s
    while time.monotonic() < deadline:
        if predicate():
            return
        time.sleep(POLL)
    detail = what() if callable(what) else what
    raise AssertionError(f"timed out waiting for {detail}")


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


def _read_dataset(fs, originals):
    return {p: fs.client.read_file(p) for p in originals}


def _drain(comm):
    """Pairwise teardown: keep serving until every peer is done too."""
    others = [r for r in range(NODES) if r != comm.rank]
    for other in others:
        comm.send("done", other, _TAG_DONE)
    for other in others:
        comm.recv(other, _TAG_DONE, timeout=120)


class TestPartitionDrill:
    """Cut → majority serves, minority freezes → heal → fence → rejoin
    → anti-entropy reconvergence."""

    @seeds
    def test_split_brain_heal_reconverge(
        self, seed, prepared_dataset, originals
    ):
        config = DaemonConfig(**FAST, extra_partition_budget=1)
        # light chaos on the daemon tag, well inside the request timeout
        plan = FaultPlan(seed).delay(0.02, tag=TAG_DAEMON, times=4)
        world = ChaosWorld(NODES, plan)

        minority_checked = threading.Event()
        healed = threading.Event()
        fenced = threading.Event()
        written = threading.Event()

        def body(comm):
            fs = FanStore(
                prepared_dataset,
                FanStoreOptions(comm=comm, config=config, membership=MCFG),
            )
            det = fs.membership
            stats = fs.daemon.stats

            # -- healthy phase: every rank reads everything --------------
            assert _read_dataset(fs, originals) == originals
            comm.barrier()

            if comm.rank == CONDUCTOR:
                cut = plan.partition([0, 1], [MINORITY])

            if comm.rank == MINORITY:
                # -- minority: freeze, degrade, never convict ------------
                _await(lambda: fs.isolated, 30, "isolation to engage")
                assert det.stats.isolated_entries == 1
                assert not det.has_quorum()
                assert det.elect_writer() is None
                # convictions were *denied*, not fired: nothing moved
                _await(
                    lambda: det.stats.quorum_denied_convictions == 2,
                    30, "both overdue peers to be frozen",
                )
                assert det.stats.convictions == 0
                assert not det.view.dead_ranks()
                assert det.view.epoch == 0
                assert stats.rereplicated_records == 0
                # reads degrade to the shared FS, byte-exact
                victim = min(
                    r.path for r in fs.daemon.metadata.records()
                    if not r.is_broadcast and r.home_rank == 0
                )
                assert fs.client.read_file(victim) == originals[victim]
                assert stats.degraded_reads >= 1
                minority_checked.set()

                # -- heal: the stale epoch is fenced ---------------------
                assert healed.wait(60)
                with pytest.raises(StaleEpochError):
                    fs.client.write_file(FENCED_PATH, b"stale" * 10)
                assert stats.stale_epoch_aborts == 1
                # the bytes are safe on the writer (the path stays
                # unsealed); nothing leaked to the majority
                assert normalize(FENCED_PATH) in fs.daemon.backend
                fenced.set()

                # -- rejoin through the protocol -------------------------
                snapshot = det.request_join(CONDUCTOR)
                fs.daemon.replication.apply_membership_snapshot(snapshot)
                det.request_promotion(CONDUCTOR)
            else:
                # -- majority: convict behind quorum, keep serving -------
                _await(
                    lambda: det.view.state(MINORITY) == RankState.DEAD,
                    30, "conviction of the cut-off rank",
                )
                assert det.stats.convictions == 1
                assert det.view.epoch == 1
                assert det.has_quorum()
                assert det.elect_writer() == CONDUCTOR
                _await(
                    lambda: stats.rereplicated_records
                    + stats.rereplication_failed >= LOST_COPIES // 2,
                    30, "re-replication to finish",
                )
                assert stats.rereplication_failed == 0
                assert stats.rereplicated_records == LOST_COPIES // 2
                assert _read_dataset(fs, originals) == originals

                if comm.rank == CONDUCTOR:
                    assert minority_checked.wait(120)
                    plan.heal(cut=cut)
                    healed.set()
                    _await(
                        lambda: stats.fenced_rejects >= 1,
                        60, "the stale write to be fenced",
                    )
                    assert fenced.wait(60)

            # -- everyone: one writer, one epoch history -----------------
            _await(
                lambda: det.view.state(MINORITY) == RankState.ALIVE
                and det.view.epoch == 2,
                90, lambda: "the rejoined rank to be promoted everywhere "
                f"(rank {comm.rank}: view={det.view!r}, "
                f"convictions={det.stats.convictions})",
            )

            if comm.rank == MINORITY:
                # -- heal anti-entropy: reconverge, GC the split era -----
                _await(lambda: not fs.isolated, 60, "isolation to exit")
                assert det.stats.isolated_exits == 1
                _await(
                    lambda: stats.reconciled_records > 0,
                    60, "heal reconciliation to run",
                )
                assert stats.duplicate_replicas_dropped == SPLIT_DUPLICATES
                # mutations thaw: the same writer path now succeeds
                fs.client.write_file(OUT_PATH, b"healed" * 10)
                written.set()
            else:
                assert written.wait(120)
                assert fs.client.read_file(OUT_PATH) == b"healed" * 10
                # the fenced write never became globally discoverable
                assert fs.daemon.stat_any(FENCED_PATH) is None
                if comm.rank == CONDUCTOR:
                    assert det.stats.joins_served == 1
                    assert det.stats.promotions == 1

            assert det.elect_writer() == CONDUCTOR
            assert _read_dataset(fs, originals) == originals
            assert fs.scrub(repair=False).clean

            own = fs.export_ownership()
            _drain(comm)
            fs.shutdown()
            return {
                "rank": comm.rank,
                "epoch": det.view.epoch,
                "writer": CONDUCTOR,
                "rereplicated": stats.rereplicated_records,
                "frozen": stats.rereplications_frozen,
                "convictions": det.stats.convictions,
                "isolated_entries": det.stats.isolated_entries,
                "duplicates_dropped": stats.duplicate_replicas_dropped,
                "ownership": {
                    p: own["files"][p] for p in originals
                },
            }

        results = run_parallel(body, NODES, world=world, timeout=300)
        by_rank = {r["rank"]: r for r in results}

        # one membership history: conviction bump + promotion bump
        assert {r["epoch"] for r in results} == {2}
        # every lost copy was restored by the majority, none elsewhere
        majority = [by_rank[0], by_rank[1]]
        assert sum(r["rereplicated"] for r in majority) == LOST_COPIES
        assert by_rank[MINORITY]["rereplicated"] == 0
        assert by_rank[MINORITY]["frozen"] == 0  # denied, never fired
        assert by_rank[MINORITY]["convictions"] == 0
        assert by_rank[MINORITY]["isolated_entries"] == 1
        assert all(r["convictions"] == 1 for r in majority)
        assert all(r["duplicates_dropped"] == 0 for r in majority)
        assert by_rank[MINORITY]["duplicates_dropped"] == SPLIT_DUPLICATES
        # placements reconverged: identical ownership on every rank
        reference = by_rank[0]["ownership"]
        assert by_rank[1]["ownership"] == reference
        assert by_rank[MINORITY]["ownership"] == reference


#: flap-drill thresholds: the isolation damper absorbs every minority
#: episode, and the flap damper raises the conviction threshold past
#: the final (otherwise convicting) outage.
MCFG_FLAP = MembershipConfig(
    heartbeat_interval=0.05,
    suspect_after=0.3,
    dead_after=2.0,
    isolation_damper=30.0,
    flap_damper=2.0,
    flap_window=60.0,
)

FLAP_CYCLES = 3
FLAP_UP = 0.45  # cut duration: past suspect_after, far from dead_after
FLAP_DOWN = 0.45
#: the final outage: would convict at the base threshold (2.0) but not
#: at the flap-raised one (2.0 + 2.0 per recent flap).
FINAL_OUTAGE = 2.6


class TestFlappingLink:
    """A flapping link must cause suspicion churn only: the hysteresis
    dampers keep convictions, epochs and re-replication all at zero."""

    @seeds
    def test_flapping_is_damped_to_zero_churn(
        self, seed, prepared_dataset, originals
    ):
        config = DaemonConfig(**FAST, extra_partition_budget=1)
        plan = FaultPlan(seed)
        world = ChaosWorld(NODES, plan)
        storm_done = threading.Event()

        def body(comm):
            fs = FanStore(
                prepared_dataset,
                FanStoreOptions(
                    comm=comm, config=config, membership=MCFG_FLAP
                ),
            )
            det = fs.membership
            stats = fs.daemon.stats
            assert _read_dataset(fs, originals) == originals
            comm.barrier()

            if comm.rank == CONDUCTOR:
                for _ in range(FLAP_CYCLES):
                    cut = plan.partition([0, 1], [MINORITY])
                    time.sleep(FLAP_UP)
                    plan.heal(cut=cut)
                    time.sleep(FLAP_DOWN)
                cut = plan.partition([0, 1], [MINORITY])
                time.sleep(FINAL_OUTAGE)
                plan.heal(cut=cut)
                storm_done.set()
            else:
                assert storm_done.wait(120)

            # stabilize: everyone hears everyone again
            _await(
                lambda: all(
                    det.view.state(r) == RankState.ALIVE
                    for r in range(NODES)
                ),
                30, "the flapped link to stabilize",
            )
            comm.barrier()

            # zero churn: no convictions, no epochs, no re-replication
            assert det.stats.convictions == 0
            assert det.view.epoch == 0
            assert stats.rereplicated_records == 0
            assert stats.rereplications_frozen == 0
            assert det.stats.isolated_entries == 0
            if comm.rank == MINORITY:
                # every quorum-loss episode died in the damper
                assert det.stats.damped_flaps >= 1
            else:
                # the churn was visible — and absorbed — as suspicion
                assert det.stats.suspicions >= 1
                assert det.stats.recoveries >= 1
            assert det.elect_writer() == CONDUCTOR
            assert _read_dataset(fs, originals) == originals

            comm.barrier()
            fs.shutdown()  # epoch 0: the normal collective teardown
            return {
                "convictions": det.stats.convictions,
                "epoch": det.view.epoch,
                "suspicions": det.stats.suspicions,
            }

        results = run_parallel(body, NODES, world=world, timeout=300)
        assert {r["epoch"] for r in results} == {0}
        assert all(r["convictions"] == 0 for r in results)
        # the drill is only meaningful if the flapping actually bit
        assert sum(r["suspicions"] for r in results) >= FLAP_CYCLES
