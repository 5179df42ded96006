"""The crash-consistency acceptance drill.

A writer rank is killed — deterministically, at *every* registered
crash point — and relaunched over the same local directories. The
restarted incarnation must recover with zero acknowledged-write loss
(every acked byte readable, byte-exact), no torn or quarantined bytes,
no orphaned tmp files, and a clean scrub. A second family of drills
crashes the *recovery pass itself* and restarts again (recovery must be
idempotent), and a multi-rank drill has the crashed rank rejoin the
cluster through the membership handshake, its journalled outputs
served to peers afterwards.
"""

from __future__ import annotations

import random
import time

import pytest

from repro.comm.chaos import ChaosWorld, FaultPlan
from repro.comm.launcher import run_parallel
from repro.errors import FileNotFoundInStoreError
from repro.fanstore.crash import CRASH_POINTS, CrashPlan, SimulatedCrashError
from repro.fanstore.daemon import DaemonConfig
from repro.fanstore.journal import JournalConfig
from repro.fanstore.membership import MembershipConfig, RankState
from repro.fanstore.store import FanStore, FanStoreOptions

SEEDS = (8, 88, 888)
seeds = pytest.mark.parametrize("seed", SEEDS, ids=[f"seed{s}" for s in SEEDS])
points = pytest.mark.parametrize("point", CRASH_POINTS)

#: crash points that fire during restart recovery, not during writes
RECOVERY_POINTS = tuple(p for p in CRASH_POINTS if p.startswith("recovery."))

#: tiny segments so a modest write burst exercises rotation and
#: checkpoint compaction (the maintenance crash points)
JCFG = JournalConfig(
    segment_max_bytes=4096,
    segment_max_records=6,
    max_segments=2,
    embed_payload_max=1024,
    low_watermark_bytes=0,  # CI filesystems are small; the watermark
)                           # path has its own unit tests

NUM_WRITES = 18


def _payloads(seed: int) -> dict[str, bytes]:
    """Seeded output files straddling the embed-payload boundary."""
    rng = random.Random(seed * 7919)
    return {
        f"out/f{i:02d}.bin": rng.randbytes(rng.choice((64, 700, 3000)))
        for i in range(NUM_WRITES)
    }


def _options(tmp_path, **extra) -> FanStoreOptions:
    return FanStoreOptions(
        local_dir=tmp_path / "local", journal_config=JCFG, **extra
    )


def _no_tmp_orphans(tmp_path) -> bool:
    local = tmp_path / "local"
    return not list(local.glob("*.tmp")) and not list(
        (local / "journal").glob("*.tmp")
    )


class TestCrashPointSweep:
    """Every registered crash point × three seeds, single rank."""

    @seeds
    @points
    def test_restart_recovers_every_acked_write(
        self, point, seed, prepared_dataset, tmp_path
    ):
        rng = random.Random(seed)
        payloads = _payloads(seed)
        plan = CrashPlan(seed).crash_at(
            point, skip=rng.randrange(3) if point.startswith(
                ("journal.intent", "apply.", "journal.commit")
            ) else 0,
        )

        # -- incarnation 1: write until the plan kills the process ------
        fs = FanStore(prepared_dataset, _options(tmp_path))
        acked: list[str] = []
        attempted: list[str] = []
        crashed = False
        with plan:
            for path, data in payloads.items():
                attempted.append(path)
                try:
                    fs.client.write_file(path, data)
                    acked.append(path)
                except SimulatedCrashError:
                    crashed = True
                    break
        assert crashed == (point not in RECOVERY_POINTS)
        # simulated kill -9: the incarnation is abandoned, not shut down

        # -- recovery points: the crash lands mid-recovery instead ------
        if not crashed:
            with plan:
                with pytest.raises(SimulatedCrashError):
                    FanStore(prepared_dataset, _options(tmp_path))
        assert plan.crashes_delivered == 1

        # -- final restart over the same directories --------------------
        fs2 = FanStore(prepared_dataset, _options(tmp_path))
        stats = fs2.daemon.jstats

        # zero acknowledged-write loss, byte-exact
        for path in acked:
            assert fs2.client.read_file(path) == payloads[path], (
                f"acked write {path} lost or torn after crash at {point}"
            )
        # the in-flight write is all-or-nothing: absent or byte-exact
        for path in set(attempted) - set(acked):
            try:
                assert fs2.client.read_file(path) == payloads[path]
            except FileNotFoundInStoreError:
                pass

        assert stats.recovery_quarantined == 0
        assert _no_tmp_orphans(tmp_path)
        assert fs2.scrub(repair=False).clean
        assert fs2.verify_integrity() > 0

        # the recovered store is fully writable again
        fs2.client.write_file("out/after.bin", b"post-recovery")
        assert fs2.client.read_file("out/after.bin") == b"post-recovery"
        fs2.shutdown()


class TestRecoveryIdempotence:
    """Crashing recovery N times in a row never loses acked writes."""

    @seeds
    def test_double_crash_during_recovery(
        self, seed, prepared_dataset, tmp_path
    ):
        payloads = _payloads(seed)
        fs = FanStore(prepared_dataset, _options(tmp_path))
        for path, data in payloads.items():
            fs.client.write_file(path, data)
        # abandoned un-shut-down: the journal tail is never checkpointed

        for point in ("recovery.scanned", "recovery.replayed"):
            with CrashPlan(seed).crash_at(point):
                with pytest.raises(SimulatedCrashError):
                    FanStore(prepared_dataset, _options(tmp_path))

        fs2 = FanStore(prepared_dataset, _options(tmp_path))
        for path, data in payloads.items():
            assert fs2.client.read_file(path) == data
        assert fs2.daemon.jstats.recovery_quarantined == 0
        assert _no_tmp_orphans(tmp_path)
        fs2.shutdown()


NODES = 3
DEAD = 2
_TAG_DONE = 0x0D11

MCFG = MembershipConfig(
    heartbeat_interval=0.05, suspect_after=0.3, dead_after=1.5
)
FAST = dict(
    request_timeout=0.4,
    max_retries=1,
)
POLL = 0.01


def _await(predicate, deadline_s, what):
    deadline = time.monotonic() + deadline_s
    while time.monotonic() < deadline:
        if predicate():
            return
        time.sleep(POLL)
    raise AssertionError(f"timed out waiting for {what}")


def _drain(comm):
    others = [r for r in range(NODES) if r != comm.rank]
    for other in others:
        comm.send("done", other, _TAG_DONE)
    for other in others:
        comm.recv(other, _TAG_DONE, timeout=120)


class TestCrashThenRejoin:
    """A rank crashes mid-write, restarts over its local state, and
    rejoins the cluster: journalled outputs survive and are served to
    peers, and every rank converges on the same ClusterView."""

    @seeds
    def test_crashed_writer_rejoins_with_outputs(
        self, seed, prepared_dataset, tmp_path
    ):
        world = ChaosWorld(NODES, FaultPlan(seed))
        config = DaemonConfig(**FAST)
        outputs = {
            f"out/rank{DEAD}-{i}.bin": bytes([i]) * (256 + 64 * i)
            for i in range(4)
        }

        def body(comm):
            opts = FanStoreOptions(
                comm=comm,
                config=config,
                membership=MCFG,
                local_dir=tmp_path / f"rank{comm.rank}",
                journal_config=JCFG,
            )
            fs = FanStore(prepared_dataset, opts)
            det = fs.membership
            comm.barrier()

            if comm.rank == DEAD:
                acked = []
                # the last write is killed between tmp-write and rename
                plan = CrashPlan(seed).crash_at(
                    "apply.tmp_written", rank=DEAD, skip=len(outputs) - 1
                )
                with plan:
                    try:
                        for path, data in outputs.items():
                            fs.client.write_file(path, data)
                            acked.append(path)
                    except SimulatedCrashError:
                        pass
                assert plan.crashes_delivered == 1
                world.kill(DEAD)  # the crashed process goes silent
                fs.membership.stop()
                serve = fs.daemon._service_thread
                if serve is not None:
                    serve.join(timeout=30)
                _await(
                    lambda: not world.plan.is_dead(DEAD), 120,
                    "the operator relaunch",
                )
                # fresh incarnation over the SAME local dir: journal
                # recovery first, then the PR 7 rejoin handshake
                fs2 = FanStore.rejoined(
                    prepared_dataset, comm, 0, options=opts
                )
                assert fs2.daemon.jstats.recovery_quarantined == 0
                recovered = {
                    p: fs2.client.read_file(p) for p in acked
                }
                _drain(comm)
                result = {
                    "role": "rejoined",
                    "acked": acked,
                    "ok": recovered == {p: outputs[p] for p in acked},
                    "epoch": fs2.membership.view.epoch,
                }
                fs2.shutdown()
                return result

            # -- survivors ----------------------------------------------
            _await(
                lambda: det.view.state(DEAD) == RankState.DEAD,
                30, "conviction of the crashed rank",
            )
            if comm.rank == 0:
                world.revive(DEAD)
            _await(
                lambda: det.view.state(DEAD) == RankState.ALIVE
                and det.view.epoch == 2,
                60, "the crashed rank to rejoin",
            )
            # the rejoined rank serves digest-verified reads again
            path = min(
                r.path for r in fs.daemon.metadata.records()
                if not r.is_broadcast and r.partition_id % NODES == DEAD
            )
            served_ok = fs.daemon._peer_fetch(
                path, fs.daemon.metadata.get(path), DEAD, attempts=2
            ) is not None
            _drain(comm)
            result = {
                "role": "survivor",
                "served_ok": served_ok,
                "epoch": det.view.epoch,
            }
            fs.shutdown()
            return result

        results = run_parallel(body, NODES, world=world, timeout=300)
        rejoined = [r for r in results if r["role"] == "rejoined"]
        survivors = [r for r in results if r["role"] == "survivor"]
        assert len(rejoined) == 1 and len(survivors) == 2
        assert rejoined[0]["ok"]
        assert len(rejoined[0]["acked"]) == len(outputs) - 1
        assert all(r["served_ok"] for r in survivors)
        # consistent ClusterView: one epoch bump for the conviction,
        # one for the verified rejoin, agreed by every rank
        assert {r["epoch"] for r in results} == {2}
