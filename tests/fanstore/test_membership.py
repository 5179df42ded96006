"""Unit tests for the membership layer: view merges, the failure
detector against an injectable clock (no sleeping), the rejoin
handshake, and ring reassignment planning. The full kill → convict →
re-replicate → rejoin story runs in
``tests/integration/test_membership_drill.py``; how the daemon remembers
a peer it gave up on is the breaker's (``test_health.py``,
``test_failover_ladder.py``).
"""

from __future__ import annotations

import threading

import pytest

from repro.comm.chaos import ChaosWorld
from repro.comm.communicator import World
from repro.errors import MembershipError, RankDeadError
from repro.fanstore.daemon import FanStoreDaemon
from repro.fanstore.layout import FLAG_BROADCAST, FileStat
from repro.fanstore.membership import (
    ClusterView,
    FailureDetector,
    MembershipConfig,
    RankState,
    ring_successor,
)
from repro.fanstore.metadata import FileRecord, MetadataTable


class FakeClock:
    """A hand-advanced monotonic clock for threshold-edge tests."""

    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now

    def advance(self, dt: float) -> None:
        self.now += dt


CFG = MembershipConfig(
    heartbeat_interval=1.0, suspect_after=3.0, dead_after=10.0
)

#: same thresholds with quorum awareness off — for tests that examine
#: conviction mechanics from a rank that cannot hear a majority.
NO_QUORUM = MembershipConfig(
    heartbeat_interval=1.0, suspect_after=3.0, dead_after=10.0, quorum=False
)


def _pair(world_size: int = 2, **kw):
    """A world plus one fake-clocked detector per rank."""
    world = World(world_size)
    clock = FakeClock()
    dets = [
        FailureDetector(world.comm(r), CFG, clock=clock, **kw)
        for r in range(world_size)
    ]
    return world, clock, dets


class TestClusterView:
    def test_initial_state(self):
        view = ClusterView(3)
        assert view.epoch == 0
        assert view.alive_ranks() == [0, 1, 2]
        assert view.dead_ranks() == []

    def test_set_state_bumps_version_and_optionally_epoch(self):
        view = ClusterView(3)
        view.set_state(1, RankState.SUSPECT)
        assert view.versions[1] == 1 and view.epoch == 0
        view.set_state(1, RankState.DEAD, bump_epoch=True)
        assert view.versions[1] == 2 and view.epoch == 1

    def test_merge_higher_version_wins(self):
        ours = ClusterView(2)
        theirs = ClusterView(2)
        theirs.set_state(1, RankState.DEAD, bump_epoch=True)
        changed = ours.merge(theirs)
        assert changed == [(1, RankState.ALIVE, RankState.DEAD)]
        assert ours.state(1) == RankState.DEAD and ours.epoch == 1
        # merging stale information back changes nothing
        assert ours.merge(ClusterView(2)) == []
        assert ours.state(1) == RankState.DEAD

    def test_merge_tie_resolves_to_more_severe(self):
        a = ClusterView(2)
        b = ClusterView(2)
        a.set_state(1, RankState.SUSPECT)  # version 1, SUSPECT
        b.set_state(1, RankState.DEAD)  # version 1, DEAD
        a.merge(b)
        assert a.state(1) == RankState.DEAD
        b2 = ClusterView(2)
        b2.set_state(1, RankState.DEAD)
        b2.merge(a)  # same version/severity: stays DEAD
        assert b2.state(1) == RankState.DEAD

    def test_merge_is_commutative(self):
        a = ClusterView(3)
        b = ClusterView(3)
        a.set_state(1, RankState.DEAD, bump_epoch=True)
        b.set_state(2, RankState.SUSPECT)
        a2, b2 = a.clone(), b.clone()
        a.merge(b)
        b2.merge(a2)
        assert a == b2

    def test_merge_size_mismatch_raises(self):
        with pytest.raises(MembershipError):
            ClusterView(2).merge(ClusterView(3))

    def test_clone_is_independent(self):
        view = ClusterView(2)
        copy = view.clone()
        copy.set_state(1, RankState.DEAD, bump_epoch=True)
        assert view.state(1) == RankState.ALIVE and view.epoch == 0


class TestMergeTotalOrder:
    """The documented merge total order: lexicographic
    ``(version, severity)`` per rank, max epochs — except an equal-epoch
    merge carrying an unseen conviction, which bumps past both."""

    def test_equal_epoch_dead_divergence_bumps_past_both(self):
        a = ClusterView(4)
        b = ClusterView(4)
        a.set_state(1, RankState.DEAD, bump_epoch=True)  # a: epoch 1
        b.set_state(2, RankState.DEAD, bump_epoch=True)  # b: epoch 1
        a2, b2 = a.clone(), b.clone()
        a.merge(b)
        b2.merge(a2)
        # two histories at epoch 1 with different corpses must not share
        # epoch 1 after merging — everything keyed by epoch would treat
        # stale state as current
        assert a.epoch == b2.epoch == 2
        assert a == b2  # and the bump is symmetric (commutative merge)
        assert a.dead_ranks() == [1, 2]

    def test_equal_epoch_readmission_does_not_bump(self):
        # the rejoin handshake propagating by gossip: the serving peer
        # re-admitted the corpse as SUSPECT at a higher version. That is
        # not a parallel history — the promotion completing the rejoin
        # bumps on its own, and bumping here too would leave a healed
        # cluster one epoch past the handshake's count.
        server = ClusterView(3)
        other = ClusterView(3)
        for v in (server, other):
            v.set_state(2, RankState.DEAD, bump_epoch=True)  # epoch 1
        server.set_state(2, RankState.SUSPECT)  # join served: higher version
        changed = other.merge(server)
        assert changed == [(2, RankState.DEAD, RankState.SUSPECT)]
        assert other.epoch == 1  # no divergence bump on the way back

    def test_equal_epoch_suspect_churn_never_bumps(self):
        a = ClusterView(3)
        b = ClusterView(3)
        a.set_state(1, RankState.SUSPECT)
        b.set_state(2, RankState.SUSPECT)
        a.merge(b)
        assert a.epoch == 0  # no DEAD involved: plain max()

    def test_unequal_epochs_take_the_max_without_extra_bump(self):
        a = ClusterView(3)
        b = ClusterView(3)
        b.set_state(1, RankState.DEAD, bump_epoch=True)  # b: epoch 1
        a.merge(b)
        assert a.epoch == 1  # a DEAD arrived, but the epochs differed
        assert a.state(1) == RankState.DEAD

    def test_merge_is_idempotent(self):
        a = ClusterView(3)
        b = ClusterView(3)
        a.set_state(1, RankState.DEAD, bump_epoch=True)
        b.set_state(2, RankState.DEAD, bump_epoch=True)
        a.merge(b)
        epoch = a.epoch
        assert a.merge(b) == []  # replaying the same gossip: no change
        assert a.epoch == epoch  # and no second divergence bump


class TestRingSuccessor:
    def test_walks_clockwise(self):
        assert ring_successor(0, {1, 2}, 3) == 1
        assert ring_successor(1, {0, 2}, 3) == 2
        assert ring_successor(2, {0, 1}, 3) == 0  # wraps

    def test_skips_missing_ranks(self):
        assert ring_successor(0, {2}, 4) == 2

    def test_empty_alive_set(self):
        assert ring_successor(0, set(), 3) is None


class TestConfigValidation:
    def test_rejects_nonpositive_interval(self):
        with pytest.raises(MembershipError):
            MembershipConfig(heartbeat_interval=0)

    def test_rejects_suspect_below_interval(self):
        with pytest.raises(MembershipError):
            MembershipConfig(heartbeat_interval=1.0, suspect_after=0.5)

    def test_rejects_dead_not_above_suspect(self):
        with pytest.raises(MembershipError):
            MembershipConfig(
                heartbeat_interval=1.0, suspect_after=3.0, dead_after=3.0
            )


class TestBackgroundLoop:
    def test_the_loop_of_a_dead_rank_ends_by_itself(self):
        """Once a step finds its own rank dead the background thread
        stops observing without a ``stop()``: a relaunched rank's fresh
        detector must not race this incarnation's for heartbeats."""
        world = ChaosWorld(2)
        det = FailureDetector(world.comm(0), MembershipConfig(
            heartbeat_interval=0.01, suspect_after=0.05, dead_after=0.1,
        ))
        det.start()
        thread = det._thread
        world.kill(0)
        thread.join(10)
        assert not thread.is_alive() and not det.running
        det.stop()

    def test_a_callback_that_finds_its_rank_dead_halts_the_step(self):
        """A reaction that finds this rank dead (the daemon's staging
        sends through the crashed rank's comm) ends the loop the same
        way: ``step`` raises nothing and halts."""
        def on_dead(rank, view):
            raise RankDeadError("rank 0 is dead")

        world, clock, dets = _pair(on_dead=on_dead)
        clock.advance(CFG.dead_after)  # rank 1 never steps
        assert dets[0].step().state(1) == RankState.DEAD
        assert dets[0]._halted


class TestThresholdEdges:
    def test_silence_walks_alive_suspect_dead(self):
        convicted = []
        world, clock, dets = _pair(
            on_dead=lambda r, v: convicted.append(r)
        )
        det0 = dets[0]  # rank 1 never steps: pure silence
        clock.advance(CFG.suspect_after - 0.01)
        assert det0.step().state(1) == RankState.ALIVE
        clock.advance(0.01)  # exactly suspect_after of silence
        assert det0.step().state(1) == RankState.SUSPECT
        assert det0.stats.suspicions == 1
        clock.advance(CFG.dead_after - CFG.suspect_after - 0.01)
        assert det0.step().state(1) == RankState.SUSPECT
        clock.advance(0.01)  # exactly dead_after of silence
        view = det0.step()
        assert view.state(1) == RankState.DEAD
        assert view.epoch == 1
        # the two reads the daemon's gate and fence take without a clone
        assert det0.is_dead(1) and not det0.is_dead(0)
        assert det0.epoch == 1
        assert convicted == [1]
        assert det0.stats.convictions == 1
        assert 1 in det0.detected_at

    def test_conviction_fires_once(self):
        convicted = []
        world, clock, dets = _pair(on_dead=lambda r, v: convicted.append(r))
        clock.advance(CFG.dead_after)
        dets[0].step()
        clock.advance(1.0)
        dets[0].step()  # corpse stays convicted, no second callback
        assert convicted == [1]
        assert dets[0].view.epoch == 1

    def test_heartbeats_keep_ranks_alive(self):
        world, clock, dets = _pair()
        for _ in range(30):  # 30 s total, far past dead_after
            clock.advance(1.0)
            for det in dets:
                det.step()
        for det in dets:
            assert det.view.alive_ranks() == [0, 1]
            assert det.view.epoch == 0
        assert dets[0].stats.heartbeats_received > 0


class TestFlappingRank:
    def test_suspect_recovers_without_conviction(self):
        convicted = []
        world, clock, dets = _pair(on_dead=lambda r, v: convicted.append(r))
        det0, det1 = dets
        clock.advance(CFG.suspect_after)  # rank 1 stalls
        assert det0.step().state(1) == RankState.SUSPECT
        det1.step()  # the stalled rank wakes up and heartbeats
        view = det0.step()
        assert view.state(1) == RankState.ALIVE
        assert view.epoch == 0  # no epoch churn: no repair was triggered
        assert det0.stats.recoveries == 1
        assert convicted == []  # flapping must never trigger re-replication

    def test_flap_then_real_death_still_convicts(self):
        world, clock, dets = _pair()
        det0, det1 = dets
        clock.advance(CFG.suspect_after)
        det0.step()
        det1.step()  # recover
        det0.step()
        clock.advance(CFG.dead_after)  # now actually die
        assert det0.step().state(1) == RankState.DEAD


class TestSimultaneousDeath:
    def test_two_corpses_convicted_ascending_in_one_pass(self):
        world = World(3)
        clock = FakeClock()
        convicted = []
        # quorum off: a rank that hears *nobody* is a minority of one
        # and would (correctly) freeze — this test is about conviction
        # ordering, not partition tolerance
        det0 = FailureDetector(
            world.comm(0), NO_QUORUM, clock=clock,
            on_dead=lambda r, v: convicted.append(r),
        )
        clock.advance(CFG.dead_after)
        view = det0.step()
        assert view.dead_ranks() == [1, 2]
        assert convicted == [1, 2]  # ascending, deterministic
        assert view.epoch == 2  # one bump per conviction

    def test_gossip_spreads_a_conviction(self):
        world = World(3)
        clock = FakeClock()
        fired = {0: [], 1: []}
        dets = [
            FailureDetector(
                world.comm(r), CFG, clock=clock,
                on_dead=lambda rank, v, me=r: fired[me].append(rank),
            )
            for r in range(2)
        ]
        det0, det1 = dets
        clock.advance(CFG.dead_after)
        det1._last_heard[2] = clock.now  # rank 1 heard rank 2 recently
        det1._last_heard[0] = clock.now
        det0._last_heard[1] = clock.now
        det0.step()  # convicts rank 2 locally
        assert fired[0] == [2]
        clock.advance(CFG.heartbeat_interval)
        det0.step()  # the next heartbeat gossips the convicted view
        det1.step()  # learns the conviction via gossip, not timeout
        assert fired[1] == [2]
        assert det1.view.state(2) == RankState.DEAD
        assert det1.view.epoch == det0.view.epoch == 1
        assert det0.view == det1.view  # converged


class TestQuorum:
    """Quorum awareness: a minority component freezes convictions,
    epoch bumps, and writer election instead of amputating the
    majority. (2-rank worlds keep fail-fast conviction — see
    TestThresholdEdges, which runs with quorum on.)"""

    def test_minority_freezes_convictions(self):
        world = World(3)
        clock = FakeClock()
        convicted = []
        det0 = FailureDetector(
            world.comm(0), CFG, clock=clock,
            on_dead=lambda r, v: convicted.append(r),
        )
        clock.advance(CFG.dead_after)  # rank 0 hears nobody: minority of 1
        view = det0.step()
        assert convicted == []
        assert view.dead_ranks() == []
        assert view.epoch == 0  # no conviction, no epoch churn
        # the overdue corpses are demoted to SUSPECT, not DEAD
        assert view.state(1) == RankState.SUSPECT
        assert view.state(2) == RankState.SUSPECT
        assert det0.stats.quorum_denied_convictions == 2
        assert not det0.has_quorum()
        assert det0.elect_writer() is None  # a minority never writes

    def test_denied_conviction_counted_once_per_episode(self):
        world = World(3)
        clock = FakeClock()
        det0 = FailureDetector(world.comm(0), CFG, clock=clock)
        clock.advance(CFG.dead_after)
        det0.step()
        clock.advance(1.0)
        det0.step()  # still overdue, still frozen: no double count
        assert det0.stats.quorum_denied_convictions == 2

    def test_suspect_peer_cannot_vouch_for_quorum(self):
        """Regression: with both peers long silent but *staggered*, the
        later one must not pad quorum for convicting the earlier one.
        Reachability (suspect_after) is stricter than conviction
        (dead_after): a suspect rank is not a quorum voucher."""
        world = World(3)
        clock = FakeClock()
        convicted = []
        det0 = FailureDetector(
            world.comm(0), CFG, clock=clock,
            on_dead=lambda r, v: convicted.append(r),
        )
        clock.advance(CFG.dead_after)
        # rank 2 was heard more recently than rank 1 — but still past
        # the suspicion threshold, so it cannot vouch for a majority
        det0._last_heard[2] = clock.now - CFG.suspect_after - 0.1
        view = det0.step()
        assert convicted == []
        assert view.dead_ranks() == []
        assert view.epoch == 0
        assert det0.stats.quorum_denied_convictions == 1  # rank 1 only
        assert not det0.has_quorum()

    def test_majority_component_still_convicts(self):
        """Hearing one of two peers is a majority (2 of 3): the silent
        third is convicted normally."""
        world = World(3)
        clock = FakeClock()
        convicted = []
        det1 = FailureDetector(
            world.comm(1), CFG, clock=clock,
            on_dead=lambda r, v: convicted.append(r),
        )
        clock.advance(CFG.dead_after)
        det1._last_heard[2] = clock.now  # rank 2 is reachable; rank 0 is not
        view = det1.step()
        assert det1.has_quorum()
        assert view.state(0) == RankState.DEAD
        assert convicted == [0]
        assert view.epoch == 1
        # and the writer moves past the corpse: lowest *non-DEAD* rank
        assert det1.elect_writer() == 1

    def test_healthy_cluster_elects_lowest_rank(self):
        world, clock, dets = _pair(3)
        assert [d.elect_writer() for d in dets] == [0, 0, 0]


class TestIsolation:
    """The ISOLATED mode edge: hysteresis both ways, liveness clocks
    reset on exit, and the join/promotion endpoints refuse while the
    mode is up."""

    def _isolate(self, det, clock):
        """Drive ``det`` (hearing nobody) into ISOLATED mode."""
        clock.advance(CFG.dead_after)
        det.step()  # minority observed: damper arming
        assert not det.isolated
        clock.advance(CFG.isolation_damper)
        det.step()  # minority persisted: mode entered
        assert det.isolated

    def test_entry_needs_the_damper_to_elapse(self):
        world = World(3)
        clock = FakeClock()
        events = []
        det0 = FailureDetector(
            world.comm(0), CFG, clock=clock,
            on_isolated=lambda: events.append("isolated"),
            on_reconnected=lambda v: events.append("reconnected"),
        )
        self._isolate(det0, clock)
        assert events == ["isolated"]
        assert det0.stats.isolated_entries == 1
        assert det0.elect_writer() is None

    def test_exit_needs_quorum_to_persist_and_resets_clocks(self):
        world = World(3)
        clock = FakeClock()
        events = []
        det0 = FailureDetector(
            world.comm(0), CFG, clock=clock,
            on_isolated=lambda: events.append("isolated"),
            on_reconnected=lambda v: events.append(v),
        )
        self._isolate(det0, clock)
        det0._last_heard[1] = clock.now  # quorum contact returns
        det0.step()
        assert det0.isolated  # hysteresis: not out yet
        clock.advance(CFG.isolation_damper)
        det0._last_heard[1] = clock.now
        det0.step()
        assert not det0.isolated
        assert det0.stats.isolated_exits == 1
        assert len(events) == 2 and isinstance(events[1], ClusterView)
        # nothing heard during the cut may count toward a conviction:
        # every liveness clock restarts at the exit instant
        assert det0._last_heard[2] == clock.now

    def test_short_minority_episode_is_damped(self):
        world = World(3)
        clock = FakeClock()
        det0 = FailureDetector(world.comm(0), CFG, clock=clock)
        clock.advance(CFG.dead_after)
        det0.step()  # minority observed, damper arming
        det0._last_heard[1] = clock.now  # link back before the damper fires
        det0._last_heard[2] = clock.now
        det0.step()
        assert det0.stats.damped_flaps == 1
        assert det0.stats.isolated_entries == 0
        assert not det0.isolated

    def test_isolated_peer_refuses_join_and_promotion(self):
        world = World(3)
        clock = FakeClock()
        det0 = FailureDetector(
            world.comm(0), CFG, clock=clock,
            join_snapshot=lambda: {"records": 1},
        )
        self._isolate(det0, clock)
        joiner = FailureDetector(world.comm(1), CFG, clock=clock)
        errors = []

        def _joiner():
            try:
                joiner.request_join(0)
            except MembershipError as exc:
                errors.append(exc)
            try:
                joiner.request_promotion(0)
            except MembershipError as exc:
                errors.append(exc)

        t = threading.Thread(target=_joiner)
        t.start()
        for _ in range(200):
            det0.step()
            t.join(timeout=0.01)
            if not t.is_alive():
                break
        assert not t.is_alive()
        assert len(errors) == 2
        assert "isolated" in str(errors[0]) and "isolated" in str(errors[1])
        assert det0.stats.joins_served == 0
        assert det0.stats.promotions == 0


class TestFlapDamper:
    CFG_DAMP = MembershipConfig(
        heartbeat_interval=1.0, suspect_after=3.0, dead_after=10.0,
        flap_damper=5.0, flap_window=100.0,
    )

    def test_flaps_raise_the_conviction_threshold(self):
        """One recorded flap buys dead_after + flap_damper of silence
        before conviction — distrust the flapping link's silences
        instead of re-replicating on each of them."""
        world = World(2)
        clock = FakeClock()
        convicted = []
        det0 = FailureDetector(
            world.comm(0), self.CFG_DAMP, clock=clock,
            on_dead=lambda r, v: convicted.append(r),
        )
        det1 = FailureDetector(world.comm(1), self.CFG_DAMP, clock=clock)
        clock.advance(self.CFG_DAMP.suspect_after)
        det0.step()  # rank 1 stalls into SUSPECT
        det1.step()  # …and wakes up: heartbeat
        det0.step()  # recovery — one flap on the books
        assert det0.stats.recoveries == 1
        clock.advance(self.CFG_DAMP.dead_after)  # base threshold reached
        assert det0.step().state(1) == RankState.SUSPECT  # damped: not yet
        assert convicted == []
        clock.advance(self.CFG_DAMP.flap_damper)  # raised threshold reached
        assert det0.step().state(1) == RankState.DEAD
        assert convicted == [1]

    def test_threshold_capped_at_four_dead_after(self):
        """A truly dead flapper is still convicted in bounded time."""
        world = World(2)
        clock = FakeClock()
        det0 = FailureDetector(world.comm(0), self.CFG_DAMP, clock=clock)
        det0._flaps[1] = [0.0] * 100
        assert (det0._conviction_threshold(1, 0.0)
                == 4 * self.CFG_DAMP.dead_after)

    def test_damper_off_keeps_base_threshold(self):
        world = World(2)
        clock = FakeClock()
        det0 = FailureDetector(world.comm(0), CFG, clock=clock)
        det0._flaps[1] = [0.0] * 100  # ignored: flap_damper == 0
        assert det0._conviction_threshold(1, 0.0) == CFG.dead_after


class TestRejoinHandshake:
    def _join(self, det_peer, det_joiner, *, promote=True):
        """Drive the blocking joiner calls against a stepping peer."""
        out = {}

        def _joiner():
            out["snapshot"] = det_joiner.request_join(0)
            if promote:
                out["view"] = det_joiner.request_promotion(0)

        t = threading.Thread(target=_joiner)
        t.start()
        for _ in range(200):
            det_peer.step()
            t.join(timeout=0.01)
            if not t.is_alive():
                break
        assert not t.is_alive()
        return out

    def test_join_serves_view_and_snapshot_as_suspect(self):
        world = World(2)
        clock = FakeClock()
        det0 = FailureDetector(
            world.comm(0), CFG, clock=clock,
            join_snapshot=lambda: {"records": 12},
        )
        clock.advance(CFG.dead_after)
        det0.step()  # rank 1 convicted
        joiner = FailureDetector(world.comm(1), CFG, clock=clock)

        out = {}

        def _joiner():
            out["snapshot"] = joiner.request_join(0)

        t = threading.Thread(target=_joiner)
        t.start()
        for _ in range(200):
            det0.step()
            t.join(timeout=0.01)
            if not t.is_alive():
                break
        assert not t.is_alive()
        assert out["snapshot"] == {"records": 12}
        assert det0.view.state(1) == RankState.SUSPECT
        assert det0.stats.joins_served == 1
        # settled history: the joiner never re-fires on_dead for corpses
        assert 1 in joiner._convicted or joiner.view.state(1) != RankState.DEAD

    def test_promotion_requires_verified_read(self):
        world = World(2)
        clock = FakeClock()
        reads = []

        def verify(rank):
            reads.append(rank)
            return True

        det0 = FailureDetector(
            world.comm(0), CFG, clock=clock, verify_read=verify,
            join_snapshot=lambda: None,
        )
        clock.advance(CFG.dead_after)
        det0.step()
        joiner = FailureDetector(world.comm(1), CFG, clock=clock)
        out = self._join(det0, joiner)
        assert reads == [1]
        assert det0.view.state(1) == RankState.ALIVE
        assert det0.stats.promotions == 1
        # promotion is a membership change: the epoch moved
        assert det0.view.epoch == 2
        assert out["view"].state(1) == RankState.ALIVE
        assert out["view"].epoch == 2

    def test_failed_verification_rejects_promotion(self):
        world = World(2)
        clock = FakeClock()
        det0 = FailureDetector(
            world.comm(0), CFG, clock=clock,
            verify_read=lambda rank: False, join_snapshot=lambda: None,
        )
        clock.advance(CFG.dead_after)
        det0.step()
        joiner = FailureDetector(world.comm(1), CFG, clock=clock)
        errors = []

        def _joiner():
            joiner.request_join(0)
            try:
                joiner.request_promotion(0)
            except MembershipError as exc:
                errors.append(exc)

        t = threading.Thread(target=_joiner)
        t.start()
        for _ in range(200):
            det0.step()
            t.join(timeout=0.01)
            if not t.is_alive():
                break
        assert not t.is_alive()
        assert len(errors) == 1
        assert det0.view.state(1) == RankState.SUSPECT  # not promoted


def _record(path, home, partition, *, broadcast=False, size=100):
    flags = FLAG_BROADCAST if broadcast else 0
    stat = FileStat(st_size=size, partition_id=partition, flags=flags)
    return FileRecord(
        path=path,
        stat=stat.with_locality(home),
        compressor_id=0,
        compressed_size=size,
        home_rank=home,
        partition_id=partition,
    )


class TestRereplicationPlanning:
    def _table(self):
        """3 ranks, one record per partition, replicas on the ring
        successor (partition p homed on p, replicated on p+1)."""
        table = MetadataTable()
        for p in range(3):
            table.insert(_record(f"f{p}", p, p))
            table.add_replica(f"f{p}", (p + 1) % 3)
        table.insert(_record("val/v0", 0, 3, broadcast=True))
        return table

    def test_plan_covers_home_and_replica_losses(self):
        table = self._table()
        steps = {s.path: s for s in table.plan_rereplication(2, [0, 1], 3)}
        # f2 was homed on 2 (replica on 0); f1's replica lived on 2
        assert set(steps) == {"f1", "f2"}
        s2 = steps["f2"]
        assert s2.new_home == 0  # lowest surviving copy holder
        assert s2.source_ranks == (0,)
        assert s2.stage_rank == 1  # first alive successor without a copy
        assert set(s2.new_replicas) == {1}
        s1 = steps["f1"]
        assert s1.new_home == 1  # home survived: unchanged
        assert s1.source_ranks == (1,)
        assert s1.stage_rank == 0
        assert set(s1.new_replicas) == {0}

    def test_plan_skips_broadcast_records(self):
        table = self._table()
        steps = table.plan_rereplication(0, [1, 2], 3)
        assert all(s.path != "val/v0" for s in steps)

    def test_plan_is_deterministic(self):
        a = self._table().plan_rereplication(2, [0, 1], 3)
        b = self._table().plan_rereplication(2, [1, 0], 3)
        assert a == b

    def test_plan_with_no_survivors_stages_from_shared_fs(self):
        table = MetadataTable()
        table.insert(_record("lonely", 2, 2))  # no replicas at all
        (step,) = table.plan_rereplication(2, [0, 1], 3)
        assert step.source_ranks == ()
        assert step.stage_rank == 0  # ring successor of 2
        assert step.new_home == 0  # adopts the record
        assert step.new_replicas == ()

    def test_apply_commits_new_owners(self):
        table = self._table()
        steps = table.plan_rereplication(2, [0, 1], 3)
        changed = table.apply_rereplication(steps, 2)
        assert changed == 1  # only f2 was re-homed
        assert table.get("f2").home_rank == 0
        assert table.get("f2").stat.home_rank == 0  # locality stamped
        assert table.replica_ranks("f2") == (1,)
        assert table.replica_ranks("f1") == (0,)  # dead replica replaced
        assert table.get("f1").home_rank == 1


class _SplitStub:
    """Just enough of FailureDetector for the daemon's conviction
    callback: a detector stuck on the minority side of a partition."""

    isolated = True

    def has_quorum(self) -> bool:
        return False


class TestSnapshotAdoption:
    """``apply_membership_snapshot`` treats the peer's replica map as
    authoritative: a partition survivor's own stale entries must not
    outlive the adoption, and only the deterministic round-robin rule
    is self-announced on top."""

    def test_stale_self_replica_is_replaced(self):
        # Split-era state: rank 2 still believes it replicates a
        # partition-1 file whose replica duty the majority re-homed.
        daemon = FanStoreDaemon(World(3).comm(2))
        daemon.metadata.insert(_record("train/a", home=1, partition=1))
        daemon.metadata.add_replica("train/a", 2)
        daemon.backend.put("train/a", b"x" * 4)
        merged = _record("train/a", home=0, partition=1)
        daemon.replication.apply_membership_snapshot(([merged], {"train/a": (1,)}))
        assert daemon.metadata.get("train/a").home_rank == 0
        assert daemon.metadata.replica_ranks("train/a") == (1,)

    def test_own_partition_copies_are_self_announced(self):
        daemon = FanStoreDaemon(World(3).comm(2))
        mine = _record("train/b", home=0, partition=2)  # 2 % 3 == rank
        daemon.backend.put("train/b", b"y" * 4)
        daemon.replication.apply_membership_snapshot(([mine], {"train/b": (1,)}))
        assert daemon.metadata.replica_ranks("train/b") == (1, 2)

    def test_copies_not_physically_held_are_not_announced(self):
        daemon = FanStoreDaemon(World(3).comm(2))
        mine = _record("train/c", home=0, partition=2)
        daemon.replication.apply_membership_snapshot(([mine], {}))
        assert daemon.metadata.replica_ranks("train/c") == ()


class TestConvictionFreeze:
    def test_isolated_daemon_freezes_rereplication(self):
        daemon = FanStoreDaemon(World(3).comm(0))
        daemon._membership = _SplitStub()
        view = ClusterView(3)
        view.set_state(2, RankState.DEAD, bump_epoch=True)
        daemon.replication.on_rank_dead(2, view)
        assert daemon.stats.rereplications_frozen == 1
        assert daemon.stats.rereplicated_records == 0
        assert 2 in daemon.replication._frozen_corpses
