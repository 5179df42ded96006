"""Unit drills for the gray-failure primitives: circuit-breaker FSM,
deadline arithmetic, admission-queue shedding (which never skips a
digest check), the breaker as the daemon's memory of a peer it gave up
on, and the client side of overload replies. State machines run against fake
clocks — no sleeps; only the request-exchange tests touch a real
two-rank world."""

from __future__ import annotations

import errno
import math
import random
import time
import types

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.comm.communicator import ANY_SOURCE, World
from repro.comm.deadline import Deadline, wire_deadline
from repro.comm.launcher import run_parallel
from repro.errors import (
    CommError,
    DataIntegrityError,
    DeadlineExpiredError,
    InvalidArgumentError,
    RetryExhaustedError,
    ServerOverloadedError,
)
from repro.fanstore import exchange as exchange_module
from repro.fanstore.daemon import DaemonConfig, DaemonStats, FanStoreDaemon
from repro.fanstore.exchange import TAG_DAEMON, PeerExchange
from repro.fanstore.health import BreakerState, CircuitBreaker, HealthTracker
from repro.fanstore.layout import FileStat, blob_crc32
from repro.fanstore.membership import RankState
from repro.fanstore.metadata import FileRecord
from repro.fanstore.serve import AdmissionQueue
from repro.fanstore.wire import Reply, Request, decode_request
from repro.obs.metrics import MetricsRegistry
from repro.obs.tracing import Tracer
from tests.fanstore.test_failover_ladder import StubDetector, StubPeers


class FakeClock:
    def __init__(self, t: float = 100.0) -> None:
        self.t = t

    def __call__(self) -> float:
        return self.t

    def advance(self, dt: float) -> None:
        self.t += dt


def breaker(clock, **kw):
    kw.setdefault("failure_threshold", 3)
    kw.setdefault("slow_threshold", 3)
    kw.setdefault("reset_after", 1.0)
    return CircuitBreaker(clock=clock, **kw)


class TestCircuitBreakerFSM:
    def test_starts_closed_and_allows(self):
        br = breaker(FakeClock())
        assert br.state is BreakerState.CLOSED
        assert br.allow()
        assert br.opens == 0

    def test_consecutive_failures_trip(self):
        br = breaker(FakeClock())
        br.record_failure()
        br.record_failure()
        assert br.state is BreakerState.CLOSED  # below threshold
        br.record_failure()
        assert br.state is BreakerState.OPEN
        assert not br.allow()
        assert br.opens == 1

    def test_success_clears_strikes(self):
        br = breaker(FakeClock())
        br.record_failure()
        br.record_failure()
        br.record_success()
        br.record_failure()
        br.record_failure()
        assert br.state is BreakerState.CLOSED  # counter restarted

    def test_consecutive_slow_signals_trip(self):
        br = breaker(FakeClock(), slow_threshold=2)
        br.record_slow()
        assert br.state is BreakerState.CLOSED
        br.record_slow()
        assert br.state is BreakerState.OPEN

    def test_cooloff_half_opens_and_counts_probes(self):
        clock = FakeClock()
        br = breaker(clock)
        for _ in range(3):
            br.record_failure()
        assert not br.allow()
        clock.advance(0.99)
        assert not br.allow()  # still cooling off
        clock.advance(0.02)
        assert br.state is BreakerState.HALF_OPEN
        assert br.allow()
        assert br.probes == 1

    def test_probe_success_closes(self):
        clock = FakeClock()
        br = breaker(clock)
        for _ in range(3):
            br.record_failure()
        clock.advance(1.5)
        assert br.allow()
        br.record_success()
        assert br.state is BreakerState.CLOSED
        assert br.allow() and br.probes == 1  # no new probe once closed

    def test_probe_failure_retrips_immediately(self):
        clock = FakeClock()
        br = breaker(clock)
        for _ in range(3):
            br.record_failure()
        clock.advance(1.5)
        assert br.allow()
        br.record_failure()  # one strike is enough in HALF_OPEN
        assert br.state is BreakerState.OPEN
        assert br.opens == 2
        # and the cool-off restarted from the re-trip
        clock.advance(0.5)
        assert not br.allow()

    def test_slow_probe_also_retrips(self):
        clock = FakeClock()
        br = breaker(clock)
        for _ in range(3):
            br.record_slow()
        clock.advance(1.5)
        assert br.allow()
        br.record_slow()
        assert br.state is BreakerState.OPEN

    def test_force_open_is_idempotent_on_the_open_counter(self):
        clock = FakeClock()
        br = breaker(clock)
        br.force_open()
        assert br.state is BreakerState.OPEN and br.opens == 1
        clock.advance(0.8)
        br.force_open()  # restart, not a new transition
        assert br.opens == 1
        clock.advance(0.8)  # 1.6 since first, 0.8 since restart
        assert br.state is BreakerState.OPEN

    def test_half_open_skips_the_cooloff(self):
        br = breaker(FakeClock())
        br.force_open()
        br.half_open()
        assert br.state is BreakerState.HALF_OPEN
        assert br.allow() and br.probes == 1

    def test_half_open_noop_when_closed(self):
        br = breaker(FakeClock())
        br.half_open()
        assert br.state is BreakerState.CLOSED

    @pytest.mark.parametrize(
        "kw", [dict(failure_threshold=0), dict(slow_threshold=0),
               dict(reset_after=-1.0)]
    )
    def test_validation(self, kw):
        with pytest.raises(ValueError):
            CircuitBreaker(**kw)


class TestHealthTracker:
    def tracker(self, clock=None, **kw):
        return HealthTracker(0, clock=clock or FakeClock(), **kw)

    def test_quantile(self):
        h = self.tracker()
        assert h.quantile(1, 0.95, default=0.25) == 0.25
        for v in (0.1, 0.3, 0.2, 0.4, 0.5):
            h.observe(1, v)
        assert h.quantile(1, 0.0, default=0.0) == pytest.approx(0.1)
        assert h.quantile(1, 1.0, default=0.0) == pytest.approx(0.5)

    def test_failures_open_and_fire_callback(self):
        h = self.tracker()
        opened = []
        h.on_open = opened.append
        for _ in range(3):
            h.failure(2)
        assert h.state(2) is BreakerState.OPEN
        assert not h.allow(2)
        assert h.open_peers() == [2]
        assert opened == [2]

    def test_note_slow_strikes(self):
        h = self.tracker(slow_threshold=2)
        h.note_slow(1)
        h.note_slow(1)
        assert h.state(1) is BreakerState.OPEN

    def test_allow_counts_probes_via_callback(self):
        clock = FakeClock()
        h = self.tracker(clock=clock, reset_after=1.0)
        probes = []
        h.on_probe = probes.append
        for _ in range(3):
            h.failure(1)
        clock.advance(2.0)
        assert h.allow(1)
        assert probes == [1]
        # state() must not count probes
        assert h.state(1) is BreakerState.HALF_OPEN
        assert probes == [1]

    def test_membership_reconciliation_hooks(self):
        h = self.tracker()
        h.force_open(4)
        assert not h.allow(4)
        h.half_open(4)
        assert h.allow(4)  # the rejoin probe

    def test_exhausted_opens_at_once_whatever_the_strike_count(self):
        h = self.tracker(failure_threshold=3)
        opened = []
        h.on_open = opened.append
        assert h.failure(1) is False  # one strike on the books, of three
        assert h.state(1) is BreakerState.CLOSED
        h.force_open(1)  # a full-budget exchange was exhausted
        assert h.state(1) is BreakerState.OPEN and not h.allow(1)
        assert opened == [1]
        h.force_open(1)  # cool-off restarted, not a new transition
        assert opened == [1]

    def test_a_failed_probe_says_so_and_a_passed_one_closes(self):
        clock = FakeClock()
        h = self.tracker(clock=clock, reset_after=1.0)
        h.force_open(1)
        clock.advance(1.0)  # exactly the cool-off
        assert h.state(1) is BreakerState.HALF_OPEN
        assert h.allow(1)
        assert h.failure(1) is True  # the probe failed: do not retry
        assert h.state(1) is BreakerState.OPEN
        assert h.failure(1) is False  # a straggler, not a probe
        clock.advance(1.0)
        assert h.allow(1)
        h.observe(1, 0.01)
        assert h.state(1) is BreakerState.CLOSED

    def test_validation(self):
        with pytest.raises(ValueError):
            self.tracker().quantile(1, 1.5, default=0.0)


class _CountingLock:
    """A lock that counts its acquisitions."""

    def __init__(self, inner) -> None:
        self.inner = inner
        self.acquired = 0

    def __enter__(self):
        self.acquired += 1
        return self.inner.__enter__()

    def __exit__(self, *exc):
        return self.inner.__exit__(*exc)


class TestLockFreeGate:
    """``HealthTracker.allow`` answers a CLOSED breaker without the
    lock; OPEN and HALF_OPEN keep the locked path and its probe
    accounting. Stepped clock, no sleeps."""

    def tracker(self, clock):
        h = HealthTracker(0, clock=clock, reset_after=1.0)
        h._lock = _CountingLock(h._lock)
        return h

    def test_a_closed_breaker_is_answered_without_the_lock(self):
        h = self.tracker(FakeClock())
        assert h.allow(1)  # the first ask makes the breaker, locked
        locked = h._lock.acquired
        for _ in range(3):
            assert h.allow(1)
        assert h._lock.acquired == locked

    def test_an_open_breaker_answers_no(self):
        clock = FakeClock()
        h = self.tracker(clock)
        probes = []
        h.on_probe = probes.append
        assert h.allow(1)
        for _ in range(3):
            h.failure(1)
        locked = h._lock.acquired
        clock.advance(0.99)  # still cooling off
        assert not h.allow(1)
        assert not h.allow(1)
        assert h._lock.acquired == locked + 2  # both asked under the lock
        assert probes == []

    def test_a_half_open_breaker_counts_one_probe_per_allow(self):
        clock = FakeClock()
        h = self.tracker(clock)
        probes = []
        h.on_probe = probes.append
        h.force_open(1)
        clock.advance(1.0)  # the cool-off elapsed: OPEN reads HALF_OPEN
        assert h.allow(1)
        assert probes == [1]
        assert h.state(1) is BreakerState.HALF_OPEN
        h.observe(1, 0.01)  # the probe passed
        assert h.allow(1)
        assert probes == [1]  # CLOSED again: no probe, no lock
        h.force_open(2)
        h.half_open(2)  # re-admitted: HALF_OPEN without a cool-off
        assert h.allow(2)
        assert probes == [1, 2]

    def test_a_force_open_is_seen_by_the_very_next_allow(self):
        h = self.tracker(FakeClock())
        assert h.allow(1)
        assert h.allow(1)  # lock-free
        h.force_open(1)
        assert not h.allow(1)


class TestDeadline:
    def test_after_and_remaining(self):
        clock = FakeClock(50.0)
        d = Deadline.after(2.0, clock=clock)
        assert d.remaining() == pytest.approx(2.0)
        assert not d.expired()
        clock.advance(1.5)
        assert d.remaining() == pytest.approx(0.5)
        clock.advance(1.0)
        assert d.expired()
        assert d.remaining() == 0.0  # never negative

    def test_after_rejects_negative(self):
        with pytest.raises(ValueError):
            Deadline.after(-0.1)

    def test_cap(self):
        clock = FakeClock(0.0)
        d = Deadline.after(1.0, clock=clock)
        assert d.cap(5.0) == pytest.approx(1.0)
        assert d.cap(0.25) == pytest.approx(0.25)
        assert d.cap(None) == pytest.approx(1.0)

    def test_check_raises_typed_oserror(self):
        clock = FakeClock(0.0)
        d = Deadline.after(0.5, clock=clock)
        d.check("still fine", path="a/b")
        clock.advance(1.0)
        with pytest.raises(DeadlineExpiredError) as ei:
            d.check("budget spent", path="a/b")
        assert isinstance(ei.value, (OSError, TimeoutError))
        assert ei.value.errno == errno.ETIMEDOUT
        assert ei.value.filename == "a/b"

    @pytest.mark.parametrize(
        "raw,expected",
        [
            (12.5, 12.5),
            (3, 3.0),
            (True, None),  # a bool is not a deadline
            (float("nan"), None),
            (float("inf"), None),
            (-float("inf"), None),
            pytest.param(10**400, None, id="int-past-float-range"),
            ("soon", None),
            (None, None),
        ],
    )
    def test_wire_deadline_validation(self, raw, expected):
        got = wire_deadline(raw)
        if expected is None:
            assert got is None
        else:
            assert got == pytest.approx(expected) and isinstance(got, float)
            assert not isinstance(got, bool)
            assert not math.isnan(got)


class TestAdmissionQueue:
    def test_capacity_validation(self):
        with pytest.raises(ValueError):
            AdmissionQueue(0)

    def test_fifo_under_capacity(self):
        q = AdmissionQueue(4)
        for name in ("a", "b", "c"):
            assert q.push(name, None) == []
        assert [q.pop(), q.pop(), q.pop(), q.pop()] == ["a", "b", "c", None]

    def test_overflow_sheds_nearest_deadline_first(self):
        q = AdmissionQueue(2)
        q.push("late", 100.0)
        q.push("soon", 10.0)
        shed = q.push("mid", 50.0)
        assert shed == ["soon"]  # closest to expiry goes first
        assert len(q) == 2

    def test_new_item_itself_can_be_shed(self):
        q = AdmissionQueue(2)
        q.push("a", 100.0)
        q.push("b", 200.0)
        assert q.push("urgent-but-doomed", 1.0) == ["urgent-but-doomed"]
        assert [q.pop(), q.pop()] == ["a", "b"]

    def test_no_deadline_sheds_last_oldest_first(self):
        q = AdmissionQueue(2)
        q.push("old-nodl", None)
        q.push("new-nodl", None)
        shed = q.push("deadlined", 5.0)
        # entries without a deadline are shed after deadlined ones,
        # oldest arrival first among themselves — but never before a
        # deadlined entry
        assert shed == ["deadlined"]
        shed = q.push("another", None)
        assert shed == ["old-nodl"]

    def test_service_order_stays_fifo_after_shedding(self):
        q = AdmissionQueue(3)
        q.push("a", 30.0)
        q.push("b", 10.0)
        q.push("c", 20.0)
        q.push("d", 40.0)  # sheds "b"
        assert [q.pop(), q.pop(), q.pop()] == ["a", "c", "d"]

    @settings(max_examples=200, deadline=None)
    @given(
        st.integers(1, 4),
        st.lists(
            st.one_of(
                st.tuples(st.just("push"), st.none() | st.integers(0, 5)),
                st.tuples(st.just("pop"), st.none()),
            ),
            max_size=40,
        ),
    )
    def test_matches_a_plain_list(self, capacity, ops):
        """The queue against the contract written as a plain list in
        arrival order: service pops the head; overflow sheds the entry
        with the nearest deadline (no deadline counts as the farthest),
        the earliest arrival among equals, and returns it."""
        q = AdmissionQueue(capacity)
        model: list[tuple[int, float]] = []  # (arrival, deadline key)
        for arrival, (op, deadline) in enumerate(ops):
            if op == "pop":
                want = model.pop(0)[0] if model else None
                assert q.pop() == want
                continue
            model.append(
                (arrival, math.inf if deadline is None else float(deadline))
            )
            victims = []
            while len(model) > capacity:
                victim = min(model, key=lambda e: (e[1], e[0]))
                model.remove(victim)
                victims.append(victim[0])
            assert q.push(arrival, deadline) == victims
            assert len(q) == len(model)
        assert [q.pop() for _ in range(len(model) + 1)] == [
            arrival for arrival, _ in model
        ] + [None]


def _record(payload: bytes, home_rank: int = 0) -> FileRecord:
    return FileRecord(
        path="data/x",
        stat=FileStat(st_size=len(payload)).with_digest(blob_crc32(payload)),
        compressor_id=1,
        compressed_size=len(payload),
        home_rank=home_rank,
        partition_id=0,
    )


class TestTheBreakerIsTheMemoryOfAGivenUpPeer:
    """What a negative route cache used to remember — "that rank
    exhausted a full retry budget, skip it" — the breaker remembers, and
    forgets on the clock rather than on a view epoch that, without a
    detector, never moves. Scripted peers, injected clock."""

    PAYLOAD = b"the-verified-payload"
    HOME = 1

    def _daemon(self, clock):
        comm = StubPeers({self.HOME: None})  # silent until told otherwise
        daemon = FanStoreDaemon(comm, config=DaemonConfig(max_retries=1))
        tracker = HealthTracker(comm.rank, reset_after=1.0, clock=clock)
        tracker.on_open = daemon.health.on_open
        tracker.on_probe = daemon.health.on_probe
        daemon.health = daemon.exchange.health = tracker
        daemon.metadata.insert(_record(self.PAYLOAD, home_rank=self.HOME))
        return daemon, comm

    def _read_fails(self, daemon):
        with pytest.raises(RetryExhaustedError):
            daemon.fetch_compressed("data/x")  # no replica, no floor

    def test_a_daemon_with_no_detector_reasks_a_recovered_peer(self):
        clock = FakeClock()
        daemon, comm = self._daemon(clock)
        stats = daemon.stats
        self._read_fails(daemon)
        # two strikes of three, yet open: the spent budget is the verdict
        assert comm.asked == [self.HOME] * 2
        assert daemon.health.state(self.HOME) is BreakerState.OPEN
        assert (stats.breaker_opens, stats.breaker_skips) == (1, 0)
        self._read_fails(daemon)  # the next read sends it nothing
        assert comm.asked == [self.HOME] * 2
        assert (stats.breaker_skips, stats.retries) == (1, 1)
        clock.advance(1.0)
        self._read_fails(daemon)  # still down: the probe is one send
        assert comm.asked == [self.HOME] * 3
        assert (stats.breaker_probes, stats.retries) == (1, 1)
        assert daemon.health.state(self.HOME) is BreakerState.OPEN
        comm.answers[self.HOME] = (Reply.OK, self.PAYLOAD)  # it recovers
        self._read_fails(daemon)  # ... inside the cool-off: not asked yet
        assert comm.asked == [self.HOME] * 3
        clock.advance(1.0)
        assert daemon.fetch_compressed("data/x") == self.PAYLOAD
        assert comm.asked == [self.HOME] * 4
        assert daemon.health.state(self.HOME) is BreakerState.CLOSED
        assert (stats.breaker_probes, stats.breaker_skips) == (2, 2)

    def test_a_convicted_peer_is_not_probed_until_it_is_readmitted(self):
        clock = FakeClock()
        daemon, comm = self._daemon(clock)
        detector = daemon._membership = StubDetector.convicting(self.HOME)
        daemon.health.force_open(self.HOME)  # what replication.on_rank_dead does
        clock.advance(3600.0)  # any cool-off is long over
        self._read_fails(daemon)
        assert comm.asked == [] and daemon.stats.breaker_probes == 0
        detector.view.set_state(self.HOME, RankState.ALIVE, bump_epoch=True)
        comm.answers[self.HOME] = (Reply.OK, self.PAYLOAD)
        daemon.replication.on_rank_alive(self.HOME)
        assert daemon.fetch_compressed("data/x") == self.PAYLOAD
        assert comm.asked == [self.HOME]
        assert daemon.stats.breaker_probes == 1


class _ShedAware(StubPeers):
    """Scripted peers that also take the overload replies a shedding
    daemon sends its victims."""

    def __init__(self, answers) -> None:
        super().__init__(answers)
        self.overloads: list[int] = []

    def send(self, payload, dest, tag) -> None:
        if payload[0] == Reply.OVERLOAD:
            self.overloads.append(dest)
        else:
            super().send(payload, dest, tag)


class TestOverloadNeverSkipsAVerification:
    PAYLOAD = b"the-verified-payload"
    HOME = 1

    def test_a_shedding_rank_rejects_corrupt_bytes_for_a_verified_path(self):
        """Shedding once bought a pass for *any* bytes of a path this
        rank had verified before, off the wire included. Now a shedding
        requester still hashes what arrives, and a corrupt reply is
        detected, never returned."""
        comm = _ShedAware({self.HOME: (Reply.OK, self.PAYLOAD)})
        daemon = FanStoreDaemon(comm, config=DaemonConfig(max_retries=0))
        daemon.metadata.insert(_record(self.PAYLOAD, home_rank=self.HOME))
        assert daemon.fetch_compressed("data/x") == self.PAYLOAD  # verified
        queue = AdmissionQueue(1)
        for reply_tag in (7, 8):  # the second one overflows the queue
            body = Request(subject="data/x", reply_tag=reply_tag).encode()
            assert not daemon.server._admit(queue, (("fetch", body), 2, TAG_DAEMON))
        assert daemon.stats.shed_requests == 1 and comm.overloads == [2]
        comm.answers[self.HOME] = (Reply.OK, b"anything goes")
        with pytest.raises(DataIntegrityError):
            daemon.fetch_compressed("data/x")  # no replica, no floor
        assert daemon.stats.corruption_detected == 1


FAST = dict(
    request_timeout=0.3,
    max_retries=1,
)


def _serve_until_done(comm, reply=None, first=None):
    """Stub server: answer every daemon request with ``reply`` (or
    swallow it when None) until a 'done' kind arrives; ``first``, when
    given, answers the first request instead."""
    answer = reply if first is None else first
    while True:
        payload, src, _tag = comm.recv_with_status(
            ANY_SOURCE, TAG_DAEMON, timeout=30
        )
        kind, body = payload
        if kind == "done":
            return None
        if answer is not None:
            reply_tag = decode_request(body).reply_tag
            comm.send(answer, src, reply_tag)
        answer = reply


class TestOverloadReplies:
    def test_every_attempt_shed_raises_server_overloaded(self):
        def body(comm):
            if comm.rank == 1:
                return _serve_until_done(comm, reply=(Reply.OVERLOAD, 0.01))
            daemon = FanStoreDaemon(comm, config=DaemonConfig(**FAST))
            with pytest.raises(ServerOverloadedError) as ei:
                daemon.exchange.ask(1, [("fetch", "some/path", None)])
            comm.send(("done", None), 1, TAG_DAEMON)
            exc = ei.value
            return (
                exc.errno,
                exc.retry_after_s,
                daemon.stats.overload_backoffs,
                daemon.stats.retries,
            )

        res = run_parallel(body, 2, timeout=30)[0]
        err, retry_after, backoffs, retries = res
        assert err == errno.EAGAIN
        assert retry_after == pytest.approx(0.01)
        assert backoffs == 2  # both attempts were shed
        assert retries == 1

    def test_overload_trips_the_breaker_like_a_failure(self):
        def body(comm):
            if comm.rank == 1:
                return _serve_until_done(comm, reply=(Reply.OVERLOAD, 0.0))
            cfg = DaemonConfig(**{**FAST, "max_retries": 2})
            daemon = FanStoreDaemon(comm, config=cfg)
            with pytest.raises(ServerOverloadedError):
                daemon.exchange.ask(1, [("fetch", "p", None)])
            comm.send(("done", None), 1, TAG_DAEMON)
            return daemon.health.state(1), daemon.stats.breaker_opens

        state, opens = run_parallel(body, 2, timeout=30)[0]
        assert state is BreakerState.OPEN
        assert opens == 1


class TestRequestNeedsAnAttempt:
    @pytest.mark.parametrize("attempts", [0, -1])
    def test_no_attempt_is_a_typed_error_and_nothing_is_sent(self, attempts):
        """An exchange allowed no attempt used to skip its retry loop
        and crash on the unbound locals of its final error message
        (``UnboundLocalError``). It is the store's EINVAL now, raised
        before anything goes on the wire."""
        world = World(2)
        daemon = FanStoreDaemon(world.comm(0), config=DaemonConfig(**FAST))
        with pytest.raises(InvalidArgumentError) as ei:
            daemon.exchange.ask(
                1, [("fetch", "some/path", None)], attempts=attempts
            )
        assert "at least one attempt" in ei.value.args[0]
        assert ei.value.errno == errno.EINVAL
        assert ei.value.filename == "some/path"
        assert world.comm(1).try_recv() is None
        assert daemon.stats.retries == 0


class TestDeadlineBudgetedRetries:
    def test_deadline_bounds_the_whole_retry_ladder(self):
        def body(comm):
            if comm.rank == 1:
                return _serve_until_done(comm, reply=None)  # never answer
            cfg = DaemonConfig(request_timeout=0.15, max_retries=8)
            daemon = FanStoreDaemon(comm, config=cfg)
            t0 = time.perf_counter()
            with pytest.raises(DeadlineExpiredError) as ei:
                daemon.exchange.ask(1, [("fetch", "p", Deadline.after(0.4))])
            elapsed = time.perf_counter() - t0
            comm.send(("done", None), 1, TAG_DAEMON)
            return ei.value.errno, elapsed, daemon.stats.deadline_aborts

        err, elapsed, aborts = run_parallel(body, 2, timeout=30)[0]
        assert err == errno.ETIMEDOUT
        # 9 stacked timeouts would be >1.3 s; the deadline caps the lot
        assert elapsed < 1.0
        assert aborts == 1


class TestRepairHonoursTheDeadline:
    """No request outlives its deadline — through ``repair`` too. The
    home re-ask of a repair used to run the full retry budget with no
    deadline: 3 x ``request_timeout`` on top of whatever the read had
    already spent."""

    def _daemon(self, comm, **config):
        daemon = FanStoreDaemon(comm, config=DaemonConfig(
            max_retries=2, **config
        ))
        daemon.metadata.insert(_record(b"the-verified-payload", home_rank=1))
        return daemon

    def test_corrupt_local_copy_silent_home(self):
        """A corrupt local replica copy whose home never answers: the
        repair gets a fresh ``request_deadline`` budget and the typed
        error surfaces inside it, not after three stacked timeouts."""

        def body(comm):
            if comm.rank == 1:
                return _serve_until_done(comm, reply=None)  # never answer
            daemon = self._daemon(
                comm, request_timeout=0.3, request_deadline=0.2
            )
            daemon.backend.put("data/x", b"rotten" * 8)
            t0 = time.perf_counter()
            with pytest.raises(DataIntegrityError):
                daemon.open_file("data/x")
            elapsed = time.perf_counter() - t0
            comm.send(("done", None), 1, TAG_DAEMON)
            stats = daemon.stats
            return elapsed, stats.retries, stats.corruption_detected

        elapsed, retries, detected = run_parallel(body, 2, timeout=30)[0]
        assert elapsed < 0.6  # 0.2 s budget; undeadlined it was 0.93 s
        assert retries <= 1
        assert detected == 1

    def test_corrupt_home_reply_spends_the_ladders_budget(self):
        """Entered from a corrupt home reply, the repair runs on what is
        left of *that read's* deadline — not on a fresh budget (1 s
        here), let alone an unbounded one (3 s)."""

        def body(comm):
            if comm.rank == 1:
                return _serve_until_done(
                    comm, reply=None, first=(Reply.OK, b"rotten" * 8)
                )
            daemon = self._daemon(
                comm, request_timeout=1.0, request_deadline=1.0
            )
            t0 = time.perf_counter()
            with pytest.raises(DataIntegrityError):
                daemon.fetch_compressed(
                    "data/x", deadline=Deadline.after(0.2)
                )
            elapsed = time.perf_counter() - t0
            comm.send(("done", None), 1, TAG_DAEMON)
            return elapsed, daemon.stats.remote_fetches, daemon.stats.failovers

        elapsed, remote_fetches, failovers = run_parallel(
            body, 2, timeout=30
        )[0]
        assert elapsed < 0.6
        assert remote_fetches == 1  # the corrupt home reply, nothing else
        assert failovers == 0  # the home answered: repair, not failover


class _Recorder:
    """Scripted peers that answer at once — a ``stat`` with ``record``,
    a ``fetch`` with its payload — and keep each envelope's kind and
    absolute deadline."""

    rank, size = 0, 2

    def __init__(self, record: FileRecord, payload: bytes) -> None:
        self.answers = {
            "stat": (Reply.OK, record), "fetch": (Reply.OK, payload),
        }
        self.sent: list[tuple[str, float | None]] = []
        self._pending: dict[int, tuple] = {}

    def send(self, payload, dest, tag) -> None:
        kind, body = payload
        request = decode_request(body)
        self.sent.append((kind, request.deadline))
        self._pending[request.reply_tag] = self.answers[kind]

    def recv(self, source, tag, timeout=None):
        return self._pending.pop(tag)


class TestAReadsLookupSpendsItsBudget:
    """A runtime output this rank has no record of is looked up at its
    hash owner (``data/x`` hashes to rank 1) — inside the read, so on
    the read's ``request_deadline``. The ``stat`` used to go out with a
    full ``request_timeout`` (30 s here) and the ladder then started a
    fresh budget. Each expiry may exceed start + budget by at most the
    read's own duration: the budget starts inside the read."""

    PAYLOAD = b"the-runtime-output"
    BUDGET = 0.2

    def _daemon(self) -> tuple[FanStoreDaemon, _Recorder]:
        comm = _Recorder(_record(self.PAYLOAD, home_rank=1), self.PAYLOAD)
        config = DaemonConfig(request_deadline=self.BUDGET)
        return FanStoreDaemon(comm, config=config), comm

    def test_the_stat_and_the_fetch_expire_within_the_reads_budget(self):
        daemon, comm = self._daemon()
        assert daemon.read_file("data/x") == self.PAYLOAD
        end = time.monotonic()
        assert [kind for kind, _ in comm.sent] == ["stat", "fetch"]
        for kind, at in comm.sent:
            assert at <= end + self.BUDGET, kind

    def test_stat_any_alone_starts_its_own_budget(self):
        daemon, comm = self._daemon()
        assert daemon.stat_any("data/x").home_rank == 1
        end = time.monotonic()
        [(kind, at)] = comm.sent
        assert kind == "stat" and at <= end + self.BUDGET


class _Silent:
    """A peer that answers every request with ``reply``, or never (an
    immediate timeout) when it is None."""

    rank, size = 0, 2

    def __init__(self, reply: tuple | None) -> None:
        self.reply = reply

    def send(self, payload, dest, tag) -> None:
        pass

    def recv(self, source, tag, timeout=None):
        if self.reply is None:
            raise CommError(f"recv from rank {source} timed out")
        return self.reply


class TestTheBackOffIsFixed:
    """Retry back-off is constants of the exchange, not configuration:
    10 ms doubling to a 50 ms cap, times ``1 + 0.5 * U(0,1)`` from the
    rank's seeded RNG, and never below an overload's ``retry_after``.
    The pauses are recorded, not slept."""

    def _pauses(self, monkeypatch, reply: tuple | None) -> list[float]:
        pauses: list[float] = []
        monkeypatch.setattr(exchange_module, "time", types.SimpleNamespace(
            sleep=pauses.append,
            monotonic=time.monotonic,
            perf_counter=time.perf_counter,
        ))
        exchange = PeerExchange(
            _Silent(reply), DaemonConfig(), DaemonStats(), HealthTracker(0),
            Tracer(rank=0), MetricsRegistry(rank=0),
            fence=lambda: None, verify=lambda record, data: True,
        )
        with pytest.raises((RetryExhaustedError, ServerOverloadedError)):
            exchange.ask(1, [("fetch", "p", None)], attempts=7)
        return pauses

    def test_attempts_one_to_six(self, monkeypatch):
        pauses = self._pauses(monkeypatch, None)
        rng = random.Random(0x5EED ^ 0)
        assert len(pauses) == 6
        for n, pause in enumerate(pauses, start=1):
            base = min(0.05, 0.01 * 2 ** (n - 1))
            assert base <= pause <= 1.5 * base <= 0.05 * 1.5
            assert pause == base * (1.0 + 0.5 * rng.random())

    def test_an_overload_retry_after_is_the_floor(self, monkeypatch):
        assert self._pauses(monkeypatch, (Reply.OVERLOAD, 0.2)) == [0.2] * 6


class TestTheHedgeDelayScalesWithTheItemsAsked:
    """An envelope of ``n`` items is judged against ``n`` lone items:
    the health window holds per-item latencies (an envelope's reply
    feeds it its latency over its item count), and the hedge delay is
    ``n`` times their p95, floored at 1 ms an item, capped at
    ``request_timeout``; ``hedge_after_s`` covers the whole request
    before any sample."""

    def _exchange(self, samples: list[float]) -> PeerExchange:
        health = HealthTracker(0)
        for seconds in samples:
            health.observe(1, seconds)
        return PeerExchange(
            _Silent(None), DaemonConfig(hedge_after_s=0.05, request_timeout=1.0),
            DaemonStats(), health, Tracer(rank=0), MetricsRegistry(rank=0),
            fence=lambda: None, verify=lambda record, data: True,
        )

    def test_before_any_sample_the_whole_request_gets_hedge_after_s(self):
        exchange = self._exchange([])
        assert exchange._hedge_delay(1, 1) == pytest.approx(0.05)
        assert exchange._hedge_delay(1, 16) == pytest.approx(0.05)

    def test_n_items_wait_n_times_the_per_item_p95(self):
        exchange = self._exchange([0.002] * 20)
        assert exchange._hedge_delay(1, 1) == pytest.approx(0.002)
        assert exchange._hedge_delay(1, 16) == pytest.approx(0.032)

    def test_the_floor_is_per_item_and_the_cap_is_the_timeout(self):
        assert self._exchange([1e-5] * 20)._hedge_delay(1, 16) == (
            pytest.approx(0.016)
        )
        assert self._exchange([0.1] * 20)._hedge_delay(1, 16) == 1.0
