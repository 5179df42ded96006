"""The per-rank mailbox: a direct hand-off rendezvous.

Covers the matching contract (FIFO per (source, tag), wildcards take
the oldest match), the timeout / close / reopen edges of the hand-off
(a message handed over is never dropped, a parked receiver is released
exactly once) and the property the design exists for: a message wakes
only the thread that consumes it.
"""

from __future__ import annotations

import threading
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.comm.communicator import ANY_SOURCE, ANY_TAG, _Mailbox, _Message
from repro.errors import CommClosedError, CommError

TAG_DAEMON = 0x0FA0
REPLY_TAG = 0x1000


def _put(mb: _Mailbox, source: int, tag: int, payload=None) -> None:
    mb.put(_Message(source, tag, payload))


def _park(mb: _Mailbox, source: int, tag: int, timeout: float | None = 10.0):
    """Start a receiver and return ``(thread, outcome)`` once it is
    parked in the mailbox; ``outcome`` gets the message or the error."""
    outcome: list = []
    before = len(mb._waiters)

    def receiver() -> None:
        try:
            outcome.append(mb.get(source, tag, timeout))
        except CommError as exc:
            outcome.append(exc)

    thread = threading.Thread(target=receiver, daemon=True)
    thread.start()
    stop_at = time.monotonic() + 10
    while len(mb._waiters) == before:
        assert time.monotonic() < stop_at, "receiver never parked"
        time.sleep(0.0005)
    return thread, outcome


def _joined(thread: threading.Thread) -> None:
    thread.join(10)
    assert not thread.is_alive()


class TestMatching:
    def test_fifo_per_source_and_tag(self):
        mb = _Mailbox()
        for i in range(5):
            _put(mb, 0, 7, ("a", i))
            _put(mb, 1, 7, ("b", i))
            _put(mb, 0, 8, ("c", i))
        assert [mb.get(0, 7, 1).payload for _ in range(5)] == [
            ("a", i) for i in range(5)
        ]
        assert [mb.get(0, 8, 1).payload for _ in range(5)] == [
            ("c", i) for i in range(5)
        ]
        assert [mb.get(1, 7, 1).payload for _ in range(5)] == [
            ("b", i) for i in range(5)
        ]

    def test_wildcards_take_the_oldest_match(self):
        mb = _Mailbox()
        _put(mb, 2, 5, "first")
        _put(mb, 1, 9, "second")
        _put(mb, 2, 9, "third")
        assert mb.get(ANY_SOURCE, 9, 1).payload == "second"
        assert mb.get(2, ANY_TAG, 1).payload == "first"
        assert mb.get(ANY_SOURCE, ANY_TAG, 1).payload == "third"
        assert mb.try_get(ANY_SOURCE, ANY_TAG) is None

    def test_handoff_goes_to_the_oldest_matching_receiver(self):
        mb = _Mailbox()
        t_other, got_other = _park(mb, 3, 1)
        t_old, got_old = _park(mb, ANY_SOURCE, 7)
        t_new, got_new = _park(mb, 0, 7)
        _put(mb, 0, 7, "one")
        _joined(t_old)
        assert got_old[0].payload == "one" and not got_new and not got_other
        _put(mb, 0, 7, "two")
        _joined(t_new)
        assert got_new[0].payload == "two"
        assert not mb._messages  # handed over, never queued
        _put(mb, 3, 1, "three")
        _joined(t_other)
        assert got_other[0].payload == "three"

    def test_unwanted_message_is_queued_behind_a_parked_receiver(self):
        mb = _Mailbox()
        thread, got = _park(mb, 0, 7)
        _put(mb, 0, 8, "not yours")
        assert not got and len(mb._messages) == 1
        _put(mb, 0, 7, "yours")
        _joined(thread)
        assert got[0].payload == "yours"
        assert mb.get(0, 8, 1).payload == "not yours"


class TestTimeout:
    def test_timeout_raises_and_a_later_arrival_is_receivable(self):
        mb = _Mailbox()
        t0 = time.monotonic()
        with pytest.raises(CommError, match="timed out"):
            mb.get(0, 7, 0.05)
        assert time.monotonic() - t0 >= 0.04
        assert not mb._waiters  # the expired receiver unregistered itself
        _put(mb, 0, 7, "late")  # must queue, not go to the dead waiter
        assert mb.get(0, 7, 1).payload == "late"

    @pytest.mark.parametrize("timeout", [0, 0.0, -1, -0.5])
    def test_spent_budget_returns_at_once(self, timeout):
        mb = _Mailbox()
        t0 = time.monotonic()
        with pytest.raises(CommError, match="timed out") as err:
            mb.get(ANY_SOURCE, ANY_TAG, timeout)
        assert not isinstance(err.value, CommClosedError)
        assert time.monotonic() - t0 < 1.0  # -1 must not mean "forever"
        assert not mb._waiters

    def test_spent_budget_still_takes_a_queued_message(self):
        mb = _Mailbox()
        _put(mb, 0, 7, "queued")
        assert mb.get(0, 7, 0).payload == "queued"

    def test_message_handed_over_as_the_timer_fires_wins(self):
        """The timer/sender race, forced: the sender hands over while
        the receiver is between its failed acquire and the mutex."""
        mb = _Mailbox()
        real_mutex = mb._mutex

        class HandOverFirst:
            """Stands in for the mutex on the receiver's timeout path:
            delivers a message just before the receiver gets in."""

            armed = False

            def __enter__(self):
                if self.armed and threading.current_thread() is receiver:
                    self.armed = False
                    mb._mutex = real_mutex
                    _put(mb, 0, 7, "photo finish")
                return real_mutex.__enter__()

            def __exit__(self, *exc):
                return real_mutex.__exit__(*exc)

        proxy = HandOverFirst()
        outcome: list = []

        def body() -> None:
            try:
                outcome.append(mb.get(0, 7, 0.05))
            except CommError as exc:
                outcome.append(exc)

        receiver = threading.Thread(target=body, daemon=True)
        receiver.start()
        stop_at = time.monotonic() + 10
        while not mb._waiters:
            assert time.monotonic() < stop_at
            time.sleep(0.0005)
        proxy.armed = True
        mb._mutex = proxy
        _joined(receiver)
        assert outcome[0].payload == "photo finish"
        assert not mb._waiters and not mb._messages


class TestCloseAndReopen:
    def test_close_wakes_every_parked_receiver(self):
        mb = _Mailbox()
        parked = [_park(mb, src, tag) for src, tag in
                  [(0, 1), (ANY_SOURCE, 2), (1, ANY_TAG)]]
        mb.close()
        for thread, outcome in parked:
            _joined(thread)
            assert isinstance(outcome[0], CommClosedError)
        assert not mb._waiters

    def test_handed_over_message_survives_close(self):
        """put() fills the slot, close() lands before the receiver has
        run again: the receiver still returns its message."""
        mb = _Mailbox()
        thread, outcome = _park(mb, 0, 7)
        with mb._mutex:  # what put() does, minus releasing the token
            waiter = mb._waiters.pop(0)
            waiter.msg = _Message(0, 7, "delivered")
        mb.close()
        assert not outcome  # still parked: close() no longer owns it
        waiter.token.release()
        _joined(thread)
        assert outcome[0].payload == "delivered"

    def test_closed_mailbox_contract(self):
        mb = _Mailbox()
        _put(mb, 0, 7, "backlog")
        mb.close()
        with pytest.raises(CommClosedError):
            _put(mb, 0, 7, "refused")
        assert mb.get(0, 7, 1).payload == "backlog"  # queued mail survives
        with pytest.raises(CommClosedError):
            mb.get(0, 7, 1)
        with pytest.raises(CommClosedError):
            mb.get(0, 7, 0)  # closed outranks a spent budget
        with pytest.raises(CommClosedError):
            mb.try_get(0, 7)

    def test_reopen_drops_stale_mail(self):
        mb = _Mailbox()
        _put(mb, 0, 7, "for the corpse")
        mb.close()
        mb.reopen()
        assert mb.try_get(ANY_SOURCE, ANY_TAG) is None
        _put(mb, 0, 7, "fresh")
        assert mb.get(0, 7, 1).payload == "fresh"

    def test_reopen_leaves_a_parked_receiver_parked(self):
        mb = _Mailbox()
        thread, outcome = _park(mb, 0, 7)
        mb.reopen()
        assert not outcome
        _put(mb, 0, 7, "after reopen")
        _joined(thread)
        assert outcome[0].payload == "after reopen"


class TestBystander:
    def test_replies_never_wake_the_service_receiver(self):
        """The daemon's shape: the service thread is parked on
        (ANY_SOURCE, TAG_DAEMON) while a client thread on the same rank
        collects replies on other tags. Every return of the service
        receiver's token.acquire() is a wake-up; 1 000 replies must
        cause none."""
        mb = _Mailbox()
        service, served = _park(mb, ANY_SOURCE, TAG_DAEMON, timeout=30.0)
        service_waiter = mb._waiters[0]
        n = 1000
        got: list = []

        def client() -> None:
            for i in range(n):
                got.append(mb.get(1, REPLY_TAG + i, 10).payload)

        def peer() -> None:
            for i in range(n):
                _put(mb, 1, REPLY_TAG + i, i)

        threads = [threading.Thread(target=f, daemon=True)
                   for f in (client, peer)]
        for t in threads:
            t.start()
        for t in threads:
            _joined(t)
        assert got == list(range(n))
        # never handed anything, never released: still parked, first in line
        assert not served and service.is_alive()
        assert service_waiter.token.locked() and service_waiter.msg is None
        assert mb._waiters == [service_waiter]
        _put(mb, 2, TAG_DAEMON, "request")
        _joined(service)
        assert served[0].payload == "request"


# -- model test -------------------------------------------------------------

_SOURCES = st.sampled_from([ANY_SOURCE, 0, 1, 2])
_TAGS = st.sampled_from([ANY_TAG, 0, 1, 2])
_OPS = st.lists(
    st.one_of(
        st.tuples(st.just("put"), st.integers(0, 2), st.integers(0, 2)),
        st.tuples(st.just("get"), _SOURCES, _TAGS),
        st.tuples(st.just("try_get"), _SOURCES, _TAGS),
        # a blocking get that the next matching put must satisfy
        st.tuples(st.just("park"), _SOURCES, _TAGS),
    ),
    max_size=40,
)


def _wants(source: int, tag: int, msg: tuple[int, int, int]) -> bool:
    return source in (ANY_SOURCE, msg[0]) and tag in (ANY_TAG, msg[1])


class _Model:
    """The contract as a list scan: a queue of undelivered messages and
    receivers in arrival order, each message going to the oldest
    receiver that wants it, else to the back of the queue."""

    def __init__(self) -> None:
        self.queue: list[tuple[int, int, int]] = []
        self.parked: list[tuple[int, int, int]] = []  # (source, tag, id)
        self.delivered: dict[int, tuple[int, int, int]] = {}

    def put(self, msg: tuple[int, int, int]) -> None:
        for i, (source, tag, ident) in enumerate(self.parked):
            if _wants(source, tag, msg):
                del self.parked[i]
                self.delivered[ident] = msg
                return
        self.queue.append(msg)

    def take(self, source: int, tag: int) -> tuple[int, int, int] | None:
        for i, msg in enumerate(self.queue):
            if _wants(source, tag, msg):
                return self.queue.pop(i)
        return None


@settings(max_examples=150, deadline=None)
@given(_OPS)
def test_mailbox_matches_list_scan_model(ops):
    mb = _Mailbox()
    model = _Model()
    parked: dict[int, tuple[threading.Thread, list]] = {}
    serial = 0
    try:
        for op, a, b in ops:
            if op == "put":
                serial += 1
                model.put((a, b, serial))
                _put(mb, a, b, serial)
            elif op == "try_get":
                want = model.take(a, b)
                got = mb.try_get(a, b)
                assert (got and (got.source, got.tag, got.payload)) == want
            elif op == "get":
                # zero budget: a queued match or an immediate timeout
                want = model.take(a, b)
                if want is None:
                    with pytest.raises(CommError, match="timed out"):
                        mb.get(a, b, 0)
                else:
                    got = mb.get(a, b, 0)
                    assert (got.source, got.tag, got.payload) == want
            else:
                want = model.take(a, b)
                if want is not None:
                    got = mb.get(a, b, 5)
                    assert (got.source, got.tag, got.payload) == want
                else:
                    serial += 1
                    model.parked.append((a, b, serial))
                    parked[serial] = _park(mb, a, b)
            # same receivers still parked, in the same order
            assert [(w.source, w.tag) for w in mb._waiters] == [
                (s, t) for s, t, _ in model.parked
            ]
            assert [(m.source, m.tag, m.payload) for m in mb._messages] == (
                model.queue
            )
        for ident, msg in model.delivered.items():
            thread, outcome = parked[ident]
            _joined(thread)
            assert (outcome[0].source, outcome[0].tag, outcome[0].payload) == msg
    finally:
        mb.close()
    for ident, (thread, outcome) in parked.items():
        _joined(thread)
        if ident not in model.delivered:
            assert isinstance(outcome[0], CommClosedError)
