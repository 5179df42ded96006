"""The per-rank mailbox: a direct hand-off rendezvous.

Covers the matching contract (FIFO per (source, tag), wildcards take
the oldest match), the timeout / close / reopen edges of the hand-off
(a message handed over is never dropped, a parked receiver is woken
exactly once), the wake lines a receiver parks on (one byte per wake-up,
none left over, no descriptor outliving its thread) and the property the
design exists for: a message wakes only the thread that consumes it.
"""

from __future__ import annotations

import os
import select
import threading
import time
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.comm.communicator import (
    ANY_SOURCE,
    ANY_TAG,
    World,
    _Mailbox,
    _Message,
    _WakeLine,
)
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


def _pending(line: _WakeLine) -> bool:
    """True when a wake-up byte sits unread on ``line``."""
    return bool(select.select([line.rfd], [], [], 0)[0])


def _count_wakes(monkeypatch) -> Counter:
    """Wake-up bytes written from now on, per wake line."""
    written: Counter = Counter()
    wake = _WakeLine.wake

    def counted(line: _WakeLine) -> None:
        written[line] += 1
        wake(line)

    monkeypatch.setattr(_WakeLine, "wake", counted)
    return written


def _deliver_as_the_timer_fires(mb: _Mailbox, receiver: threading.Thread,
                                msg: _Message) -> None:
    """Force the timer/sender race: once armed, the next time
    ``receiver`` takes the mutex — on its timeout path — ``msg`` is
    handed over first, its byte written while the receiver is between
    its expired poll and the mutex."""
    real_mutex = mb._mutex

    class HandOverFirst:
        def __enter__(self):
            if threading.current_thread() is receiver:
                mb._mutex = real_mutex
                mb.put(msg)
            return real_mutex.__enter__()

        def __exit__(self, *exc):
            return real_mutex.__exit__(*exc)

    stop_at = time.monotonic() + 10
    while not mb._waiters:
        assert time.monotonic() < stop_at
        time.sleep(0.0005)
    mb._mutex = HandOverFirst()


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
        the receiver is between its expired poll and the mutex."""
        mb = _Mailbox()
        outcome: list = []

        def body() -> None:
            try:
                outcome.append(mb.get(0, 7, 0.05))
            except CommError as exc:
                outcome.append(exc)

        receiver = threading.Thread(target=body, daemon=True)
        receiver.start()
        _deliver_as_the_timer_fires(mb, receiver, _Message(0, 7, "photo finish"))
        _joined(receiver)
        assert outcome[0].payload == "photo finish"
        assert not mb._waiters and not mb._messages

    def test_a_lost_timer_race_leaves_the_line_balanced(self):
        """The receiver that loses the race to a sender still owes its
        line a read: it blocks for the byte that is due. Otherwise the
        byte stays in the pipe and the same thread's next park wakes at
        once to an empty slot (a spurious ``CommClosedError``). Here the
        next ``recv`` parks and runs its whole budget."""
        mb = _Mailbox()
        outcome: list = []

        def body() -> None:
            outcome.append(mb.get(0, 7, 0.05))
            t0 = time.monotonic()
            try:
                mb.get(0, 7, 0.05)
            except CommError as exc:
                outcome.append((exc, time.monotonic() - t0))

        receiver = threading.Thread(target=body, daemon=True)
        receiver.start()
        stop_at = time.monotonic() + 10
        while not mb._waiters:
            assert time.monotonic() < stop_at
            time.sleep(0.0005)
        line = mb._waiters[0].line
        _deliver_as_the_timer_fires(mb, receiver, _Message(0, 7, "photo finish"))
        _joined(receiver)
        assert outcome[0].payload == "photo finish"
        second, waited = outcome[1]
        assert not isinstance(second, CommClosedError), "spurious wake-up"
        assert "timed out" in str(second) and waited >= 0.04
        assert not _pending(line)
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
        with mb._mutex:  # what put() does, minus the write
            waiter = mb._waiters.pop(0)
            waiter.msg = _Message(0, 7, "delivered")
        mb.close()
        assert not outcome  # still parked: close() no longer owns it
        assert not _pending(waiter.line)  # and close() wrote it nothing
        waiter.line.wake()
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
    def test_replies_never_wake_the_service_receiver(self, monkeypatch):
        """The daemon's shape: the service thread is parked on
        (ANY_SOURCE, TAG_DAEMON) while a client thread on the same rank
        collects replies on other tags. Every byte written to a wake
        line is a wake-up; 1 000 replies must write none to the service
        receiver's line."""
        mb = _Mailbox()
        service, served = _park(mb, ANY_SOURCE, TAG_DAEMON, timeout=30.0)
        service_waiter = mb._waiters[0]
        written = _count_wakes(monkeypatch)
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
        # never handed anything, never written to: still parked, first
        # in line, and every byte written went to the client's line
        assert not served and service.is_alive()
        assert written[service_waiter.line] == 0
        assert not _pending(service_waiter.line)
        assert service_waiter.msg is None
        assert mb._waiters == [service_waiter]
        assert sum(written.values()) <= n  # at most one per reply
        _put(mb, 2, TAG_DAEMON, "request")
        _joined(service)
        assert served[0].payload == "request"
        assert written[service_waiter.line] == 1


class TestTheWakeIsWrittenOutsideTheMutex:
    def test_put_and_close_write_after_releasing_the_mutex(self, monkeypatch):
        """``os.write`` drops the GIL. Written under the mutex, the byte
        lets the woken thread run into a mutex its waker still holds —
        the home's drain does, and a lone read then costs 5 context
        switches, not 2. So every wake-up, by ``put`` or ``close``, finds
        the mutex free."""
        mb = _Mailbox()
        held: list[bool] = []
        wake = _WakeLine.wake

        def checked(line: _WakeLine) -> None:
            held.append(mb._mutex.locked())
            wake(line)

        monkeypatch.setattr(_WakeLine, "wake", checked)
        thread, outcome = _park(mb, 0, 7)
        _put(mb, 0, 7, "handed over")
        _joined(thread)
        assert outcome[0].payload == "handed over"
        parked = [_park(mb, 0, tag) for tag in (8, 9)]
        mb.close()
        for thread, outcome in parked:
            _joined(thread)
            assert isinstance(outcome[0], CommClosedError)
        assert held == [False, False, False]


def _open_fds() -> int:
    for where in ("/proc/self/fd", "/dev/fd"):
        if os.path.isdir(where):
            return len(os.listdir(where))
    pytest.skip("no per-process descriptor directory on this host")


class TestWakeLines:
    def test_short_lived_receivers_leave_no_descriptor_behind(self):
        """A wake line is two descriptors made at a thread's first park
        and closed with the thread's ``threading.local``: 500
        short-lived receiving threads — half of them timing out, half
        handed a message by ``send`` — leave the process's
        open-descriptor count where it was."""
        mb = _Mailbox()
        world = World(2)
        comm0, comm1 = world.comm(0), world.comm(1)
        timed_out: list[bool] = []
        received: list[int] = []

        def receiver() -> None:
            try:
                mb.get(0, 7, 0.001)
            except CommError as exc:  # keep no traceback: it holds the line
                timed_out.append("timed out" in str(exc))

        def handed(tag: int) -> None:
            received.append(comm0.recv(1, tag=tag, timeout=10))

        before = _open_fds()
        for i in range(250):
            thread = threading.Thread(target=receiver)
            thread.start()
            thread.join()
            thread = threading.Thread(target=handed, args=(i,))
            thread.start()
            stop_at = time.monotonic() + 10
            while not world._mailboxes[0]._waiters:  # the receiver parked
                assert time.monotonic() < stop_at
                time.sleep(0.0001)
            comm1.send(i, 0, tag=i)
            thread.join(10)
        assert timed_out == [True] * 250
        assert received == list(range(250))
        # <=, not ==: a thread another test left parked may exit meanwhile
        assert _open_fds() <= before


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
        # a get on this thread that parks and must run out its budget
        st.tuples(st.just("timed"), _SOURCES, _TAGS),
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


def _received(source: int, tag: int, got: _Message) -> tuple[int, int, int]:
    """What a receive returned, checked to be a message it asked for."""
    msg = (got.source, got.tag, got.payload)
    assert _wants(source, tag, msg), (source, tag, msg)
    return msg


@settings(max_examples=150, deadline=None)
@given(_OPS)
def test_mailbox_matches_list_scan_model(ops):
    """The mailbox against the model, op by op; and no receive ever
    returns — or wakes to an empty slot — without a matching message."""
    mb = _Mailbox()
    model = _Model()
    parked: dict[int, tuple[threading.Thread, list]] = {}
    wanted: dict[int, tuple[int, int]] = {}
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
                assert (got and _received(a, b, got)) == want
            elif op in ("get", "timed"):
                # zero budget: a queued match or an immediate timeout;
                # a small one: a queued match or a park that times out
                want = model.take(a, b)
                budget = 0 if op == "get" else 0.002
                if want is None:
                    with pytest.raises(CommError, match="timed out") as err:
                        mb.get(a, b, budget)
                    assert not isinstance(err.value, CommClosedError)
                else:
                    assert _received(a, b, mb.get(a, b, budget)) == want
            else:
                want = model.take(a, b)
                if want is not None:
                    assert _received(a, b, mb.get(a, b, 5)) == want
                else:
                    serial += 1
                    model.parked.append((a, b, serial))
                    wanted[serial] = (a, b)
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
            assert _received(*wanted[ident], outcome[0]) == msg
    finally:
        mb.close()
    for ident, (thread, outcome) in parked.items():
        _joined(thread)
        if ident not in model.delivered:
            assert isinstance(outcome[0], CommClosedError)
