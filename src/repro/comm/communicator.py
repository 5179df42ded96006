"""A thread-per-rank, MPI-like communicator.

FanStore's four communication sites (§V-D: metadata allgather, extra-
partition ring copy, remote file retrieval, write-metadata forwarding)
run over MPI in the paper. This module provides the in-process
equivalent: a :class:`World` holding the shared rendezvous state and a
:class:`Communicator` handle per rank, with mpi4py-style lowercase
methods (arbitrary picklable payloads — here passed by reference, since
ranks share one address space and FanStore only ships immutable bytes).

Semantics implemented:

- tagged point-to-point ``send``/``recv`` with ``ANY_SOURCE``/``ANY_TAG``
  wildcards and FIFO ordering per (source, tag) pair, plus the
  non-blocking ``try_recv`` and ``iprobe``;
- the collectives FanStore and the trainer use: ``barrier``,
  ``allgather`` and ``allreduce`` — all ranks must call them in the
  same order (the MPI contract); a per-rank sequence number enforces
  pairing across concurrent collectives.

Deadlock safety: every blocking call accepts a ``timeout`` (seconds) and
raises :class:`~repro.errors.CommError` on expiry, so a test that
mis-pairs operations fails instead of hanging.

Delivery is a direct hand-off (:class:`_Mailbox`): ``send`` gives the
message to the one parked ``recv`` it matches and wakes only that
thread, so a remote file retrieval costs two thread wake-ups — the
serving daemon for the request, the waiting client for the reply —
like the single MPI round trip it stands for (§V-D site 3).

A parked receiver sleeps on its thread's *wake line* (:class:`_WakeLine`,
an ``os.pipe`` watched by ``select.poll``, made at the thread's first
park and closed with its ``threading.local``). The sender takes the
receiver off the mailbox under the mutex and writes the one wake-up byte
after leaving it. ``os.write`` drops the GIL for the syscall, so the
woken thread takes the GIL and runs at once: one context switch per hop.
A lock released while the sender holds the GIL wakes a thread that
cannot run yet; it sleeps again until the sender blocks, and a round
trip costs six switches instead of two. Every wake-up byte is consumed
by exactly one park, so a line is empty whenever its thread is not
parked. The comm layer therefore needs ``select.poll``: POSIX hosts.
"""

from __future__ import annotations

import os
import select
import threading
from typing import Any, Callable

from repro.errors import CommClosedError, CommError, RankError

#: wildcard constants (mirroring MPI).
ANY_SOURCE = -1
ANY_TAG = -1

_DEFAULT_TIMEOUT = 60.0


class _Message:
    """One delivered message: who sent it, on which tag, what."""

    __slots__ = ("source", "tag", "payload")

    def __init__(self, source: int, tag: int, payload: Any) -> None:
        self.source = source
        self.tag = tag
        self.payload = payload


def _recv_timed_out(source: int, tag: int, timeout: float) -> CommError:
    return CommError(
        f"recv(source={source}, tag={tag}) timed out after {timeout}s"
    )


class _WakeLine:
    """One receiving thread's wake line: a pipe and a poll on its read
    end. Whoever takes the thread's waiter off a mailbox's list writes
    exactly one byte; every park reads exactly one, so the pipe is empty
    whenever its thread is not parked. Both ends are closed when the
    line is dropped, i.e. with its thread's ``threading.local``."""

    __slots__ = ("rfd", "wfd", "_poll")

    def __init__(self) -> None:
        self.rfd, self.wfd = os.pipe()
        self._poll = select.poll()
        self._poll.register(self.rfd, select.POLLIN)

    # The syscalls are the ones bound at import (here and in
    # ``__del__``): FanStore's own I/O never runs through an ``os``
    # function that ``intercept()`` has since replaced.

    def wake(self, _write=os.write) -> None:
        # a syscall that drops the GIL: the woken thread runs at once
        _write(self.wfd, b"\0")

    def wait(self, timeout: float | None, _read=os.read) -> bool:
        """Park until the byte arrives (True, byte consumed) or
        ``timeout`` seconds pass (False, nothing consumed)."""
        if not self._poll.poll(None if timeout is None else timeout * 1e3):
            return False
        _read(self.rfd, 1)
        return True

    def __del__(self, _close=os.close) -> None:
        _close(self.rfd)
        _close(self.wfd)


#: each thread's wake line, made at its first park
_lines = threading.local()


class _Waiter:
    """One parked receiver: what it wants, its thread's wake line, and
    the slot a sender fills before waking that line."""

    __slots__ = ("source", "tag", "line", "msg")

    def __init__(self, source: int, tag: int) -> None:
        self.source = source
        self.tag = tag
        try:
            self.line: _WakeLine = _lines.line
        except AttributeError:
            self.line = _lines.line = _WakeLine()
        self.msg: _Message | None = None


class _Mailbox:
    """Per-rank tagged message store with wildcard matching, built as a
    direct hand-off rendezvous.

    State is one mutex, the arrival-ordered queue of undelivered
    messages and the arrival-ordered list of parked receivers. A
    receiver that finds no queued match registers a :class:`_Waiter`
    and sleeps on its thread's wake line *outside* the mutex; ``put``
    gives a message straight to the oldest parked receiver it matches
    (take the waiter off the list, fill its slot) and queues it only
    when nobody wants it. So a message wakes exactly the thread that
    consumes it — a reply landing here never disturbs the service
    thread parked on the request tag — and nobody re-scans the queue
    after waking.

    Invariants: a waiter is parked only while no queued message matches
    it (it registers under the mutex after scanning the queue, and
    ``put`` prefers waiters to the queue), so hand-off cannot overtake
    an older queued message and FIFO per (source, tag) holds. Every
    waiter taken off the list by ``put`` or ``close`` is sent exactly
    one byte, after the mutex is released, and every park consumes
    exactly one.
    """

    def __init__(self) -> None:
        self._mutex = threading.Lock()
        self._messages: list[_Message] = []
        self._waiters: list[_Waiter] = []
        self._closed = False

    def put(self, msg: _Message) -> None:
        with self._mutex:
            if self._closed:
                raise CommClosedError("mailbox closed")
            for i, waiter in enumerate(self._waiters):
                if waiter.source not in (ANY_SOURCE, msg.source):
                    continue
                if waiter.tag not in (ANY_TAG, msg.tag):
                    continue
                del self._waiters[i]
                waiter.msg = msg
                break
            else:
                self._messages.append(msg)
                return
        waiter.line.wake()

    def get(
        self, source: int, tag: int, timeout: float | None
    ) -> _Message:
        with self._mutex:
            # the oldest queued match (``try_get`` scans the same way)
            for i, msg in enumerate(self._messages):
                if (
                    source in (ANY_SOURCE, msg.source)
                    and tag in (ANY_TAG, msg.tag)
                ):
                    return self._messages.pop(i)
            if self._closed:
                raise CommClosedError("world torn down during recv")
            # a spent budget must not reach poll(): it reads a
            # negative timeout as "forever"
            if timeout is not None and timeout <= 0:
                raise _recv_timed_out(source, tag, timeout)
            waiter = _Waiter(source, tag)
            self._waiters.append(waiter)
        if not waiter.line.wait(timeout):
            with self._mutex:
                # The timer can fire together with a sender (or close):
                # whoever takes the waiter off the list under the mutex
                # wins, so a delivered message is never dropped.
                if waiter in self._waiters:
                    self._waiters.remove(waiter)
                    raise _recv_timed_out(source, tag, timeout)
            # a sender or close() won, and its byte is due: take it, so
            # this thread's next park does not wake to a stale one
            waiter.line.wait(None)
        if waiter.msg is None:
            raise CommClosedError("world torn down during recv")
        return waiter.msg

    def try_get(self, source: int, tag: int) -> _Message | None:
        """Non-blocking matching receive; None when nothing matches."""
        with self._mutex:
            for i, msg in enumerate(self._messages):
                if (
                    source in (ANY_SOURCE, msg.source)
                    and tag in (ANY_TAG, msg.tag)
                ):
                    return self._messages.pop(i)
            if self._closed:
                raise CommClosedError("mailbox closed")
            return None

    def close(self) -> None:
        """Refuse further mail and wake every parked receiver, which
        then raises :class:`CommClosedError` (its slot is empty). Queued
        messages stay receivable."""
        with self._mutex:
            self._closed = True
            parked, self._waiters = self._waiters, []
        for waiter in parked:
            waiter.line.wake()

    def reopen(self) -> None:
        """Re-arm a closed mailbox for a relaunched rank. Stale mail
        addressed to the previous incarnation is discarded — a fresh
        process must not consume a corpse's backlog."""
        with self._mutex:
            self._closed = False
            self._messages.clear()


class _CollectiveSlot:
    """Rendezvous buffer for one collective invocation (one seq number)."""

    def __init__(self, size: int) -> None:
        self.cond = threading.Condition()
        self.values: dict[int, Any] = {}
        self.size = size
        self.departed = 0
        self.closed = False

    def deposit_and_wait(self, rank: int, value: Any, timeout: float | None) -> dict:
        with self.cond:
            self.values[rank] = value
            self.cond.notify_all()
            if not self.cond.wait_for(
                lambda: self.closed or len(self.values) == self.size, timeout
            ):
                raise CommError(
                    f"collective timed out ({len(self.values)}/{self.size} arrived)"
                )
            if self.closed and len(self.values) != self.size:
                raise CommClosedError("world torn down during collective")
            return self.values

    def close(self) -> None:
        with self.cond:
            self.closed = True
            self.cond.notify_all()


class World:
    """Shared state for a group of ``size`` ranks."""

    def __init__(self, size: int) -> None:
        if size < 1:
            raise RankError(f"world size must be >= 1, got {size}")
        self.size = size
        self._mailboxes = [_Mailbox() for _ in range(size)]
        self._coll_lock = threading.Lock()
        self._coll_slots: dict[int, _CollectiveSlot] = {}
        self._closed = False

    def comm(self, rank: int) -> "Communicator":
        """The communicator handle for ``rank``."""
        if not 0 <= rank < self.size:
            raise RankError(f"rank {rank} outside [0, {self.size})")
        return Communicator(self, rank)

    def comms(self) -> list["Communicator"]:
        """Handles for every rank, index = rank."""
        return [self.comm(r) for r in range(self.size)]

    def _collective_slot(self, seq: int) -> _CollectiveSlot:
        with self._coll_lock:
            slot = self._coll_slots.get(seq)
            if slot is None:
                slot = _CollectiveSlot(self.size)
                if self._closed:  # late arrival after teardown
                    slot.closed = True
                self._coll_slots[seq] = slot
            return slot

    def _retire_slot(self, seq: int) -> None:
        with self._coll_lock:
            slot = self._coll_slots.get(seq)
            if slot is None:
                return
            slot.departed += 1
            if slot.departed == self.size:
                del self._coll_slots[seq]

    def close(self) -> None:
        """Tear down: unblocks pending recvs *and* collectives with
        CommClosedError (a failed rank must not leave its peers parked
        at an allreduce until timeout)."""
        self._closed = True
        for mb in self._mailboxes:
            mb.close()
        with self._coll_lock:
            slots = list(self._coll_slots.values())
        for slot in slots:
            slot.close()


class Communicator:
    """One rank's endpoint into a :class:`World`.

    Each rank must use its communicator from a single thread (collective
    sequence numbers are per-handle state), matching how one FanStore
    daemon process uses MPI.
    """

    def __init__(self, world: World, rank: int) -> None:
        self.world = world
        self.rank = rank
        self._coll_seq = 0

    @property
    def size(self) -> int:
        return self.world.size

    def _check_rank(self, rank: int) -> None:
        if not 0 <= rank < self.world.size:
            raise RankError(f"rank {rank} outside [0, {self.world.size})")

    # -- point to point ---------------------------------------------------
    #
    # Each call tests its rank inline and calls ``_check_rank`` only to
    # raise: a valid rank costs no extra frame on either side of a hop.

    def send(self, payload: Any, dest: int, tag: int = 0) -> None:
        """Deliver ``payload`` to ``dest``'s mailbox (eager, non-blocking
        in practice since mailboxes are unbounded)."""
        world = self.world
        if not 0 <= dest < world.size:
            self._check_rank(dest)
        if tag < 0:
            raise CommError(f"tag must be >= 0, got {tag}")
        world._mailboxes[dest].put(_Message(self.rank, tag, payload))

    def recv(
        self,
        source: int = ANY_SOURCE,
        tag: int = ANY_TAG,
        timeout: float | None = _DEFAULT_TIMEOUT,
    ) -> Any:
        """Receive one matching message's payload."""
        world = self.world
        if source != ANY_SOURCE and not 0 <= source < world.size:
            self._check_rank(source)
        return world._mailboxes[self.rank].get(source, tag, timeout).payload

    def recv_with_status(
        self,
        source: int = ANY_SOURCE,
        tag: int = ANY_TAG,
        timeout: float | None = _DEFAULT_TIMEOUT,
    ) -> tuple[Any, int, int]:
        """Like :meth:`recv` but also returns ``(payload, source, tag)``."""
        world = self.world
        if source != ANY_SOURCE and not 0 <= source < world.size:
            self._check_rank(source)
        msg = world._mailboxes[self.rank].get(source, tag, timeout)
        return msg.payload, msg.source, msg.tag

    def try_recv(
        self, source: int = ANY_SOURCE, tag: int = ANY_TAG
    ) -> tuple[Any, int, int] | None:
        """Non-blocking receive: ``(payload, source, tag)`` of one
        matching message, or None when none is queued. This is the
        heartbeat drain primitive — a failure detector must poll its tag
        space without parking a thread per peer."""
        world = self.world
        if source != ANY_SOURCE and not 0 <= source < world.size:
            self._check_rank(source)
        msg = world._mailboxes[self.rank].try_get(source, tag)
        if msg is None:
            return None
        return msg.payload, msg.source, msg.tag

    def iprobe(self, source: int = ANY_SOURCE, tag: int = ANY_TAG) -> bool:
        """True when a matching message is queued for this rank, without
        receiving it (MPI's ``Iprobe``). It reads the queue without the
        mailbox mutex, so a message arriving during the call may or may
        not be seen: a False means only that nothing matched a moment
        ago, which is all a caller deciding "idle?" needs. It scans a
        snapshot (one C call under the GIL): another thread of this
        rank receiving an older message mid-scan shifts the live list,
        which would skip a message queued before the call."""
        for msg in tuple(self.world._mailboxes[self.rank]._messages):
            if (
                tag in (ANY_TAG, msg.tag)
                and source in (ANY_SOURCE, msg.source)
            ):
                return True
        return False

    # -- collectives -------------------------------------------------------

    def _exchange(self, value: Any, timeout: float | None) -> dict[int, Any]:
        seq = self._coll_seq
        self._coll_seq += 1
        slot = self.world._collective_slot(seq)
        values = slot.deposit_and_wait(self.rank, value, timeout)
        result = dict(values)
        self.world._retire_slot(seq)
        return result

    def barrier(self, timeout: float | None = _DEFAULT_TIMEOUT) -> None:
        """Block until every rank has arrived."""
        self._exchange(None, timeout)

    def allgather(
        self, value: Any, timeout: float | None = _DEFAULT_TIMEOUT
    ) -> list[Any]:
        """Every rank contributes one value; all receive the rank-ordered
        list. This is the §IV-C1 global-metadata-view primitive."""
        values = self._exchange(value, timeout)
        return [values[r] for r in range(self.size)]

    def allreduce(
        self,
        value: Any,
        op: Callable[[Any, Any], Any],
        timeout: float | None = _DEFAULT_TIMEOUT,
    ) -> Any:
        """Reduce then deliver to all ranks — the gradient-averaging
        primitive of data-parallel training (§II-A)."""
        values = self._exchange(value, timeout)
        acc = values[0]
        for r in range(1, self.size):
            acc = op(acc, values[r])
        return acc
