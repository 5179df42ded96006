"""The serve side (:class:`repro.fanstore.serve.PeerServer`), driven
directly with a fake ``answer``: what keeps admission control alive
under a stalled pool, and the one deadline rule that ranks every entry.

No verdict here waits on a sleep: every reply is awaited by a receive
with a bounded timeout, and every count follows from the queue's
capacity and :data:`MAX_INFLIGHT`, whatever the interleaving."""

from __future__ import annotations

import threading
import time

import pytest

from repro.comm.communicator import World
from repro.fanstore.daemon import DaemonConfig, DaemonStats
from repro.fanstore.exchange import TAG_DAEMON
from repro.fanstore.serve import MAX_INFLIGHT, AdmissionQueue, PeerServer
from repro.fanstore.wire import Reply, Request
from repro.obs.metrics import MetricsRegistry
from repro.obs.tracing import Tracer
from tests.fanstore.test_pipeline import _Outbox

REPLY_TAG = 0x1234
#: generous: a reply that is due arrives in milliseconds
WAIT_S = 10.0


def _server(comm, answer, max_queue_depth: int) -> PeerServer:
    return PeerServer(
        comm, DaemonConfig(max_queue_depth=max_queue_depth), DaemonStats(),
        Tracer(rank=comm.rank if comm else 0), MetricsRegistry(),
        answer=answer,
    )


def _fetch(subject: str, deadline: float | None = None) -> tuple:
    body = Request(
        subject=subject, reply_tag=REPLY_TAG, deadline=deadline, epoch=None
    ).encode()
    return ("fetch", body)


class TestStalledPool:
    def test_admission_sheds_while_the_pool_is_stalled(self):
        """The pool holds :data:`MAX_INFLIGHT` requests that cannot
        finish, and the loop holds one more. Every request past the
        queue's capacity must still be told ``OVERLOAD`` *before* the
        pool moves again; after it moves, every admitted request is
        answered. A loop that blocked on a free in-flight slot would
        stop draining its mailbox, and no shed reply would come."""
        capacity = MAX_INFLIGHT + 8
        held = MAX_INFLIGHT + 1  # in the pool, plus the one the loop holds
        shed = 5
        release = threading.Event()
        answered: list[str] = []

        def stalled_answer(kind, subject, epoch, span):
            assert release.wait(60)
            answered.append(subject)
            return Reply.OK, subject

        world = World(2)
        home, asker = world.comm(0), world.comm(1)
        server = _server(home, stalled_answer, capacity)
        # queued before the loop runs: its first pass admits them all,
        # so none is served inline and the pool takes them in order
        first = [f"first/{i}" for i in range(capacity)]
        for path in first:
            asker.send(_fetch(path), 0, TAG_DAEMON)
        server.start()
        try:
            # the loop dispatched MAX_INFLIGHT and popped one more; what
            # arrives from here on is drained only by the spin that
            # waits for a free slot
            give_up = time.monotonic() + WAIT_S
            while not (
                server._inflight == MAX_INFLIGHT
                and server._queue_depth == capacity - MAX_INFLIGHT
            ):
                assert time.monotonic() < give_up, "the pool never filled"
                time.sleep(0)
            # later deadlines than the first wave's (none): overflow
            # sheds these, earliest deadline first
            at = time.monotonic() + 600
            more = [f"more/{i}" for i in range(held + shed)]
            for i, path in enumerate(more):
                asker.send(_fetch(path, at + i), 0, TAG_DAEMON)
            for _ in range(shed):
                status, _retry_after = asker.recv(
                    0, REPLY_TAG, timeout=WAIT_S
                )
                assert status == Reply.OVERLOAD
            assert not answered and server.stats.shed_requests == shed
            release.set()
            replies = [
                asker.recv(0, REPLY_TAG, timeout=WAIT_S)
                for _ in range(capacity + held)
            ]
        finally:
            release.set()
            server.stop()
            world.close()
        assert {status for status, _ in replies} == {Reply.OK}
        assert sorted(path for _, path in replies) == sorted(
            first + more[shed:]
        )
        assert server.stats.shed_requests == shed


def _never_answered(kind, subject, epoch, span):
    raise AssertionError("admission answers nothing")


class TestOneDeadlineRule:
    @pytest.mark.parametrize("kind", ["batch", "fetch"])
    def test_an_envelope_is_shed_by_its_own_deadline(self, kind):
        """A batch envelope whose items outlive it is ranked by the
        envelope's deadline — the one its requester listens until — the
        same as a classic request: with one slot, the nearer deadline
        is shed and the later one stays queued."""
        now = time.monotonic()
        outbox = _Outbox()
        server = _server(outbox, _never_answered, 1)
        queue = AdmissionQueue(1)
        items = (("fetch", "a", now + 100.0), ("fetch", "b", now + 100.0))
        near = Request(
            subject=None if kind == "batch" else "a", reply_tag=7,
            deadline=now + 10.0, epoch=None,
            batch=items if kind == "batch" else None,
        ).encode()
        later = Request(
            subject="c", reply_tag=8, deadline=now + 20.0, epoch=None
        ).encode()
        assert not server._admit(queue, ((kind, near), 1, TAG_DAEMON))
        assert not server._admit(queue, (("fetch", later), 1, TAG_DAEMON))
        assert [(payload[0], tag) for payload, _dest, tag in outbox.sent] == [
            (Reply.OVERLOAD, 7)
        ]
        assert server.stats.shed_requests == 1
        survivor_kind, survivor, _source = queue.pop()
        assert (survivor_kind, survivor.subject) == ("fetch", "c")
