"""The serve side (:class:`repro.fanstore.serve.PeerServer`), driven
directly with a fake ``answer``: the one-thread rule that admits what
arrives during a serve before the next, the one deadline rule that
ranks every entry, and the stop order that keeps the journal open for
a serve still running.

No verdict here waits on a sleep: every serve is held and released by
hand, every reply is awaited by a receive with a bounded timeout, and
every count follows from the queue's capacity, whatever the
interleaving."""

from __future__ import annotations

import threading
import time
from queue import Queue

import pytest

from repro.comm.communicator import ANY_TAG, World
from repro.fanstore.backend import DiskBackend
from repro.fanstore.daemon import DaemonConfig, DaemonStats, FanStoreDaemon
from repro.fanstore.exchange import TAG_DAEMON
from repro.fanstore.serve import AdmissionQueue, PeerServer
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


def _fetch(
    subject: str, deadline: float | None = None, reply_tag: int = REPLY_TAG
) -> tuple:
    body = Request(
        subject=subject, reply_tag=reply_tag, deadline=deadline, epoch=None
    ).encode()
    return ("fetch", body)


class TestOneThreadRule:
    def test_arrivals_during_a_serve_are_admitted_before_the_next(self):
        """Every serve is held until the test releases it. What arrives
        while one request is served waits in the mailbox; before the
        next serve the loop admits all of it, telling the overflow
        ``OVERLOAD`` nearest deadline first, and an entry that expired
        in the queue is dropped unserved. The requests answer on tags
        of their own, so the reply order on the asker is the loop's
        order of sends."""
        capacity = 3
        entered: Queue[str] = Queue()
        gate = threading.Semaphore(0)
        seen: list[tuple[str, int, int]] = []
        world = World(2)
        home, asker = world.comm(0), world.comm(1)

        def held_answer(kind, subject, epoch, span):
            seen.append(
                (subject, server.stats.shed_requests, server._queue_depth)
            )
            entered.put(subject)
            assert gate.acquire(timeout=WAIT_S)
            return Reply.OK, subject

        server = _server(home, held_answer, capacity)
        tags = {}

        def send(subject: str, deadline: float | None = None) -> None:
            tags[subject] = REPLY_TAG + len(tags)
            asker.send(_fetch(subject, deadline, tags[subject]), 0, TAG_DAEMON)

        def serving(subject: str) -> None:
            assert entered.get(timeout=WAIT_S) == subject

        # alone in the mailbox: served straight off its receive
        send("r0")
        server.start()
        try:
            serving("r0")
            # arrive during r0's serve; a2 and a4 carry the nearest
            # deadlines, so the two arrivals past capacity shed them
            at = time.monotonic() + 600
            for subject, offset in (
                ("a1", 3), ("a2", 1), ("a3", 5), ("a4", 2), ("a5", 4)
            ):
                send(subject, at + offset)
            gate.release()
            serving("a1")
            # expired on arrival, and the queue has room: admitted, not
            # shed, then dropped when its turn comes
            send("expired", time.monotonic() - 1.0)
            gate.release()
            serving("a3")
            gate.release()
            serving("a5")
            gate.release()
            send("last")  # answered after the drop: the loop passed it
            serving("last")
            gate.release()
            replies = [
                asker.recv_with_status(0, ANY_TAG, timeout=WAIT_S)
                for _ in range(7)
            ]
            assert not asker.iprobe(0, ANY_TAG)
        finally:
            for _ in range(8):
                gate.release()
            server.stop()
            world.close()
        by_tag = {tag: subject for subject, tag in tags.items()}
        assert [(by_tag[tag], reply[0]) for reply, _src, tag in replies] == [
            ("r0", Reply.OK),
            ("a2", Reply.OVERLOAD),
            ("a4", Reply.OVERLOAD),
            ("a1", Reply.OK),
            ("a3", Reply.OK),
            ("a5", Reply.OK),
            ("last", Reply.OK),
        ]
        # (subject, shed so far, queue depth before its pop): both sheds
        # came before a1's serve, and "expired" was queued before a3's
        assert seen[:4] == [
            ("r0", 0, 0), ("a1", 2, 3), ("a3", 2, 3), ("a5", 2, 2)
        ]
        assert server.stats.shed_requests == 2
        assert server.stats.deadline_expired_drops == 1


class TestStopOrder:
    def test_a_serve_running_at_stop_writes_through_an_open_journal(
        self, tmp_path
    ):
        """``FanStoreDaemon.stop`` stops serving before it closes the
        journal: a request whose answer is still running when ``stop``
        begins can write back (a repair, a degraded-read promote). The
        held answer is released by whichever comes first, the server's
        stop or the journal's close, so the other order fails here."""
        world = World(2)
        daemon = FanStoreDaemon(
            world.comm(0), backend=DiskBackend(tmp_path / "store"),
            journal_dir=tmp_path / "journal",
        )
        entered, release = threading.Event(), threading.Event()
        journal_open: list[bool] = []

        def held_answer(kind, subject, epoch, span):
            entered.set()
            assert release.wait(WAIT_S)
            journal_open.append(not daemon.journal.closed)
            daemon._durable_put("promote", subject, b"written back")
            return Reply.OK, subject

        server, journal = daemon.server, daemon.journal
        stop_server, close_journal = server.stop, journal.close

        def server_stop():
            release.set()
            stop_server()

        def journal_close():
            close_journal()
            release.set()

        server._answer = held_answer
        server.stop, journal.close = server_stop, journal_close
        daemon.start()
        try:
            world.comm(1).send(_fetch("train/x"), 0, TAG_DAEMON)
            assert entered.wait(WAIT_S)
            daemon.stop()
            # stop() returned: the serve is over, its reply sent or not
            reply = world.comm(1).try_recv(0, REPLY_TAG)
        finally:
            release.set()
            daemon.stop()
            world.close()
        assert journal_open == [True]
        assert reply is not None and tuple(reply[0]) == (Reply.OK, "train/x")
        assert daemon.stats.malformed_requests == 0
        assert daemon.backend.get("train/x") == b"written back"


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
