"""Serving the peers: the serve side of the daemon protocol (§V-A,
§V-D site 3).

In the paper each node runs one daemon that answers its peers' fetches
over MPI. :class:`PeerServer` owns every decision about *how* a peer's
request is served: receive, decode, the bounded admission queue and its
shedding, the one service thread that serves every request, deadline
drops, span adoption and the batch envelope. The daemon keeps *what*
each kind is answered with and lends the server that one callable,
``answer``.

Message protocol (all on ``TAG_DAEMON``; replies on caller-chosen tags):

=========== ======================================== ===============================
kind        payload                                  reply
=========== ======================================== ===============================
fetch       Request envelope (subject = path)        (OK, compressed) | (MISS, path)
stat        Request envelope (subject = path)        (OK, FileRecord) | (MISS, None)
write_meta  Request envelope (subject = FileRecord)  (OK, None) | (FENCED, epoch)
batch       Request envelope (batch = item triples)  (BATCH, item replies)
stop        —                                        —
=========== ======================================== ===============================

Every reply is a ``(status, value)`` pair with a
:class:`repro.fanstore.wire.Reply` status. A body that is not a
:class:`repro.fanstore.wire.Request` envelope is counted in
``malformed_requests`` and dropped. A traced requester's context is
adopted. One deadline rule covers every entry, a batch envelope
included: its own ``deadline`` ranks it for shedding on overflow
(answered ``(OVERLOAD, retry_after_s)``) and drops it unserved once
expired; a batch's ``(kind, subject, deadline)`` items are checked
again one by one as they are served. A ``write_meta`` carrying a stale
fencing epoch is answered ``(FENCED, server_epoch)``, not applied.
"""

from __future__ import annotations

import logging
import sys
import threading
import time
from typing import TYPE_CHECKING, Any, Callable

from repro.comm.communicator import ANY_SOURCE, Communicator
from repro.comm.deadline import wire_deadline
from repro.errors import (
    CommClosedError,
    CommError,
    FanStoreError,
    WireFormatError,
)
from repro.fanstore.exchange import OVERLOAD_RETRY_AFTER_S, TAG_DAEMON
from repro.fanstore.wire import (
    Reply,
    Request,
    decode_request,
    encode_batch_reply,
)
from repro.obs.metrics import MetricsRegistry
from repro.obs.tracing import NULL_SPAN, Tracer

if TYPE_CHECKING:
    from repro.fanstore.daemon import DaemonConfig, DaemonStats

#: service-thread join budget at :meth:`PeerServer.stop`, deliberately
#: not ``request_timeout`` (a 30 s request must not hang shutdown).
_SHUTDOWN_TIMEOUT = 5.0

_LOG = logging.getLogger(__name__)

#: what :meth:`PeerServer._decode` returns for a ``stop`` request
_STOP = ("stop", None, None)


class AdmissionQueue:
    """The daemon's bounded request queue: FIFO service order,
    oldest-deadline-first shedding on overflow.

    Entries are opaque to the queue; the deadline is passed alongside
    (None = no deadline, shed last and oldest-arrival-first among
    themselves). Single-consumer (the service thread) — no lock."""

    def __init__(self, capacity: int) -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self._seq = 0
        self._items: list[tuple[float, int, Any]] = []  # (deadline, seq, item)

    def __len__(self) -> int:
        return len(self._items)

    def push(self, item: Any, deadline_at: float | None = None) -> list[Any]:
        """Enqueue; returns the entries shed to stay within capacity
        (possibly including ``item`` itself when it carries the nearest
        deadline of a full queue)."""
        self._seq += 1
        key = float("inf") if deadline_at is None else deadline_at
        self._items.append((key, self._seq, item))
        shed: list[Any] = []
        while len(self._items) > self.capacity:
            victim = min(
                range(len(self._items)),
                key=lambda i: (self._items[i][0], self._items[i][1]),
            )
            shed.append(self._items.pop(victim)[2])
        return shed

    def pop(self) -> Any | None:
        """Next entry in arrival order, or None when empty. ``push``
        appends in arrival order and shedding removes without
        reordering, so the head is always the oldest entry."""
        if not self._items:
            return None
        return self._items.pop(0)[2]


class PeerServer:
    """How one rank serves its peers: the service thread and everything
    it decides. ``answer`` is the daemon's reply to one request kind."""

    def __init__(
        self, comm: Communicator | None, config: DaemonConfig,
        stats: DaemonStats, tracer: Tracer, metrics: MetricsRegistry, *,
        answer: Callable[[str, Any, int | None, Any], tuple[str, Any] | None],
    ) -> None:
        self.comm = comm
        self.config = config
        self.stats = stats
        self.tracer = tracer
        self.rank = comm.rank if comm else 0
        self._answer = answer
        self._service_thread: threading.Thread | None = None
        self._m_batch_served = metrics.counter("daemon.batch.served")
        self._queue_depth = 0  # service-loop backlog, sampled per drain
        metrics.bind_gauge("daemon.queue_depth", self, "_queue_depth")

    def start(self) -> None:
        """Start the service thread (no-op single-node or running)."""
        if self.comm is None or self._service_thread is not None:
            return
        self._service_thread = threading.Thread(
            target=self._serve, name=f"fanstore-daemon-{self.rank}", daemon=True
        )
        self._service_thread.start()

    def stop(self) -> None:
        """Stop the service loop (idempotent). Every request is served
        on the service thread, so once it has joined nothing is being
        served. Shutdown gets its own bounded budget
        (:data:`_SHUTDOWN_TIMEOUT`). A service thread that misses it is
        logged and leaked: it is a daemon thread, so it cannot outlive
        the process."""
        if self.comm is None or self._service_thread is None:
            return
        self.comm.send(("stop", None), self.rank, TAG_DAEMON)
        thread = self._service_thread
        thread.join(timeout=_SHUTDOWN_TIMEOUT)
        if thread.is_alive():
            _LOG.warning(
                "rank %d: daemon service thread still running %.1fs after "
                "stop; leaking it (daemon thread — dies with the process)",
                self.rank, _SHUTDOWN_TIMEOUT,
            )
        self._service_thread = None

    def _serve(self) -> None:
        """The service loop: every request is served on this thread. A
        request that finds nothing else waiting in the mailbox is
        decoded and answered straight off its receive: there is nothing
        for admission to rank or shed. Anything else is a backlog: the
        loop admits what has arrived (parse → bounded queue, shedding
        overflow), serves the oldest entry, and admits again before
        serving the next, until the queue is empty. The price: while one
        request is served, nothing else is admitted or shed."""
        comm = self.comm
        assert comm is not None
        queue = AdmissionQueue(self.config.max_queue_depth)
        while True:
            try:
                msg = comm.recv_with_status(
                    ANY_SOURCE, TAG_DAEMON, timeout=None
                )
            except (CommClosedError, CommError):
                return
            entry = self._decode(msg)
            if entry is None:
                continue
            if entry is _STOP:
                return
            # The idle decision, before admission: no other request
            # queued means nothing competes with this one — serve it
            # here, with no queue push/pop and no drain. The probe is
            # racy on purpose: a request queued a moment after it is
            # received next.
            if not comm.iprobe(ANY_SOURCE, TAG_DAEMON):
                if not self._serve_one(entry):
                    return
                continue
            if self._enqueue(queue, entry):
                return
            # A backlog: admit whatever else already arrived before each
            # serve — admission control can only shed backlog it can
            # see — until the queue is empty again.
            while len(queue):
                if self._drain(queue):
                    return
                self._queue_depth = len(queue)
                if not self._serve_one(queue.pop()):
                    return

    def _drain(self, queue: AdmissionQueue) -> bool:
        """Admit what already arrived; True when the loop must exit."""
        while True:
            try:
                msg = self.comm.try_recv(ANY_SOURCE, TAG_DAEMON)
            except (CommClosedError, CommError):
                return True
            if msg is None:
                return False
            if self._admit(queue, msg):
                return True

    def _decode(self, msg: tuple) -> tuple | None:
        """One received message as an entry ``(kind, request, source)``,
        :data:`_STOP` for a stop request, or None for a malformed one
        (counted in ``malformed_requests``).

        A malformed message must not kill the service loop — the daemon
        outlives misbehaving clients (it answers to every peer, not just
        the sender). Bodies decode through
        :func:`repro.fanstore.wire.decode_request`; anything that is
        not a request envelope is malformed."""
        payload, source, _tag = msg
        try:
            kind, body = payload
        except (TypeError, ValueError):
            self.stats.malformed_requests += 1
            return None
        if kind not in ("fetch", "stat", "write_meta", "batch"):
            if kind == "stop":
                return _STOP
            self.stats.malformed_requests += 1
            return None
        try:
            return kind, decode_request(body), source
        except (WireFormatError, TypeError, ValueError):
            self.stats.malformed_requests += 1
            return None

    def _admit(self, queue: AdmissionQueue, msg: tuple) -> bool:
        """Decode one message into the admission queue
        (:meth:`_decode`, :meth:`_enqueue`). Returns True when the
        service loop must exit (stop request, or the world tore down
        under a shed reply)."""
        entry = self._decode(msg)
        if entry is None:
            return False
        return entry is _STOP or self._enqueue(queue, entry)

    def _enqueue(self, queue: AdmissionQueue, entry: tuple) -> bool:
        """Push one entry, shedding overflow with overload replies;
        True when the world tore down under a shed reply.

        One deadline rule: every entry, a batch envelope included, is
        ranked for shedding by its own ``deadline`` — the one its
        requester listens until, and the one :meth:`_serve_one` drops
        it by. A batch's per-item expiries are checked only when its
        items are served.
        """
        shed = queue.push(entry, entry[1].deadline)
        overloaded = (Reply.OVERLOAD, OVERLOAD_RETRY_AFTER_S)
        for _, victim, victim_source in shed:
            self.stats.shed_requests += 1
            try:
                self.comm.send(overloaded, victim_source, victim.reply_tag)
            except (CommClosedError, CommError):
                return True
        return False

    def _serve_one(self, entry: tuple) -> bool:
        """Serve one admitted request — a batch envelope with one batch
        reply, anything else with the daemon's ``answer`` (if any), on the
        request's reply tag. False ends the service loop.

        An untraced request enters no span. A traced one is answered
        inside the span adopted from the requester's context, entered
        and exited by hand so both cases share the answering lines: an
        exception leaving them marks the span as ``with`` would."""
        kind, request, source = entry
        deadline_at = request.deadline
        if deadline_at is not None and time.monotonic() >= deadline_at:
            # the requester has already timed out and walked away:
            # serving — or even refusing — would be work for nobody
            self.stats.deadline_expired_drops += 1
            return True
        span = NULL_SPAN
        try:
            if request.trace_ctx is not None:
                # Joining the requester's trace: a malformed context
                # yields NULL_SPAN, never an error — tracing must not
                # change what gets served.
                span = self.tracer.adopt(
                    request.trace_ctx, f"daemon.serve.{kind}", source=source
                )
                if kind in ("fetch", "stat"):
                    span.tag(path=request.subject)
                span.__enter__()
            try:
                if kind == "batch":
                    self._serve_batch(request, source)
                else:
                    answer = self._answer(
                        kind, request.subject, request.epoch, span
                    )
                    if answer is not None:
                        self.comm.send(answer, source, request.reply_tag)
            finally:
                if span is not NULL_SPAN:
                    span.__exit__(*sys.exc_info())
        except (CommClosedError, CommError):
            # replying to a torn-down world (or after our own
            # injected death) ends the service loop — a crashed
            # daemon stops serving
            return False
        except (FanStoreError, TypeError, ValueError, AttributeError):
            # a well-framed envelope around a nonsense subject (bad
            # path type, bogus write_meta record) is still malformed
            self.stats.malformed_requests += 1
        return True

    def _serve_batch(self, request: Request, source: int) -> None:
        """Serve one batched flush: every item in order, each with its
        own deadline check and error isolation (one poisoned item fails
        only its own waiter), answered as a single batch reply on the
        envelope's tag."""
        replies = [
            self._serve_batch_item(item) for item in (request.batch or ())
        ]
        self._m_batch_served.inc()
        self.comm.send(
            encode_batch_reply(replies), source, request.reply_tag
        )

    def _serve_batch_item(self, item: Any) -> Reply:
        """One batch item → one item reply; never raises (comm errors
        excepted — those belong to the envelope send)."""
        try:
            kind, subject, expiry = item
        except (TypeError, ValueError):
            self.stats.malformed_requests += 1
            return Reply(Reply.FAILED, None)
        try:
            expiry = wire_deadline(expiry)
            if expiry is not None and time.monotonic() >= expiry:
                self.stats.deadline_expired_drops += 1
                return Reply(Reply.EXPIRED, subject)
            if kind not in ("fetch", "stat"):
                # mutating kinds never batch (write_meta needs fencing)
                self.stats.malformed_requests += 1
                return Reply(Reply.FAILED, None)
            answer = self._answer(kind, subject, None, NULL_SPAN)
            if answer is None:
                return Reply(Reply.FAILED, subject)
            return Reply(*answer)
        except (FanStoreError, TypeError, ValueError, AttributeError):
            self.stats.malformed_requests += 1
            return Reply(Reply.FAILED, None)
