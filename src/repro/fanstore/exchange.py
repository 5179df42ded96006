"""Asking a peer: the request side of the daemon protocol (§V-D site 3).

In the paper a remote file retrieval is one MPI request/reply. Here
:class:`PeerExchange` owns *how* a peer is asked, and asks one way:
:meth:`PeerExchange.ask`, one attempt loop over a list of ``(kind,
subject, deadline)`` items to one rank — a classic request for one item,
a ``batch`` envelope for more, with the same reply tags, timeouts,
back-off, typed errors, health signals, span and per-item hedge.
:meth:`PeerExchange.ask_batched` coalesces lone asks that find their
rank busy into one envelope. The daemon keeps *what* to ask and *whom*,
and lends the exchange the fencing token every request carries and the
digest check a hedged item must pass. Requests go out on
:data:`TAG_DAEMON`, replies come back on never-reused tags from
:data:`REPLY_TAG_BASE` up. The retry back-off is constants, not
configuration (``docs/fault-tolerance.md`` "Retries" gives the reasons).
"""

from __future__ import annotations

import itertools
import random
import sys
import threading
import time
from collections import deque
from typing import TYPE_CHECKING, Any, Callable, Sequence

from repro.comm.communicator import ANY_SOURCE, Communicator
from repro.comm.deadline import Deadline
from repro.errors import (
    CommClosedError, CommError, DeadlineExpiredError, InvalidArgumentError,
    RankDeadError, RetryExhaustedError, ServerOverloadedError,
    StaleEpochError, WireFormatError,
)
from repro.fanstore.health import HealthTracker
from repro.fanstore.metadata import FileRecord
from repro.fanstore.wire import (
    WIRE_MAGIC, WIRE_VERSION, Reply, decode_batch_reply,
)
from repro.obs.metrics import MetricsRegistry
from repro.obs.tracing import Tracer

if TYPE_CHECKING:
    from repro.fanstore.daemon import DaemonConfig, DaemonStats

TAG_DAEMON = 0x0FA0
REPLY_TAG_BASE = 0x1000

#: the back-off an overload reply asks of the requester it shed
OVERLOAD_RETRY_AFTER_S = 0.05

#: retry back-off: 10 ms doubling to a 50 ms cap, times up to 1.5 of
#: seeded jitter so synchronized peers don't re-stampede a recovering rank
_BACKOFF_BASE_S = 0.01
_BACKOFF_MAX_S = 0.05
_BACKOFF_JITTER = 0.5

#: a hedge fires once the home rank has been silent, per item asked,
#: for this quantile of its recent per-item reply latencies
_HEDGE_QUANTILE = 0.95

#: attempts per replica (or re-replication source): a bonus tier above
#: the shared-FS floor
FAILOVER_ATTEMPTS = 1

#: most items one batch envelope carries: the parked tickets one flush
#: packs (:meth:`PeerExchange._lead_flush`; backlog, not waiting, fills
#: a batch), or the paths of one ``fetch_many`` envelope. A constant,
#: not an option: no workload has needed a second value.
BATCH_MAX = 16

#: the item replies that settle an item
_ANSWERS = (Reply.OK, Reply.MISS)
#: what a fetched blob arrives as; any other value is a bad reply
BLOB_TYPES = (bytes, bytearray, memoryview)


def _envelope(
    items: Sequence[tuple[str, Any, Deadline | None]], timeout: float
) -> tuple[Deadline | None, tuple]:
    """An envelope's own deadline — its latest item's, or none when an
    item has none — and its wire items, each with its absolute expiry
    (``timeout`` from now for an item without a deadline)."""
    now = time.monotonic()
    latest: Deadline | None = None
    bounded = True
    wire = []
    for kind, subject, deadline in items:
        if deadline is None:
            bounded = False
            wire.append((kind, subject, now + timeout))
        else:
            if latest is None or deadline.at > latest.at:
                latest = deadline
            wire.append((kind, subject, deadline.at))
    return latest if bounded else None, tuple(wire)


class _BatchTicket:
    """One parked lone ask. ``outcome`` is written under its batcher's
    lock, or by its flush leader, and read once ``event`` fires:
    ``("lead", None)`` elects it flush leader, ``("reply", reply)``
    hands it its settled item reply, ``("fallback", None)`` sends it to
    ask alone, ``("alone", None)`` tells a leader nobody else was
    parked. ``cancelled`` marks a waiter that gave up at its deadline;
    a flush leader skips it."""

    __slots__ = ("kind", "subject", "deadline", "event", "outcome",
                 "cancelled")

    def __init__(
        self, kind: str, subject: Any, deadline: Deadline | None
    ) -> None:
        self.kind = kind
        self.subject = subject
        self.deadline = deadline
        self.event = threading.Event()
        self.outcome: tuple[str, Any] | None = None
        self.cancelled = False


class _DestBatcher:
    """Per-destination batching state: ``busy`` is the flush baton (one
    in-flight exchange per destination at a time), ``pending`` the
    tickets parked behind it."""

    __slots__ = ("lock", "busy", "pending")

    def __init__(self) -> None:
        self.lock = threading.Lock()
        self.busy = False
        self.pending: "deque[_BatchTicket]" = deque()


class PeerExchange:
    """How one rank asks its peers."""

    def __init__(
        self, comm: Communicator | None, config: DaemonConfig,
        stats: DaemonStats, health: HealthTracker, tracer: Tracer,
        metrics: MetricsRegistry, *, fence: Callable[[], int | None],
        verify: Callable[[FileRecord, Any], bool],
    ) -> None:
        self.comm = comm
        self.config = config
        self.stats = stats
        self.health = health
        self.tracer = tracer
        self.rank = comm.rank if comm else 0
        self._fence = fence
        self._verify = verify
        self._reply_tags = itertools.count(REPLY_TAG_BASE + self.rank * 1_000_000)
        self._reply_lock = threading.Lock()
        self._retry_rng = random.Random(0x5EED ^ self.rank)
        #: one baton per peer, made up front: finding one takes no lock
        self._batchers = {
            r: _DestBatcher() for r in range(comm.size if comm else 0)
        }
        self._m_batch_flushes = metrics.counter("daemon.batch.flushes")
        self._m_batch_items = metrics.counter("daemon.batch.items")
        self._m_batch_fallbacks = metrics.counter("daemon.batch.fallbacks")

    def _backoff(self, attempt: int) -> float:
        """The seeded, capped pause before retry ``attempt`` (1-based)."""
        delay = min(_BACKOFF_MAX_S, _BACKOFF_BASE_S * (2 ** (attempt - 1)))
        return delay * (1.0 + _BACKOFF_JITTER * self._retry_rng.random())

    def _hedge_delay(self, dest: int, n: int) -> float:
        """How long ``dest`` has alone with ``n`` items before a hedge:
        ``n`` times the p95 of its recent per-item reply latencies,
        floored at 1 ms an item so a burst of fast replies cannot turn
        hedging into send-everything-twice (``hedge_after_s`` for the
        whole request before any sample), never past ``request_timeout``."""
        cfg = self.config
        per_item = self.health.quantile(
            dest, _HEDGE_QUANTILE, cfg.hedge_after_s / n
        )
        return min(n * max(per_item, 1e-3), cfg.request_timeout)

    # -- the one attempt loop -------------------------------------------------

    def ask(
        self, dest: int, items: list[tuple[str, Any, Deadline | None]], *,
        attempts: int | None = None,
        hedge: Callable[[], int | None] | None = None,
        records: Sequence[FileRecord] = (),
    ) -> list[Any]:
        """Ask rank ``dest`` for every ``(kind, subject, deadline)`` item
        — one item as a classic request, more as one ``batch`` envelope —
        and return one reply per item, in order: ``(OK, value)`` or
        ``(MISS, value)``; in an envelope also the other item reply
        ``dest`` sent (``FAILED``, ``EXPIRED``), or ``None`` where none
        came: the caller's to ask alone. A lone item with no answer
        raises :class:`DeadlineExpiredError` (budget spent),
        :class:`ServerOverloadedError` (shed last) or
        :class:`RetryExhaustedError`.

        An envelope is sent once; a lone item up to ``attempts`` times
        (1 + ``max_retries``), after the fixed back-off, each time on a
        fresh reply tag so a late reply rots in the mailbox. The
        deadline (an envelope's is its latest item's) caps every wait
        and pause; each item's expiry rides in the request so the server
        can drop work this side gave up on. ``CommClosedError`` (world
        teardown), ``RankDeadError`` (this rank is the corpse) and a
        lone item's ``FENCED`` reply (:class:`StaleEpochError`) raise at
        once; an ``OVERLOAD`` reply is a shed, backed off for at least
        its ``retry_after``; anything else is a lost reply. A reply
        feeds :meth:`HealthTracker.observe` its latency per item,
        silence and sheds :meth:`HealthTracker.failure`; a failed
        half-open probe ends a full-budget ask.

        ``hedge``, called only when the hedge fires, names a replica (or
        None). It cuts the first wait on ``dest`` to
        :meth:`_hedge_delay`; past that the items go to the replica on
        the same reply tag, and ``dest`` is noted slow. From then on the
        first blob to pass the digest check settles its item, and
        not-found only from ``dest``. Given ``records`` (the items'
        records, in order), every blob returned, raced or not, has
        passed that check, once, here — a caller hashes none again — and
        a blob that failed it comes back ``(FAILED, blob)``. Inside a
        trace each attempt is an ``rpc.<kind>`` span whose context
        rides in the request."""
        cfg = self.config
        full_budget = attempts is None  # what a failed probe cuts short
        kind, subject, deadline = items[0]
        n = len(items)
        batch = None
        if n > 1:
            kind, subject, attempts = "batch", None, 1
            deadline, batch = _envelope(items, cfg.request_timeout)
        elif full_budget:
            attempts = 1 + max(0, cfg.max_retries)
        elif attempts < 1:
            raise InvalidArgumentError(
                f"rank {self.rank}: {kind} request to rank {dest} needs "
                f"at least one attempt, got attempts={attempts}",
                subject if isinstance(subject, str) else None,
            )
        # ``n_active`` is 0 whenever no span is open anywhere
        traced = (
            self.tracer.n_active > 0
            and self.tracer.current_context() is not None
        )
        # item by item, only once a hedge races dest: until then dest's
        # one reply answers every item
        replies: list[Any] | None = None
        last_exc = overload_wait = None
        for attempt in range(attempts):
            if attempt:
                self.stats.retries += 1
                pause = self._backoff(attempt)
                if overload_wait is not None:
                    pause, overload_wait = max(pause, overload_wait), None
                time.sleep(pause if deadline is None else deadline.cap(pause))
            if deadline is not None and deadline.expired():
                if n > 1:
                    break
                self.stats.deadline_aborts += 1
                raise DeadlineExpiredError(
                    f"rank {self.rank}: {kind} request to rank {dest} "
                    f"abandoned after {attempt} attempt(s): deadline "
                    f"expired (last error: {last_exc})",
                    subject if isinstance(subject, str) else None,
                ) from last_exc
            timeout = (
                cfg.request_timeout if deadline is None
                else deadline.cap(cfg.request_timeout)
            )
            wait = timeout
            expiry = None
            if hedge is not None:  # dest keeps the whole attempt to answer
                wait = min(self._hedge_delay(dest, n), timeout)
                expiry = time.monotonic() + timeout
            with self._reply_lock:
                reply_tag = next(self._reply_tags)
            span = ctx = None
            if traced:
                span = self.tracer.span(
                    f"rpc.{kind}", dest=dest, attempt=attempt
                )
                span.__enter__()
                ctx = span.context().as_wire()
            legs = [dest]  # the ranks that may still answer this attempt
            raced = False
            probe_failed = False
            t0 = time.perf_counter()
            try:
                try:
                    raw = self._send_recv(
                        kind, subject, dest, reply_tag, wait, ctx, batch,
                        expiry,
                    )
                    source = dest
                except (CommClosedError, RankDeadError):
                    raise
                except CommError as exc:
                    source, last_exc = None, exc
                while True:
                    if source is None:  # the wait ran out
                        if hedge is None or wait >= timeout:
                            break
                        target, hedge = hedge(), None  # it fires once
                        if target is not None:
                            self.health.note_slow(dest)
                            self.stats.hedged_reads += 1
                            if traced:
                                span.tag(hedge=target)
                            self._send_recv(
                                kind, subject, target, reply_tag, None, ctx,
                                batch, expiry,
                            )
                            legs.append(target)
                            raced = True
                            replies, settled = [None] * n, [False] * n
                    elif source in legs:
                        legs.remove(source)
                        try:
                            status, value = raw
                        except (TypeError, ValueError):
                            status = value = None
                        if batch is None:
                            got = [raw] if status in _ANSWERS else None
                        else:
                            try:
                                got = decode_batch_reply(raw)
                            except WireFormatError:
                                got = None
                            if got is not None and len(got) != n:
                                got = None
                        if got is None:
                            if status == Reply.FENCED and n == 1:
                                # not retryable: the view this side acted
                                # under is history until a membership
                                # catch-up (gossip merge, rejoin)
                                self.stats.stale_epoch_aborts += 1
                                raise StaleEpochError(
                                    f"rank {self.rank}: {kind} request to "
                                    f"rank {source} fenced off — our view "
                                    f"epoch {self._fence()} is older than "
                                    f"the server's {value}",
                                    subject if isinstance(subject, str)
                                    else None,
                                    server_epoch=(
                                        value if isinstance(value, int) else 0
                                    ),
                                )
                            probe_failed |= (
                                self.health.failure(source) and source == dest
                            )
                            if status == Reply.OVERLOAD:  # a shed
                                self.stats.overload_backoffs += 1
                                last_exc = None
                                overload_wait = (
                                    float(value)
                                    if isinstance(value, (int, float))
                                    else OVERLOAD_RETRY_AFTER_S
                                )
                            else:  # garbage on the reply tag: no reply
                                last_exc = WireFormatError(
                                    f"unparseable reply: {raw!r}"
                                )
                        else:
                            last_exc = None  # heard: the span has no error
                            self.health.observe(
                                source, (time.perf_counter() - t0) / n
                            )
                            if batch is not None:
                                self._m_batch_flushes.inc()
                                self._m_batch_items.inc(n)
                            if replies is None:  # unraced: dest's answers
                                if not records:
                                    return got
                                # checked item by item, as in a race
                                replies, settled = [None] * n, [False] * n
                            won = 0
                            for i, reply in enumerate(got):
                                status, value = reply
                                if settled[i]:
                                    continue
                                if status == Reply.OK:
                                    # a blob must verify to settle, and is
                                    # hashed here only: what fails comes
                                    # back FAILED
                                    ok = isinstance(value, BLOB_TYPES) and (
                                        self._verify(records[i], value)
                                    )
                                    if not ok:
                                        reply = Reply(Reply.FAILED, value)
                                else:  # not-found is the home's word alone
                                    ok = status == Reply.MISS and source == dest
                                if ok:
                                    settled[i] = True
                                    won += 1
                                if ok or source == dest:
                                    replies[i] = reply
                            if won and raced:
                                if source == dest:
                                    self.stats.hedge_losses += 1
                                else:
                                    self.stats.hedge_wins += 1
                                if traced:
                                    span.tag(winner=source)
                            if False not in settled:
                                return replies
                    remaining = timeout - (time.perf_counter() - t0)
                    if not legs or remaining <= 0:
                        break
                    try:
                        raw, source, _tag = self.comm.recv_with_status(
                            ANY_SOURCE, reply_tag, timeout=remaining
                        )
                    except (CommClosedError, RankDeadError):
                        raise
                    except CommError as exc:
                        source, last_exc = None, exc
            finally:  # the span was entered by hand: exit it so too
                if traced:
                    failure = sys.exc_info()[1] or last_exc
                    span.__exit__(failure and type(failure), failure, None)
            if replies is not None and None not in replies:
                return replies
            for leg in legs:  # silent to the end of the attempt
                probe_failed |= self.health.failure(leg) and leg == dest
            if probe_failed and full_budget:
                break
        if n > 1:
            return replies or [None] * n
        path = subject if isinstance(subject, str) else None
        if overload_wait is not None:
            raise ServerOverloadedError(
                f"rank {self.rank}: {kind} request to rank {dest} shed by "
                f"admission control on every one of {attempt + 1} attempt(s)",
                path, retry_after_s=overload_wait,
            )
        raise RetryExhaustedError(
            f"rank {self.rank}: {kind} request to rank {dest} (tag "
            f"{TAG_DAEMON:#x}, last reply tag {reply_tag:#x}) failed after "
            f"{attempt + 1} attempt(s): {last_exc}", path=path,
        ) from last_exc

    def _send_recv(
        self, kind: str, subject: Any, dest: int, reply_tag: int,
        timeout: float | None, trace_ctx: tuple | None, batch: tuple | None,
        expiry: float | None = None,
    ) -> Any:
        """One request on the wire — expiring ``timeout`` from now, or at
        ``expiry`` — and whatever ``dest`` sends back on ``reply_tag``
        within ``timeout``; with ``timeout`` None (a hedge) nothing is
        waited for. The request is built as its wire tuple at once — what
        :meth:`repro.fanstore.wire.Request.encode` returns, field for
        field, with no named tuple in between."""
        comm = self.comm
        wire_body = (
            WIRE_MAGIC, WIRE_VERSION, subject, reply_tag, trace_ctx,
            time.monotonic() + timeout if expiry is None else expiry,
            # fencing token re-read per attempt: a view that advances
            # mid-ladder fences with the fresh epoch
            self._fence(),  # epoch
            batch,
        )
        comm.send((kind, wire_body), dest, TAG_DAEMON)
        if timeout is None:
            return None
        return comm.recv(dest, reply_tag, timeout=timeout)

    # -- the implicit coalescer ------------------------------------------------

    def ask_batched(
        self, kind: str, subject: Any, dest: int, *,
        deadline: Deadline | None = None,
    ) -> tuple[str, Any]:
        """One lone ask that may ride a batched flush; returns what
        :meth:`ask` returns for it. The first caller per destination
        takes the *baton* and asks alone (an idle destination pays
        nothing for batching); callers arriving while the baton is out
        park. When it frees, a parked caller is elected flush leader
        and asks for up to :data:`BATCH_MAX` of them in one envelope;
        whoever that did not settle asks alone — batching is an
        optimization, never a new failure mode. Hedged fetches and
        mutating requests must not come through here."""
        batcher = self._batchers[dest]
        ticket: _BatchTicket | None = None
        with batcher.lock:
            if not batcher.busy:
                batcher.busy = True
            else:
                ticket = _BatchTicket(kind, subject, deadline)
                batcher.pending.append(ticket)
        if ticket is None:
            try:
                return self.ask(dest, [(kind, subject, deadline)])[0]
            finally:
                self._pass_baton(batcher)
        while ticket.outcome is None:
            timeout = (
                None if deadline is None else max(0.0, deadline.remaining())
            )
            if not ticket.event.wait(timeout):
                with batcher.lock:
                    aborted = ticket.outcome is None
                    if aborted:
                        ticket.cancelled = True
                        try:
                            batcher.pending.remove(ticket)
                        except ValueError:
                            pass
                if aborted:
                    self.stats.deadline_aborts += 1
                    raise DeadlineExpiredError(
                        f"rank {self.rank}: batched {kind} request to rank "
                        f"{dest} abandoned while parked: deadline expired",
                        subject if isinstance(subject, str) else None,
                    )
        if ticket.outcome[0] == "lead":
            self._lead_flush(batcher, dest, ticket)
        action, reply = ticket.outcome
        if action == "reply":
            return reply
        if action == "fallback":
            self._m_batch_fallbacks.inc()
        return self.ask(dest, [(kind, subject, deadline)])[0]

    def _pass_baton(self, batcher: _DestBatcher) -> None:
        """Hand the per-destination baton to the oldest live parked
        ticket (electing it flush leader), or retire it."""
        with batcher.lock:
            while batcher.pending:
                ticket = batcher.pending.popleft()
                if ticket.cancelled:
                    continue
                ticket.outcome = ("lead", None)
                ticket.event.set()
                return
            batcher.busy = False

    def _lead_flush(
        self, batcher: _DestBatcher, dest: int, own: _BatchTicket
    ) -> None:
        """One batched flush, run by its elected leader: pack the parked
        tickets, ask once, and leave every ticket (its own too) its
        outcome. The baton is handed on the moment the group is sealed,
        before the round trip, so the next leader packs and sends while
        this envelope is still on the wire: fewer round trips *and*
        overlapping ones."""
        group = [own]
        try:
            with batcher.lock:
                while batcher.pending and len(group) < BATCH_MAX:
                    ticket = batcher.pending.popleft()
                    if not ticket.cancelled:
                        group.append(ticket)
        finally:
            self._pass_baton(batcher)
        if len(group) == 1:
            own.outcome = ("alone", None)
            return
        replies: list[Any] = [None] * len(group)
        try:
            replies = self.ask(
                dest, [(t.kind, t.subject, t.deadline) for t in group]
            )
        finally:  # even when the world tore down: no waiter is stranded
            for ticket, reply in zip(group, replies):
                ticket.outcome = (
                    ("reply", reply)
                    if reply is not None and reply[0] in _ANSWERS
                    else ("fallback", None)
                )
                if ticket is not own:
                    ticket.event.set()
