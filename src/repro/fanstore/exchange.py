"""Asking a peer: the request side of the daemon protocol (§V-D site 3).

In the paper a remote file retrieval is one MPI request/reply. Here
:class:`PeerExchange` owns every decision about *how* a peer is asked —
attempts, timeouts, back-off, the per-destination batching baton, the
batch envelope, hedged legs, and the health signal each outcome sends.
The daemon keeps *what* to ask and *whom*, and lends the exchange two
callables: the fencing token every envelope carries and the digest
check a hedged leg must pass. Requests go out on :data:`TAG_DAEMON`,
replies come back on never-reused tags from :data:`REPLY_TAG_BASE` up.
The retry back-off is constants, not configuration
(``docs/fault-tolerance.md`` "Retries" gives the reasons).
"""

from __future__ import annotations

import itertools
import random
import threading
import time
from collections import deque
from typing import TYPE_CHECKING, Any, Callable

from repro.comm.communicator import ANY_SOURCE, Communicator
from repro.comm.deadline import Deadline
from repro.errors import (
    CommClosedError,
    CommError,
    DataIntegrityError,
    DeadlineExpiredError,
    InvalidArgumentError,
    RankDeadError,
    RetryExhaustedError,
    ServerOverloadedError,
    StaleEpochError,
    WireFormatError,
)
from repro.fanstore.health import HealthTracker
from repro.fanstore.metadata import FileRecord
from repro.fanstore.pipeline import BATCH_MAX
from repro.fanstore.wire import (
    WIRE_MAGIC,
    WIRE_VERSION,
    Reply,
    Request,
    decode_batch_reply,
)
from repro.obs.metrics import MetricsRegistry
from repro.obs.tracing import NULL_SPAN, Tracer

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

#: hedged reads fire once the home rank has been silent for this
#: quantile of its recent reply latencies.
_HEDGE_QUANTILE = 0.95


class _BatchTicket:
    """One parked small request awaiting a batched flush. ``outcome``
    is written under its batcher's lock and read after ``event`` fires:
    ``("lead", None)`` elects it flush leader, ``("reply", Reply)``
    hands it its item reply, ``("fallback", None)`` sends it down the
    classic ladder. ``cancelled`` marks a waiter that gave up at its
    deadline; a flush leader skips it."""

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
        self._batch_lock = threading.Lock()
        self._batchers: dict[int, _DestBatcher] = {}
        self._m_batch_flushes = metrics.counter("daemon.batch.flushes")
        self._m_batch_items = metrics.counter("daemon.batch.items")
        self._m_batch_fallbacks = metrics.counter("daemon.batch.fallbacks")

    def _next_reply_tag(self) -> int:
        with self._reply_lock:
            return next(self._reply_tags)

    def _backoff(self, attempt: int) -> float:
        """The seeded, capped pause before retry ``attempt`` (1-based)."""
        delay = min(_BACKOFF_MAX_S, _BACKOFF_BASE_S * (2 ** (attempt - 1)))
        return delay * (1.0 + _BACKOFF_JITTER * self._retry_rng.random())

    def count_fallbacks(self, n: int) -> None:
        """Book ``n`` batch items their caller must retry alone."""
        self._m_batch_fallbacks.inc(n)

    # -- one request, retried -----------------------------------------------

    def ask(
        self, kind: str, body: Any, dest: int, *,
        attempts: int | None = None, deadline: Deadline | None = None,
    ) -> tuple[str, Any]:
        """One request/reply exchange with a bounded retry budget;
        returns the server's ``(status, value)`` pair, status
        ``Reply.OK`` or ``Reply.MISS``.

        Every attempt uses a *fresh* reply tag, so a late reply rots in
        the mailbox instead of answering a later attempt.
        ``CommClosedError`` (world teardown) and ``RankDeadError`` (this
        rank is the dead one) are not retried. A ``deadline`` caps every
        attempt's timeout and back-off by what is left, and a spent
        budget raises :class:`DeadlineExpiredError`; either way the wire
        body carries the attempt's absolute expiry, so the server can
        drop work this side gave up on. An ``(OVERLOAD, retry_after)``
        reply is a shed: back off at least ``retry_after``, and raise
        :class:`ServerOverloadedError` when the budget ends on one.
        Anything on the reply tag that is not a reply is a lost reply.

        Outcomes feed the health tracker: latencies via
        :meth:`HealthTracker.observe`, timeouts and sheds via
        :meth:`HealthTracker.failure`, which says when the attempt was a
        half-open breaker's failed probe — a full-budget exchange ends
        there (an explicit ``attempts`` is the caller's own bound)."""
        assert self.comm is not None
        cfg = self.config
        full_budget = attempts is None  # what a failed probe cuts short
        path = body if isinstance(body, str) else None
        if full_budget:
            attempts = 1 + max(0, cfg.max_retries)
        elif attempts < 1:
            raise InvalidArgumentError(
                f"rank {self.rank}: {kind} request to rank {dest} needs "
                f"at least one attempt, got attempts={attempts}",
                path,
            )
        # Tracing: each attempt gets its own ``rpc.<kind>`` span (so
        # retries are visible as sibling spans) and the attempt's
        # context rides in the request body for the serving rank to
        # adopt. ``n_active`` is 0 whenever no span is open anywhere.
        traced = (
            self.tracer.n_active > 0
            and self.tracer.current_context() is not None
        )
        last_exc: CommError | WireFormatError | None = None
        overload_wait: float | None = None
        for attempt in range(attempts):
            if attempt:
                self.stats.retries += 1
                pause = self._backoff(attempt)
                if overload_wait is not None:
                    pause = max(pause, overload_wait)
                    overload_wait = None
                if deadline is not None:
                    pause = deadline.cap(pause)
                time.sleep(pause)
            if deadline is not None and deadline.expired():
                self.stats.deadline_aborts += 1
                raise DeadlineExpiredError(
                    f"rank {self.rank}: {kind} request to rank {dest} "
                    f"abandoned after {attempt} attempt(s): deadline "
                    f"expired (last error: {last_exc})",
                    path,
                ) from last_exc
            attempt_timeout = (
                cfg.request_timeout if deadline is None
                else deadline.cap(cfg.request_timeout)
            )
            with self._reply_lock:  # _next_reply_tag(), without its frame
                reply_tag = next(self._reply_tags)
            t0 = time.perf_counter()
            try:
                if not traced:
                    reply = self._send_recv(
                        kind, body, dest, reply_tag, attempt_timeout, None
                    )
                else:
                    with self.tracer.span(
                        f"rpc.{kind}", dest=dest, attempt=attempt
                    ) as span:
                        reply = self._send_recv(
                            kind, body, dest, reply_tag, attempt_timeout,
                            span.context().as_wire(),
                        )
            except (CommClosedError, RankDeadError):
                raise
            except CommError as exc:
                last_exc = exc
                if self.health.failure(dest) and full_budget:
                    break
                continue
            try:
                status, value = reply
            except (TypeError, ValueError):
                status = value = None
            if status == Reply.OK or status == Reply.MISS:
                self.health.observe(dest, time.perf_counter() - t0)
                return reply
            if status == Reply.FENCED:
                # a stale fencing token is not retryable: the view this
                # side acted under is history, and only a membership
                # catch-up (gossip merge, rejoin) can change that
                self.stats.stale_epoch_aborts += 1
                raise StaleEpochError(
                    f"rank {self.rank}: {kind} request to rank {dest} "
                    f"fenced off — our view epoch {self._fence()} is "
                    f"older than the server's {value}",
                    path,
                    server_epoch=value if isinstance(value, int) else 0,
                )
            probe_failed = self.health.failure(dest)
            if status == Reply.OVERLOAD:
                self.stats.overload_backoffs += 1
                last_exc = None
                overload_wait = (
                    float(value)
                    if isinstance(value, (int, float))
                    else OVERLOAD_RETRY_AFTER_S
                )
            else:
                # garbage on the reply tag is as good as no reply
                last_exc = WireFormatError(f"unparseable reply: {reply!r}")
            if probe_failed and full_budget:
                break
        if overload_wait is not None:
            raise ServerOverloadedError(
                f"rank {self.rank}: {kind} request to rank {dest} shed by "
                f"admission control on every one of {attempt + 1} attempt(s)",
                path,
                retry_after_s=overload_wait,
            )
        raise RetryExhaustedError(
            f"rank {self.rank}: {kind} request to rank {dest} "
            f"(tag {TAG_DAEMON:#x}, last reply tag {reply_tag:#x}) failed "
            f"after {attempt + 1} attempt(s): {last_exc}",
            path=path,
        ) from last_exc

    def _send_recv(
        self, kind: str, body: Any, dest: int, reply_tag: int,
        timeout: float, trace_ctx: tuple | None, batch: tuple | None = None,
    ) -> Any:
        """One attempt on the wire — the request envelope out, whatever
        arrives on ``reply_tag`` back: for :meth:`ask`, and for
        :meth:`ask_many` with the ``batch`` items.

        The envelope is built as its wire tuple at once — what
        ``Request(...).encode()`` returns, field for field, without the
        named tuple in between."""
        comm = self.comm
        wire_body = (
            WIRE_MAGIC, WIRE_VERSION, body, reply_tag, trace_ctx,
            time.monotonic() + timeout,  # deadline
            # fencing token re-read per attempt: a view that advances
            # mid-ladder fences with the fresh epoch
            self._fence(),  # epoch
            batch,
        )
        comm.send((kind, wire_body), dest, TAG_DAEMON)
        return comm.recv(dest, reply_tag, timeout=timeout)

    # -- per-destination request batching ------------------------------------

    def _batcher(self, dest: int) -> _DestBatcher:
        # a dict read needs no lock; only creating a batcher does, and
        # only that calls this helper
        batcher = self._batchers.get(dest)
        if batcher is None:
            with self._batch_lock:
                batcher = self._batchers.setdefault(dest, _DestBatcher())
        return batcher

    def ask_batched(
        self, kind: str, subject: Any, dest: int, *,
        deadline: Deadline | None = None,
    ) -> tuple[str, Any]:
        """A small request that may ride a batched flush.

        The first caller per destination takes the *baton* and runs a
        classic :meth:`ask` (an idle destination pays zero batching
        overhead); callers arriving while the baton is out park as
        tickets. When the baton frees, a parked ticket is elected flush
        leader: it packs up to :data:`~repro.fanstore.pipeline.BATCH_MAX`
        parked tickets into one ``batch`` envelope and fans the item
        replies back. Any batch-level failure degrades every waiter to
        the classic ladder — batching is an optimization, never a new
        failure mode. Hedged fetches and mutating requests must not come
        through here."""
        batcher = self._batchers.get(dest) or self._batcher(dest)
        ticket: _BatchTicket | None = None
        with batcher.lock:
            if not batcher.busy:
                batcher.busy = True
            else:
                ticket = _BatchTicket(kind, subject, deadline)
                batcher.pending.append(ticket)
        if ticket is None:
            try:
                return self.ask(kind, subject, dest, deadline=deadline)
            finally:
                self._pass_baton(batcher)
        while ticket.outcome is None:
            timeout = (
                None if ticket.deadline is None
                else max(0.0, ticket.deadline.remaining())
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
        action, value = ticket.outcome
        if action == "lead":
            return self._lead_flush(batcher, dest, ticket)
        # a "reply" carries its item reply, a "fallback" None
        return self._consume_item_reply(kind, subject, dest, deadline, value)

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
    ) -> tuple[str, Any]:
        """Run one batched flush as its elected leader: pack the
        parked tickets, exchange, fan the item replies out. Every
        grouped ticket is answered even when the exchange raises — a
        torn-down world must not strand parked waiters. The baton is
        handed on the moment the group is sealed, before the round
        trip, so the next leader packs and sends while this envelope is
        still on the wire: fewer round trips *and* overlapping ones."""
        baton_passed = False
        try:
            group = [own]
            with batcher.lock:
                while batcher.pending and len(group) < BATCH_MAX:
                    ticket = batcher.pending.popleft()
                    if ticket.cancelled:
                        continue
                    group.append(ticket)
            self._pass_baton(batcher)
            baton_passed = True
            if len(group) == 1:
                return self.ask(
                    own.kind, own.subject, dest, deadline=own.deadline
                )
            replies: list[Reply] | None = None
            try:
                replies = self.ask_many(
                    dest, [(t.kind, t.subject, t.deadline) for t in group]
                )
            finally:
                for i, ticket in enumerate(group):
                    if ticket is own:
                        continue
                    ticket.outcome = (
                        ("fallback", None) if replies is None
                        else ("reply", replies[i])
                    )
                    ticket.event.set()
            return self._consume_item_reply(
                own.kind, own.subject, dest, own.deadline,
                None if replies is None else replies[0],
            )
        finally:
            if not baton_passed:
                self._pass_baton(batcher)

    def ask_many(
        self, dest: int, group: list[tuple[str, Any, Deadline | None]]
    ) -> list[Reply] | None:
        """One batched request/reply exchange over ``(kind, subject,
        deadline)`` triples — the parked tickets of :meth:`_lead_flush`
        or the caller-supplied list of ``FanStoreDaemon.fetch_many``;
        ``None`` means the whole flush must degrade to classic per-item
        requests (comm timeout, envelope-level shed or fence, malformed
        reply). World teardown (:class:`CommClosedError`) and our own
        injected death (:class:`RankDeadError`) still raise."""
        cfg = self.config
        now = time.monotonic()
        items = []
        latest = now
        for kind, subject, deadline in group:
            expiry = (
                deadline.at if deadline is not None
                else now + cfg.request_timeout
            )
            latest = max(latest, expiry)
            items.append((kind, subject, expiry))
        budget = max(1e-3, min(latest - now, cfg.request_timeout))
        t0 = time.perf_counter()
        try:
            raw = self._send_recv(
                "batch", None, dest, self._next_reply_tag(), budget, None,
                tuple(items),
            )
        except (CommClosedError, RankDeadError):
            raise
        except CommError:
            self.health.failure(dest)
            return None
        try:
            replies = decode_batch_reply(raw)
        except WireFormatError:
            replies = None
        if replies is None or len(replies) != len(group):
            # an envelope-level shed/fence or a malformed reply: the
            # classic per-item fallback handles overload and fencing
            # with their full semantics (backoff, typed errors)
            self.health.failure(dest)
            return None
        self.health.observe(dest, time.perf_counter() - t0)
        self._m_batch_flushes.inc()
        self._m_batch_items.inc(len(group))
        return replies

    def _consume_item_reply(
        self, kind: str, subject: Any, dest: int,
        deadline: Deadline | None, reply: Reply | None,
    ) -> tuple[str, Any]:
        """One batched item reply under classic :meth:`ask` return
        semantics: an answer (OK / MISS) is returned as the pair it is;
        a FAILED item (integrity failure, malformed subject), or none
        at all (the envelope was lost), retries alone through the
        classic ladder."""
        status = None if reply is None else reply.status
        if status == Reply.OK or status == Reply.MISS:
            return reply
        if status == Reply.EXPIRED:
            self.stats.deadline_aborts += 1
            raise DeadlineExpiredError(
                f"rank {self.rank}: batched {kind} of {subject!r} to rank "
                f"{dest} dropped by the server: item deadline expired",
                subject if isinstance(subject, str) else None,
            )
        self._m_batch_fallbacks.inc()
        return self.ask(kind, subject, dest, deadline=deadline)

    # -- hedged fetches -------------------------------------------------------

    def _hedge_delay(self, dest: int) -> float:
        """How long to leave the home rank alone before hedging: its
        recent reply latencies' p95, or ``hedge_after_s`` until then."""
        cfg = self.config
        delay = self.health.quantile(dest, _HEDGE_QUANTILE, cfg.hedge_after_s)
        # floor well above zero so a burst of fast replies cannot turn
        # hedging into send-everything-twice
        return min(max(delay, 1e-3), cfg.request_timeout)

    def ask_hedged(
        self, norm: str, record: FileRecord, hedge_dest: int,
        deadline: Deadline | None,
    ) -> tuple[str, Any]:
        """One fetch, two possible servers: the home rank first; if it
        stays silent past the hedge delay, the same request (same reply
        tag — whichever reply lands first is taken) goes to the best
        replica. The winner must pass digest verification or the loser
        gets its chance; the loser's late reply rots harmlessly on the
        never-reused tag. Raises :class:`RetryExhaustedError` when
        neither leg answers in time (the caller descends the ladder).
        """
        comm = self.comm
        assert comm is not None
        cfg = self.config
        home = record.home_rank
        if deadline is not None and deadline.expired():
            self.stats.deadline_aborts += 1
            raise DeadlineExpiredError(
                f"rank {self.rank}: hedged fetch of {norm} abandoned "
                "before send: deadline expired",
                norm,
            )
        budget = (
            cfg.request_timeout if deadline is None
            else deadline.cap(cfg.request_timeout)
        )
        reply_tag = self._next_reply_tag()
        traced = self.tracer.current_context() is not None
        span = (
            self.tracer.span("rpc.fetch", dest=home, hedge=hedge_dest)
            if traced else NULL_SPAN
        )
        with span:
            ctx = span.context()
            # built here, not in _send_recv: one body goes to two ranks
            # on one reply tag, and the second send has no recv of its own
            wire_body = Request(
                subject=norm,
                reply_tag=reply_tag,
                trace_ctx=None if ctx is None else ctx.as_wire(),
                deadline=time.monotonic() + budget,
                epoch=self._fence(),
            ).encode()
            t0 = time.perf_counter()
            comm.send(("fetch", wire_body), home, TAG_DAEMON)
            try:
                reply = comm.recv(
                    home, reply_tag,
                    timeout=min(self._hedge_delay(home), budget),
                )
            except CommError:
                reply = None
            racing: set[int] = set()
            if reply is not None:
                try:
                    return self._hedge_accept(
                        reply, home, home, record, t0, span
                    )
                except DataIntegrityError:
                    pass  # home's leg burned (corrupt/shed): hedge it
            else:
                # home missed its hedge delay: that is a slow strike
                # even if it eventually answers
                self.health.note_slow(home)
                racing.add(home)
            # the replica gets the same request on the same reply tag —
            # whichever leg lands first is the one that counts
            self.stats.hedged_reads += 1
            span.tag(hedged=True)
            comm.send(("fetch", wire_body), hedge_dest, TAG_DAEMON)
            racing.add(hedge_dest)
            while racing:
                remaining = budget - (time.perf_counter() - t0)
                if deadline is not None:
                    remaining = deadline.cap(remaining)
                if remaining <= 0:
                    break
                try:
                    reply, source, _tag = comm.recv_with_status(
                        ANY_SOURCE, reply_tag, timeout=remaining
                    )
                except CommError:
                    break
                if source not in racing:
                    continue  # a duplicate delivery of a counted leg
                racing.discard(source)
                if source == hedge_dest:
                    self.stats.hedge_wins += 1
                else:
                    self.stats.hedge_losses += 1
                try:
                    return self._hedge_accept(
                        reply, source, home, record, t0, span
                    )
                except DataIntegrityError:
                    continue  # corrupt leg: let the other one race on
        for leg in racing:
            self.health.failure(leg)
        raise RetryExhaustedError(
            f"rank {self.rank}: hedged fetch of {norm} from home rank "
            f"{home} (hedge rank {hedge_dest}, tag {TAG_DAEMON:#x}, reply "
            f"tag {reply_tag:#x}) got no verified reply in time",
            path=norm,
        )

    def _hedge_accept(
        self, reply: Any, source: int, home: int, record: FileRecord,
        t0: float, span: Any,
    ) -> tuple[str, Any]:
        """Validate one hedged leg's reply; DataIntegrityError means
        "keep racing", anything returned is final."""
        try:
            status, data = reply
        except (TypeError, ValueError):
            status = None
        if status == Reply.OK:
            if not self._verify(record, data):
                raise DataIntegrityError(record.path, "hedged leg corrupt")
            self.health.observe(source, time.perf_counter() - t0)
            span.tag(winner=source)
            return reply
        if status == Reply.MISS:
            # authoritative not-found travels up only from the home
            # rank; a replica without the record is just a losing leg
            if source == home:
                return reply
            raise DataIntegrityError(record.path, "replica missed")
        # shed by admission control, or garbage on the reply tag: the
        # caller treats either as a dead leg
        if status == Reply.OVERLOAD:
            self.stats.overload_backoffs += 1
        self.health.failure(source)
        raise DataIntegrityError(record.path, "hedged leg shed or unparseable")
