"""Typed request/reply envelopes for the daemon wire protocol (v2).

Every daemon request body is one typed :class:`Request` envelope
carrying every field by name, encoded as a *self-identifying* tuple:

    (WIRE_MAGIC, WIRE_VERSION, subject, reply_tag,
     trace_ctx, deadline, epoch, batch)

Anything else on the request tag is a :class:`~repro.errors.
WireFormatError` (the server counts it malformed and keeps serving).
Versions above :data:`WIRE_VERSION` decode their known prefix (fields
are only ever appended), so a v2 server keeps serving v3 clients.

A reply is a ``(status, value)`` pair whose first element is one of
:class:`Reply`'s statuses — ``(OK, data)``, ``(MISS, subject_or_None)``,
``(OVERLOAD, retry_after)``, ``(FENCED, server_epoch)``, and on batch
items only ``(EXPIRED, subject)`` (the server dropped an item whose
deadline had lapsed) and ``(FAILED, subject)`` (one item errored — only
its waiter falls back, the rest of the batch is unaffected). A served
reply is sent as a plain tuple and its receiver compares statuses
inline; a :class:`Reply` *is* such a pair (a tuple subclass), built only
where a reply is held rather than passed on — batch items. A batch
reply is ``(BATCH, (item replies...))`` in request-item order.
"""

from __future__ import annotations

from math import isfinite
from typing import Any, NamedTuple

from repro.comm.deadline import wire_deadline
from repro.errors import WireFormatError

#: first element of every v2 envelope; what makes a body self-identifying.
WIRE_MAGIC = "\x00fanstore-wire\x00"

#: the envelope revision this module encodes. Decoders accept any
#: version >= 2 by reading the known 8-field prefix.
WIRE_VERSION = 2

#: first element of a batched reply; the second is a tuple of encoded
#: per-item replies in request order.
BATCH = "__batch_reply__"


class Request(NamedTuple):
    """One daemon request body, fields by name.

    ``subject`` is the request's object (a normalized path for
    ``fetch``/``stat``, a FileRecord for ``write_meta``, ``None`` for a
    batch envelope). ``reply_tag`` is the caller-chosen tag the answer
    comes back on. ``trace_ctx`` is the sender's tracing wire context
    (or None), ``deadline`` the absolute ``time.monotonic()`` expiry (or
    None), ``epoch`` the sender's membership-view fencing token (or
    None). ``batch`` is a tuple of ``(kind, subject, deadline)`` item
    triples when this envelope carries a batched flush, else None.

    A ``NamedTuple``, not a frozen dataclass: both sides build one per
    request, and a tuple is about three times cheaper to construct.
    """

    subject: Any
    reply_tag: int
    trace_ctx: tuple | None = None
    deadline: float | None = None
    epoch: int | None = None
    batch: tuple | None = None

    def encode(self) -> tuple:
        """The versioned wire tuple for this envelope (a plain tuple:
        the fields in order behind the magic and the version)."""
        return (WIRE_MAGIC, WIRE_VERSION) + self


def decode_request(body: Any) -> Request:
    """Decode one wire body into a validated :class:`Request`.

    Hostile bodies surface as :class:`WireFormatError` (the server
    counts them malformed), never as a crash: anything that is not a v2
    envelope is rejected, the deadline is sanitized through
    :func:`~repro.comm.deadline.wire_deadline`, the reply tag and epoch
    are type-checked, and a batch must be a tuple.

    One pass for a body of the eight fields this version sends: exact
    types first (``type(x) is int`` already excludes ``bool``),
    ``wire_deadline`` only for a deadline that is not a finite float,
    and the envelope built as its tuple with no keyword binding.
    Anything else is diagnosed field by field in
    :func:`_diagnose_request`, which raises for a bad body and accepts
    what the exact checks were stricter about (a newer version's extra
    fields, an ``int`` or ``tuple`` subclass).
    """
    if type(body) is tuple and len(body) == 8:
        magic, version, subject, reply_tag, trace_ctx, deadline, epoch, batch = (
            body
        )
        if (
            magic == WIRE_MAGIC
            and type(version) is int
            and version >= WIRE_VERSION
            and type(reply_tag) is int
            and reply_tag >= 0
            and (epoch is None or type(epoch) is int)
            and (batch is None or type(batch) is tuple)
        ):
            if deadline is not None and not (
                type(deadline) is float and isfinite(deadline)
            ):
                deadline = wire_deadline(deadline)
            return _tuple_new(
                Request,
                (subject, reply_tag, trace_ctx, deadline, epoch, batch),
            )
    return _diagnose_request(body)


#: builds a :class:`Request` from its fields in order, with no frame of
#: the named tuple's own ``__new__``
_tuple_new = tuple.__new__


def _diagnose_request(body: Any) -> Request:
    """:func:`decode_request`'s field-by-field checks: the reason a body
    is refused, or the :class:`Request` it still is."""
    if not (
        isinstance(body, tuple)
        and len(body) >= 2
        and body[0] == WIRE_MAGIC
    ):
        raise WireFormatError(f"not a request envelope: {body!r}")
    version = body[1]
    if not isinstance(version, int) or version < WIRE_VERSION:
        raise WireFormatError(
            f"bad envelope version: {version!r} (oldest supported is "
            f"{WIRE_VERSION})"
        )
    if len(body) < 8:
        raise WireFormatError(
            f"v{version} envelope has {len(body)} fields; "
            "8 (magic, version, subject, reply_tag, trace_ctx, "
            "deadline, epoch, batch) are required"
        )
    # forward compatibility: fields are append-only, so a newer
    # sender's extras are ignorable rather than fatal
    _, _, subject, reply_tag, trace_ctx, deadline, epoch, batch = body[:8]
    if (
        isinstance(reply_tag, bool)
        or not isinstance(reply_tag, int)
        or reply_tag < 0
    ):
        raise WireFormatError(f"bad reply tag: {reply_tag!r}")
    if epoch is not None and (
        isinstance(epoch, bool) or not isinstance(epoch, int)
    ):
        raise WireFormatError(f"bad fencing epoch: {epoch!r}")
    if batch is not None and not isinstance(batch, tuple):
        raise WireFormatError(f"bad batch payload: {batch!r}")
    return Request(
        subject=subject,
        reply_tag=reply_tag,
        trace_ctx=trace_ctx,
        deadline=wire_deadline(deadline),
        epoch=epoch,
        batch=batch,
    )


class Reply(NamedTuple):
    """One reply, named: the ``(status, value)`` wire pair itself (a
    tuple subclass, so encoding is the identity). What each status
    carries is in the module docstring."""

    status: str
    value: Any = None

    OK = "ok"
    MISS = "miss"
    OVERLOAD = "overload"
    FENCED = "fenced"
    EXPIRED = "expired"
    FAILED = "failed"

    def encode(self) -> tuple:
        """The wire form — a :class:`Reply` already is the pair."""
        return self


_STATUSES = (
    Reply.OK, Reply.MISS, Reply.OVERLOAD,
    Reply.FENCED, Reply.EXPIRED, Reply.FAILED,
)


def decode_reply(raw: Any) -> Reply:
    """Decode one (item) reply pair into a validated :class:`Reply`."""
    try:
        status, value = raw
    except (TypeError, ValueError):
        raise WireFormatError(f"unparseable reply: {raw!r}") from None
    if status not in _STATUSES:
        raise WireFormatError(f"unknown reply status: {status!r}")
    return Reply(status, value)


def encode_batch_reply(replies: list[Reply]) -> tuple:
    """The wire form of a batched reply: per-item replies, request
    order."""
    return (BATCH, tuple(replies))


def decode_batch_reply(raw: Any) -> list[Reply] | None:
    """Decode a batched reply; ``None`` when ``raw`` is not one (an
    envelope-level shed or fence — the caller falls back per item)."""
    if (
        not isinstance(raw, tuple)
        or len(raw) != 2
        or raw[0] != BATCH
        or not isinstance(raw[1], tuple)
    ):
        return None
    return [decode_reply(item) for item in raw[1]]
