"""Distributed request tracing across the daemon mesh.

One ``client.read()`` can touch several ranks: the home rank (possibly
through retries), any announced replicas, and — degraded mode — the
shared file system, with repair and re-replication hops layered on top.
This module makes that journey reconstructable:

- a :class:`Tracer` per rank hands out :class:`Span` context managers.
  Spans nest through a thread-local stack (the daemon's service thread
  and the client threads each carry their own), so a repair triggered
  inside a served fetch parents correctly without plumbing.
- the *trace context* — ``(trace_id, span_id)`` — rides inside daemon
  request bodies (:mod:`repro.fanstore.daemon` appends it as an
  optional third element, so old two-element senders keep working), and
  the serving rank *adopts* it: its span carries the requester's trace
  id with the requester's RPC span as parent. One trace therefore
  threads through every rank it touched.
- finished spans collect in a bounded per-tracer buffer and export as
  JSONL; :func:`load_spans` / :func:`assemble_trace` /
  :func:`format_trace` rebuild and render the tree from the files of
  all ranks (what the chaos trace drill asserts on).

Sampling: creating spans on a ~6 µs local read would dominate it, so by
default (``sample=0.0``) the tracer only creates spans when an active
parent exists — i.e. when someone upstream *decided* to trace (a
sampled root, a user-opened root span, or a remote context arriving in
a request). ``sample=1.0`` traces every root the daemon opens; the
drills run there.

Ids are cheap on purpose: ``{rank:x}-{counter:x}``, unique within a
process because each tracer owns its counter — no ``os.urandom`` on
the read path.
"""

from __future__ import annotations

import itertools
import json
import random
import threading
import time
from collections import deque
from pathlib import Path
from typing import Any, Iterable

from repro.obs.metrics import ObservabilityError


class TraceContext:
    """The cross-rank propagation unit: which trace, which parent."""

    __slots__ = ("trace_id", "span_id")

    def __init__(self, trace_id: str, span_id: str) -> None:
        self.trace_id = trace_id
        self.span_id = span_id

    def as_wire(self) -> tuple[str, str]:
        """The tuple stamped into daemon request bodies."""
        return (self.trace_id, self.span_id)

    @classmethod
    def from_wire(cls, wire: Any) -> "TraceContext | None":
        """Parse a wire tuple; hostile or malformed input yields None
        (the daemon must never crash on a bad header)."""
        if (
            isinstance(wire, (tuple, list)) and len(wire) == 2
            and all(isinstance(x, str) for x in wire)
        ):
            return cls(wire[0], wire[1])
        return None

    def __repr__(self) -> str:
        return f"TraceContext({self.trace_id}, {self.span_id})"


class Span:
    """One timed, tagged operation within a trace.

    Use as a context manager (``with tracer.span("fetch.degraded")``);
    an exception propagating through marks ``error`` with the exception
    type name. Tags are plain JSON-able values.
    """

    __slots__ = (
        "tracer", "trace_id", "span_id", "parent_id", "name", "rank",
        "tags", "start_s", "_t0", "duration_s", "error",
    )

    def __init__(
        self,
        tracer: "Tracer",
        trace_id: str,
        span_id: str,
        parent_id: str | None,
        name: str,
        **tags: Any,
    ) -> None:
        self.tracer: Tracer | None = tracer
        self.trace_id = trace_id
        self.span_id = span_id
        self.parent_id = parent_id
        self.name = name
        self.rank = tracer.rank
        self.tags = dict(tags)
        self.start_s = time.time()
        self._t0 = time.perf_counter()
        self.duration_s: float | None = None
        self.error: str | None = None

    def context(self) -> TraceContext:
        return TraceContext(self.trace_id, self.span_id)

    def tag(self, **tags: Any) -> "Span":
        self.tags.update(tags)
        return self

    def __enter__(self) -> "Span":
        self.tracer._push(self)
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if exc_type is not None and self.error is None:
            self.error = exc_type.__name__
        self.duration_s = time.perf_counter() - self._t0
        self.tracer._pop(self)
        # a finished span is kept by its tracer and needs it no more:
        # holding it back would close a cycle through the tracer
        self.tracer = None

    def to_dict(self) -> dict:
        return {
            "kind": "span",
            "trace_id": self.trace_id,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "name": self.name,
            "rank": self.rank,
            "start_s": self.start_s,
            "duration_s": self.duration_s,
            "error": self.error,
            "tags": self.tags,
        }


class _NullSpan:
    """The not-tracing fast path: every operation is a no-op."""

    __slots__ = ()

    def context(self) -> None:
        return None

    def tag(self, **tags: Any) -> "_NullSpan":
        return self

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc) -> None:
        return None

    def __bool__(self) -> bool:
        return False


NULL_SPAN = _NullSpan()


class Tracer:
    """Per-rank span factory with thread-local nesting and sampling.

    ``n_active`` is a plain int the daemon reads on its hot path to
    decide whether the observed (traced) branch is worth entering; it
    counts open spans across *all* threads of this tracer, so it can
    transiently over-trigger — harmless, the span creation itself still
    checks the thread-local stack.
    """

    def __init__(
        self,
        rank: int = 0,
        *,
        sample: float = 0.0,
        seed: int | None = None,
        max_spans: int = 20_000,
    ) -> None:
        if not 0.0 <= sample <= 1.0:
            raise ObservabilityError(f"sample {sample} outside [0, 1]")
        self.rank = rank
        self.sample = sample
        self.n_active = 0
        self._tls = threading.local()
        self._ids = itertools.count(1)
        self._id_lock = threading.Lock()
        self._rng = random.Random(0x7ACE ^ rank if seed is None else seed)
        self._finished: "deque[Span]" = deque(maxlen=max_spans)

    # -- stack plumbing ----------------------------------------------------

    def _stack(self) -> list[Span]:
        stack = getattr(self._tls, "stack", None)
        if stack is None:
            stack = self._tls.stack = []
        return stack

    def _push(self, span: Span) -> None:
        self._stack().append(span)
        self.n_active += 1

    def _pop(self, span: Span) -> None:
        stack = self._stack()
        if stack and stack[-1] is span:
            stack.pop()
        elif span in stack:  # mis-nested exit: drop it and everything above
            del stack[stack.index(span):]
        self.n_active = max(0, self.n_active - 1)
        self._finished.append(span)

    def _next_id(self) -> str:
        with self._id_lock:
            return f"{self.rank:x}-{next(self._ids):x}"

    # -- span creation -----------------------------------------------------

    def current_context(self) -> TraceContext | None:
        """The innermost open span's context on this thread, if any."""
        stack = getattr(self._tls, "stack", None)
        if stack:
            return stack[-1].context()
        return None

    def tag_current(self, **tags: Any) -> None:
        """Tag the innermost open span on this thread, if any."""
        stack = getattr(self._tls, "stack", None)
        if stack:
            stack[-1].tag(**tags)

    def span(self, name: str, **tags: Any) -> Span | _NullSpan:
        """A child of the current span — or :data:`NULL_SPAN` when this
        thread is not inside a trace (child sites never start one)."""
        stack = getattr(self._tls, "stack", None)
        if not stack:
            return NULL_SPAN
        parent = stack[-1]
        return Span(self, parent.trace_id, self._next_id(),
                    parent.span_id, name, **tags)

    def root(self, name: str, **tags: Any) -> Span:
        """Unconditionally start a new trace (drills, user code)."""
        return Span(self, f"t{self._next_id()}", self._next_id(), None,
                    name, **tags)

    def maybe_root(self, name: str, **tags: Any) -> Span | _NullSpan:
        """The daemon's entry-point policy: continue the thread's open
        trace if any, else start a new one when sampling says so, else
        trace nothing."""
        stack = getattr(self._tls, "stack", None)
        if stack:
            parent = stack[-1]
            return Span(self, parent.trace_id, self._next_id(),
                        parent.span_id, name, **tags)
        if self.sample > 0.0 and (
            self.sample >= 1.0 or self._rng.random() < self.sample
        ):
            return self.root(name, **tags)
        return NULL_SPAN

    def adopt(self, wire: Any, name: str, **tags: Any) -> Span | _NullSpan:
        """Server side: a span in the *requester's* trace, parented to
        the requester's RPC span. Malformed wire contexts trace
        nothing (and crash nothing)."""
        ctx = TraceContext.from_wire(wire)
        if ctx is None:
            return NULL_SPAN
        return Span(self, ctx.trace_id, self._next_id(), ctx.span_id,
                    name, **tags)

    # -- export ------------------------------------------------------------

    def finished(self) -> list[Span]:
        """Completed spans, oldest first (bounded buffer)."""
        return list(self._finished)

    def export_jsonl(self, path: Path | str, *, append: bool = False) -> Path:
        """Dump finished spans as JSONL; returns the path."""
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "a" if append else "w", encoding="utf-8") as fh:
            for span in self.finished():
                fh.write(
                    json.dumps(span.to_dict(), sort_keys=True, default=str)
                    + "\n"
                )
        return path


# -- offline reconstruction ---------------------------------------------------


def load_spans(paths: Iterable[Path | str]) -> list[dict]:
    """Span dicts from JSONL files (metric lines interleaved in the
    same file are skipped)."""
    spans: list[dict] = []
    for path in paths:
        with open(path, "r", encoding="utf-8") as fh:
            for raw in fh:
                raw = raw.strip()
                if not raw:
                    continue
                try:
                    obj = json.loads(raw)
                except json.JSONDecodeError:
                    continue
                if isinstance(obj, dict) and obj.get("kind") == "span":
                    spans.append(obj)
    return spans


def trace_ids(spans: Iterable[dict]) -> list[str]:
    """Distinct trace ids, in first-seen order."""
    seen: dict[str, None] = {}
    for s in spans:
        seen.setdefault(s["trace_id"], None)
    return list(seen)


def assemble_trace(spans: Iterable[dict], trace_id: str) -> dict:
    """Rebuild one trace as a tree: ``{"span": dict, "children":
    [...]}`` rooted at the parentless span. Spans whose parent is
    missing (e.g. a rank's buffer rolled over) attach to the root."""
    mine = [s for s in spans if s["trace_id"] == trace_id]
    if not mine:
        raise ObservabilityError(f"no spans for trace {trace_id}")
    nodes = {s["span_id"]: {"span": s, "children": []} for s in mine}
    roots = []
    orphans = []
    for s in sorted(mine, key=lambda s: s["start_s"]):
        parent = s.get("parent_id")
        if parent is None:
            roots.append(nodes[s["span_id"]])
        elif parent in nodes:
            nodes[parent]["children"].append(nodes[s["span_id"]])
        else:
            orphans.append(nodes[s["span_id"]])
    if not roots:
        raise ObservabilityError(f"trace {trace_id} has no root span")
    roots[0]["children"].extend(orphans)
    return roots[0]


def format_trace(tree: dict, *, indent: int = 0) -> str:
    """Render an assembled trace tree for humans (fanstore-top
    ``--traces``)."""
    span = tree["span"]
    dur = span.get("duration_s")
    dur_text = f"{dur * 1e3:.2f}ms" if dur is not None else "?"
    tag_text = " ".join(
        f"{k}={v}" for k, v in sorted((span.get("tags") or {}).items())
    )
    err = f" ERROR({span['error']})" if span.get("error") else ""
    line = (
        f"{'  ' * indent}{span['name']} rank={span['rank']} "
        f"{dur_text}{err}" + (f" [{tag_text}]" if tag_text else "")
    )
    lines = [line]
    for child in tree["children"]:
        lines.append(format_trace(child, indent=indent + 1))
    return "\n".join(lines)
