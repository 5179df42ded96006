"""The layer ledger: spans recorded from outside the program.

Probes are wrappers the benchmark installs *at run time* on instance,
class and module attributes of the program's callables; each call
records one span ``(id, name, start, end, parent, op, thread)`` in
memory. Nothing inside ``src/`` knows about them. A span's layer is the
part of its name before the first dot. A layer's *self time* is its
spans' duration minus the part covered by their child spans, so the
self times of one operation's spans add up to the operation's duration;
the root span's own self time — time no probe claimed — is reported as
``unattributed``, never hidden.

The benchmark drives one closed-loop client, so at any instant at most
one operation is in flight: spans recorded on *other* threads (the peer
rank serving a fetch) are charged to it. While the client waits in
``comm.recv`` those server spans claim their share of the wait; what is
left of the wait is the request pipeline's: admission, scheduling and
the thread hand-offs (``pipeline`` in the ledger).

A probe whose target no longer exists is recorded in
:attr:`Ledger.missing` instead of failing, so a refactor of the program
cannot break the benchmark.
"""

from __future__ import annotations

import itertools
import json
import threading
import time
from collections import defaultdict
from pathlib import Path
from typing import Any, Callable

_ABSENT = object()

#: span tuple fields
ID, NAME, START, END, PARENT, OP, THREAD = range(7)


def _set(owner: Any, attr: str, value: Any) -> None:
    """``owner.attr = value`` (``_ABSENT`` deletes it, so the class
    attribute shows again), also on a frozen dataclass instance."""
    try:
        if value is _ABSENT:
            delattr(owner, attr)
        else:
            setattr(owner, attr, value)
    except AttributeError:  # dataclasses.FrozenInstanceError
        if value is _ABSENT:
            object.__delattr__(owner, attr)
        else:
            object.__setattr__(owner, attr, value)


def layer_of(name: str) -> str:
    return name.split(".", 1)[0]


class Ledger:
    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self.missing: list[str] = []
        #: id of the benchmark operation in flight (0 = none)
        self.op = 0
        self._ids = itertools.count(1)
        self._stacks = threading.local()
        self._installed: list[tuple[Any, str, Any]] = []

    # -- recording ----------------------------------------------------------

    def probe(self, name: str, fn: Callable, *, root: bool = False) -> Callable:
        """``fn`` wrapped to record one span per call. A ``root`` probe
        also starts a new operation."""
        spans = self.spans
        stacks = self._stacks
        ids = self._ids
        clock = time.perf_counter
        ident = threading.get_ident

        def probed(*args, **kwargs):
            try:
                stack = stacks.stack
            except AttributeError:
                stack = stacks.stack = []
            span_id = next(ids)
            if root:
                self.op = span_id
            parent = stack[-1] if stack else 0
            stack.append(span_id)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans.append(
                    (span_id, name, start, end, parent, self.op, ident())
                )
                if root:
                    self.op = 0

        return probed

    def install(self, name: str, owner: Any, attr: str) -> None:
        """Probe ``owner.attr`` in place (``owner`` may be an instance, a
        class or a module; ``None`` or a missing attribute is recorded
        as ``probe_missing``)."""
        if owner is None or not hasattr(owner, attr):
            if name not in self.missing:
                self.missing.append(name)
            return
        self._installed.append((owner, attr, vars(owner).get(attr, _ABSENT)))
        _set(owner, attr, self.probe(name, getattr(owner, attr)))

    def uninstall(self) -> None:
        for owner, attr, own in reversed(self._installed):
            _set(owner, attr, own)
        self._installed.clear()

    # -- accounting ---------------------------------------------------------

    def account(self, root_name: str) -> dict[str, Any]:
        """Per-operation means, in microseconds, over every operation
        whose root span is ``root_name``: the end-to-end duration, each
        layer's self time, the pipeline's share of the ``comm.recv``
        waits, and the unattributed rest. They add up exactly."""
        roots = {s[ID]: s for s in self.spans if s[NAME] == root_name}
        if not roots:
            return {"ops": 0, "e2e_us": 0.0, "layers": {}, "unattributed_us": 0.0}
        children = self._covered()
        client_thread = {s[OP]: s[THREAD] for s in roots.values()}
        layers: dict[str, float] = defaultdict(float)
        waits = defaultdict(float)   # op -> client time inside comm.recv
        served = defaultdict(float)  # op -> peer-thread span time
        for span in self.spans:
            op = span[OP]
            if op not in roots or span[ID] in roots:
                continue
            own = span[END] - span[START] - children[span[ID]]
            on_client = span[THREAD] == client_thread[op]
            if on_client and span[NAME] == "comm.recv":
                waits[op] += own
                continue
            layers[layer_of(span[NAME])] += own
            if not on_client:
                served[op] += own
        layers["pipeline"] += sum(waits[op] - served[op] for op in waits)
        total = sum(s[END] - s[START] for s in roots.values())
        unattributed = sum(
            s[END] - s[START] - children[s[ID]] for s in roots.values()
        )
        # peer spans were charged to their layers *and* sit inside the
        # client's wait, which is a child of the root: no double count,
        # because the wait itself was replaced by (served + pipeline)
        ops = len(roots)
        return {
            "ops": ops,
            "e2e_us": total / ops * 1e6,
            "layers": {k: v / ops * 1e6 for k, v in sorted(layers.items())},
            "unattributed_us": unattributed / ops * 1e6,
        }

    def _covered(self) -> dict[int, float]:
        """Span id -> seconds of it covered by its child spans."""
        covered: dict[int, float] = defaultdict(float)
        for span in self.spans:
            if span[PARENT]:
                covered[span[PARENT]] += span[END] - span[START]
        return covered

    def spans_named(self, name: str) -> list[tuple]:
        return [s for s in self.spans if s[NAME] == name]

    def self_us(self, root_name: str, *names: str) -> float:
        """Mean self time per ``root_name`` operation of the spans named
        ``names``, microseconds."""
        in_ops = {s[ID] for s in self.spans if s[NAME] == root_name}
        if not in_ops:
            return 0.0
        ops = len(in_ops)
        covered = self._covered()
        total = sum(
            s[END] - s[START] - covered[s[ID]]
            for s in self.spans if s[NAME] in names and s[OP] in in_ops
        )
        return total / ops * 1e6

    # -- export -------------------------------------------------------------

    def dump(self, path: Path, header: dict, summary: dict) -> None:
        """``ledger.jsonl``: a header line, one line per span, a summary
        line (README.md says how to read it)."""
        with open(path, "w", encoding="utf-8") as out:
            out.write(json.dumps({"type": "header", **header}) + "\n")
            for s in self.spans:
                out.write(json.dumps({
                    "type": "span", "id": s[ID], "name": s[NAME],
                    "layer": layer_of(s[NAME]), "start": s[START],
                    "end": s[END], "parent": s[PARENT], "op": s[OP],
                    "thread": s[THREAD],
                }) + "\n")
            out.write(json.dumps({"type": "summary", **summary}) + "\n")
