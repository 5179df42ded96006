"""*blocking-under-lock*: nothing slow or fallible may run while a
fanstore lock is held.

The daemon service thread and the client hot path take small in-memory
locks (cache map, route table, reply mutex); holding one across a
communicator round-trip, a ``time.sleep`` backoff, file I/O, or a
decompression call turns a microsecond critical section into a
millisecond one and — for comm calls — can deadlock against the peer
trying to acquire the same lock. The pass walks every held-lock region
(interprocedurally, via :mod:`repro.analysis.locks`) inside
``repro/fanstore`` and flags the calls below.

Condition-protocol calls (``wait``/``notify``) are exempt: ``wait``
releases the lock by contract.
"""

from __future__ import annotations

import ast
from typing import Iterable

from repro.analysis.core import Finding, LintPass, Project
from repro.analysis.locks import CallEvent, LockModel

#: communicator round-trips (block until a peer acts)
BLOCKING_COMM = {
    "send",
    "recv",
    "sendrecv",
    "allgather",
    "allreduce",
    "gather",
    "scatter",
    "broadcast",
    "barrier",
}
#: explicitly non-blocking / lock-protocol attribute calls
EXEMPT_ATTRS = {
    "try_recv",
    "wait",
    "wait_for",
    "notify",
    "notify_all",
    "acquire",
    "release",
}
#: filesystem touches
FILE_IO_ATTRS = {
    "read_bytes",
    "read_text",
    "write_bytes",
    "write_text",
    "fsync",
    "replace",
    "rename",
}
#: (de)compression entry points
CODEC_ATTRS = {"compress", "decompress"}


def _describe(call: ast.Call) -> str | None:
    """Classify one call; None means not a blocking operation."""
    fn = call.func
    if isinstance(fn, ast.Name):
        if fn.id == "open":
            return "file I/O (open)"
        return None
    if not isinstance(fn, ast.Attribute):
        return None
    attr = fn.attr
    if attr in EXEMPT_ATTRS:
        return None
    base = fn.value.id if isinstance(fn.value, ast.Name) else None
    if base == "time" and attr == "sleep":
        return "time.sleep"
    if base == "os" and attr in ("open", "fsync", "replace", "rename", "remove"):
        return f"file I/O (os.{attr})"
    if attr in FILE_IO_ATTRS:
        return f"file I/O (.{attr})"
    if attr in CODEC_ATTRS:
        return f"(de)compression (.{attr})"
    if attr in BLOCKING_COMM:
        return f"communicator round-trip (.{attr})"
    return None


class BlockingUnderLockPass(LintPass):
    rule = "blocking-under-lock"
    title = "no comm/sleep/I-O/codec calls inside held-lock regions"

    def run(self, project: Project) -> Iterable[Finding]:
        model = LockModel(project)
        seen: set[tuple[str, int, str]] = set()
        findings: list[Finding] = []

        def on_call(ev: CallEvent) -> None:
            what = _describe(ev.call)
            if what is None:
                return
            held = ", ".join(lock.key for lock in ev.held)
            key = (ev.source.display, ev.call.lineno, what)
            if key in seen:
                return
            seen.add(key)
            findings.append(
                Finding(
                    rule=self.rule,
                    path=ev.source.display,
                    line=ev.call.lineno,
                    message=(
                        f"{what} while holding {held} "
                        f"(reached via {ev.entry})"
                    ),
                )
            )

        model.walk_all(
            on_call=on_call,
            class_filter=lambda cm: "fanstore/" in cm.source.display.replace(
                "\\", "/"
            ),
        )
        return findings
