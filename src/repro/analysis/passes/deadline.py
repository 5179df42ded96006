"""*deadline-propagation*: every blocking comm call on the fanstore hot
path states its time budget at the call site.

The gray-failure work (deadlines in the wire body, retries budgeted
against the remaining deadline) only holds up if no call quietly falls
back to a library default: a ``recv`` that inherits the communicator's
60-second default in the middle of a deadline-capped retry ladder is
exactly the stacking bug the deadline machinery exists to kill. This
pass walks every file under ``repro/fanstore`` and flags blocking
communicator round-trips — ``recv``, ``recv_with_status``, and the
collectives — that pass no explicit ``timeout``/deadline argument.

An explicit ``timeout=None`` is accepted: it states *on purpose, block
forever* (the daemon's idle serve loop does this), which is a visible
decision rather than an inherited default. ``try_recv`` and eager
``send`` never block and are out of scope.

The typed wire envelope is held to the same bar: a
``Request(...)`` constructor call in fanstore code without a
``deadline=`` keyword ships a request the server can never drop as
expired — every envelope must state its expiry (``deadline=None`` is,
again, a visible opt-out). Genuine exceptions use the standard waiver
syntax::

    comm.recv(peer, tag)  # lint: allow[deadline-propagation] reason
"""

from __future__ import annotations

import ast
from typing import Iterable

from repro.analysis.core import Finding, LintPass, Project, SourceFile

#: blocking communicator methods -> positional index of their timeout
#: parameter (after ``self``), per ``repro.comm.communicator``.
TIMEOUT_POS = {
    "recv": 2,  # (source, tag, timeout)
    "recv_with_status": 2,  # (source, tag, timeout)
    "barrier": 0,  # (timeout)
    "allgather": 1,  # (value, timeout)
    "allreduce": 2,  # (value, op, timeout)
}


def _missing_timeout(call: ast.Call) -> str | None:
    """The blocking method name when ``call`` passes no explicit
    timeout; None when the call is out of scope or already explicit."""
    fn = call.func
    if not isinstance(fn, ast.Attribute):
        return None
    pos = TIMEOUT_POS.get(fn.attr)
    if pos is None:
        return None
    if any(kw.arg == "timeout" for kw in call.keywords):
        return None
    if any(kw.arg is None for kw in call.keywords):
        return None  # **kwargs may carry it; give the benefit of the doubt
    args = call.args
    if any(isinstance(a, ast.Starred) for a in args):
        return None  # *args may carry it
    if len(args) > pos:
        return None
    return fn.attr


class DeadlinePropagationPass(LintPass):
    rule = "deadline-propagation"
    title = "blocking fanstore comm calls carry an explicit timeout"

    def run(self, project: Project) -> Iterable[Finding]:
        findings: list[Finding] = []
        for src in project:
            if src.parse_error is not None:
                continue
            if "fanstore/" not in src.display.replace("\\", "/"):
                continue
            findings.extend(self._check_file(src))
        return findings

    def _check_file(self, src: SourceFile) -> list[Finding]:
        findings = []
        for node in ast.walk(src.tree):
            if not isinstance(node, ast.Call):
                continue
            if self._is_undeadlined_envelope(node):
                findings.append(
                    self.finding(
                        src,
                        node.lineno,
                        "Request envelope built without a deadline= "
                        "keyword; the server can never drop this request "
                        "as expired (pass deadline=None to state 'no "
                        "expiry' on purpose)",
                    )
                )
                continue
            method = _missing_timeout(node)
            if method is None:
                continue
            findings.append(
                self.finding(
                    src,
                    node.lineno,
                    f".{method}() without an explicit timeout inherits the "
                    "communicator default and breaks deadline budgeting; "
                    "pass the remaining deadline (or timeout=None to state "
                    "'block forever' on purpose)",
                )
            )
        return findings

    @staticmethod
    def _is_undeadlined_envelope(call: ast.Call) -> bool:
        fn = call.func
        name = fn.id if isinstance(fn, ast.Name) else (
            fn.attr if isinstance(fn, ast.Attribute) else None
        )
        if name != "Request":
            return False
        if any(kw.arg is None for kw in call.keywords):
            return False  # **kwargs may carry it
        return not any(kw.arg == "deadline" for kw in call.keywords)
