"""*protocol-conformance*: the wire protocol's two invariants.

FanStore's request/reply protocol is convention, not schema: requests
are ``(kind, body)`` tuples on a well-known tag (``TAG_DAEMON``,
``TAG_MEMBER``), dispatched by string-matching ``kind`` in a serve
loop, and every daemon body is a typed envelope
(``Request(...).encode()``, see :mod:`repro.fanstore.wire`). This pass
recovers the protocol from the AST and checks:

1. every ``kind`` emitted on a tag has a matching dispatch arm in that
   tag's serve loop (an unhandled kind hangs the sender forever — the
   reply never comes);
2. every ``Request(...)`` envelope built under ``repro/fanstore``
   carries an ``epoch=`` fencing token (an envelope without one is a
   mutation the server can never fence as stale — split-brain
   protection silently dropped; ``epoch=None`` is a visible opt-out),
   and so does every envelope built directly in its wire form, a tuple
   display led by ``WIRE_MAGIC``: it must list the fields up to and
   including the epoch, the seventh.

Recognised idioms: a *dispatcher* is any method that calls
``recv``/``try_recv`` with a ``TAG_<NAME>`` constant; its handled kinds
are the string literals compared against a name inside it *or inside
any method of its class it reaches through* ``self.<method>(...)``
*calls* (the real daemon's receive loop only admits; the arms live two
calls down). A *request helper* is a method that sends ``(param, ...)``
on a tag, where ``param`` is one of its own parameters, or that
forwards such a parameter as the kind to another request helper —
calls to it with a literal in that parameter's position emit the
literal as a kind. An *envelope* is a call to a constructor named
``Request``.

Dispatchers, helpers and emitted kinds are collected project-wide: a
kind emitted in one file through a helper in another meets the
dispatcher of a third. Helpers match by method name, so a helper must
not be named like a common method (``request``, say).
"""

from __future__ import annotations

import ast
import re
from typing import Iterable

from repro.analysis.core import Finding, LintPass, Project, SourceFile

_TAG_RE = re.compile(r"^TAG_[A-Z_0-9]+$")

#: where the fencing token sits in a request envelope's wire tuple
#: (magic, version, subject, reply_tag, trace_ctx, deadline, epoch, ...)
_WIRE_EPOCH_SLOT = 6


def _terminal_name(node: ast.expr) -> str | None:
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    return None


def _tag_of(node: ast.expr) -> str | None:
    name = _terminal_name(node)
    if name is not None and _TAG_RE.match(name):
        return name
    return None


def _recv_tag(call: ast.Call) -> str | None:
    """The TAG_* constant a ``recv``/``try_recv`` call listens on."""
    fn = call.func
    if not (isinstance(fn, ast.Attribute) and fn.attr in ("recv", "try_recv")):
        return None
    for arg in call.args[1:2]:  # (source, tag, ...)
        return _tag_of(arg)
    return None


def _send_parts(call: ast.Call) -> tuple[ast.expr, str] | None:
    """For ``x.send(payload, dest, TAG_*)``: (payload, tag name)."""
    fn = call.func
    if not (isinstance(fn, ast.Attribute) and fn.attr == "send"):
        return None
    if len(call.args) < 3:
        return None
    tag = _tag_of(call.args[2])
    if tag is None:
        return None
    return call.args[0], tag


def _emitted(
    call: ast.Call, helpers: dict[str, tuple[str, int]]
) -> tuple[str, str] | None:
    """``(tag, kind)`` when ``call`` emits a literal kind: a direct
    ``send(("kind", ...), dest, TAG_*)``, or a call to a request helper
    with a string literal in the helper's kind position."""
    parts = _send_parts(call)
    if parts is not None:
        payload, tag = parts
        if not (isinstance(payload, ast.Tuple) and payload.elts):
            return None
        kind = payload.elts[0]
    else:
        fn = call.func
        if not (isinstance(fn, ast.Attribute) and fn.attr in helpers):
            return None
        tag, pos = helpers[fn.attr]
        if len(call.args) <= pos:
            return None
        kind = call.args[pos]
    if isinstance(kind, ast.Constant) and isinstance(kind.value, str):
        return tag, kind.value
    return None


class _MethodInfo:
    def __init__(
        self, src: SourceFile, cls: str, node: ast.FunctionDef
    ) -> None:
        self.src = src
        self.cls = cls
        self.node = node
        #: positional parameters as a caller counts them (no ``self``)
        self.params = [a.arg for a in node.args.args][1:]
        self.calls = [
            n for n in ast.walk(node)
            if isinstance(n, ast.Call) and isinstance(n.func, ast.Attribute)
        ]


def _methods(src: SourceFile) -> list[_MethodInfo]:
    out = []
    for cls in ast.walk(src.tree):
        if isinstance(cls, ast.ClassDef):
            for item in cls.body:
                if isinstance(item, ast.FunctionDef):
                    out.append(_MethodInfo(src, cls.name, item))
    return out


class ProtocolConformancePass(LintPass):
    rule = "protocol-conformance"
    title = "every emitted kind has a dispatch arm; every envelope is fenced"

    def run(self, project: Project) -> Iterable[Finding]:
        sources = [src for src in project if src.parse_error is None]
        methods = [m for src in sources for m in _methods(src)]
        dispatchers: dict[str, _MethodInfo] = {}
        for m in methods:
            for node in m.calls:
                tag = _recv_tag(node)
                if tag is not None:
                    dispatchers.setdefault(tag, m)

        # kind-forwarding request helpers, method name -> (tag, position
        # of the kind parameter): a method that sends (own param, ...) on
        # a tag, or — to a fixpoint — passes an own param as the kind of
        # a call to a known helper
        helpers: dict[str, tuple[str, int]] = {}
        for m in methods:
            for node in m.calls:
                parts = _send_parts(node)
                if parts is None:
                    continue
                payload, tag = parts
                if (
                    isinstance(payload, ast.Tuple)
                    and payload.elts
                    and isinstance(payload.elts[0], ast.Name)
                    and payload.elts[0].id in m.params
                ):
                    helpers.setdefault(
                        m.node.name, (tag, m.params.index(payload.elts[0].id))
                    )
        grew = True
        while grew:
            grew = False
            for m in methods:
                if m.node.name in helpers:
                    continue
                for node in m.calls:
                    tag, pos = helpers.get(node.func.attr, (None, 0))
                    if (
                        tag is not None
                        and len(node.args) > pos
                        and isinstance(node.args[pos], ast.Name)
                        and node.args[pos].id in m.params
                    ):
                        helpers[m.node.name] = (
                            tag, m.params.index(node.args[pos].id)
                        )
                        grew = True
                        break

        # emitted kinds: direct literal sends + literal calls to helpers
        emitted: dict[str, list[tuple[str, SourceFile, int]]] = {}
        for src in sources:
            for node in ast.walk(src.tree):
                if not isinstance(node, ast.Call):
                    continue
                hit = _emitted(node, helpers)
                if hit is not None:
                    tag, kind = hit
                    emitted.setdefault(tag, []).append(
                        (kind, src, node.lineno)
                    )

        findings: list[Finding] = []

        # 1. every emitted kind must have a dispatch arm
        for tag, kinds in sorted(emitted.items()):
            dispatcher = dispatchers.get(tag)
            if dispatcher is None:
                continue  # replies / tags consumed without kind dispatch
            handled = self._handled_kinds(dispatcher, methods)
            if not handled:
                continue  # receive loop without string dispatch
            for kind, src, lineno in kinds:
                if kind not in handled:
                    findings.append(
                        self.finding(
                            src,
                            lineno,
                            f"kind '{kind}' emitted on {tag} has no arm in "
                            f"{dispatcher.cls}.{dispatcher.node.name} "
                            f"(handles: {', '.join(sorted(handled))}); the "
                            "sender would wait forever",
                        )
                    )

        # 2. every envelope carries a fencing token
        for src in sources:
            if "fanstore/" in src.display.replace("\\", "/"):
                findings.extend(self._check_envelopes(src))
        return findings

    @staticmethod
    def _handled_kinds(
        dispatcher: _MethodInfo, methods: list[_MethodInfo]
    ) -> set[str]:
        """String literals compared against a name in the dispatcher or
        in any same-class method reachable from it via ``self.`` calls."""
        by_name = {
            m.node.name: m for m in methods
            if m.src is dispatcher.src and m.cls == dispatcher.cls
        }
        reached = {dispatcher.node.name: dispatcher}
        frontier = [dispatcher]
        while frontier:
            for call in frontier.pop().calls:
                fn = call.func
                if (
                    isinstance(fn.value, ast.Name)
                    and fn.value.id == "self"
                    and fn.attr in by_name
                    and fn.attr not in reached
                ):
                    reached[fn.attr] = by_name[fn.attr]
                    frontier.append(by_name[fn.attr])
        handled: set[str] = set()
        for node in (n for m in reached.values() for n in ast.walk(m.node)):
            if not isinstance(node, ast.Compare):
                continue
            if not isinstance(node.left, ast.Name):
                continue
            for op, comp in zip(node.ops, node.comparators):
                if isinstance(op, (ast.Eq, ast.NotEq)):
                    if isinstance(comp, ast.Constant) and isinstance(
                        comp.value, str
                    ):
                        handled.add(comp.value)
                elif isinstance(op, (ast.In, ast.NotIn)):
                    if isinstance(comp, (ast.Tuple, ast.List, ast.Set)):
                        for elt in comp.elts:
                            if isinstance(elt, ast.Constant) and isinstance(
                                elt.value, str
                            ):
                                handled.add(elt.value)
        return handled

    def _check_envelopes(self, src: SourceFile) -> list[Finding]:
        return [
            self.finding(
                src,
                node.lineno,
                "request envelope built without an epoch= fencing token; "
                "the server cannot reject this request when it was "
                "decided under a stale membership view",
            )
            for node in ast.walk(src.tree)
            if (
                isinstance(node, ast.Call)
                and _terminal_name(node.func) == "Request"
                and not any(kw.arg == "epoch" for kw in node.keywords)
            ) or (
                # the wire form built at once, short of its epoch slot;
                # the bare (WIRE_MAGIC, WIRE_VERSION) prefix is no envelope
                isinstance(node, ast.Tuple)
                and 2 < len(node.elts) <= _WIRE_EPOCH_SLOT
                and _terminal_name(node.elts[0]) == "WIRE_MAGIC"
            )
        ]
