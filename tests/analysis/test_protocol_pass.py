"""protocol-conformance on fixture daemons: unhandled kinds, unfenced
envelopes."""

from __future__ import annotations

import textwrap

from tests.analysis.conftest import lint_mutant, rules_of

CONFORMING = textwrap.dedent(
    """
    TAG_DAEMON = 0x0FA0

    class Daemon:
        def _serve(self):
            while True:
                kind, body = self.comm.recv(-1, TAG_DAEMON, timeout=None)
                if kind == "stop":
                    break
                if kind not in ("fetch", "stat"):
                    continue
                request = decode_request(body)

        def _request(self, kind, body, dest):
            reply_tag = self._next_tag()
            ctx = self.tracer.current_context()
            wire_body = Request(
                subject=body,
                reply_tag=reply_tag,
                trace_ctx=None if ctx is None else ctx.as_wire(),
                deadline=self._clock() + self.timeout,
                epoch=self._fence_token(),
            ).encode()
            self.comm.send((kind, wire_body), dest, TAG_DAEMON)
            return self.comm.recv(dest, reply_tag, timeout=self.timeout)

        def fetch(self, path):
            return self._request("fetch", path, 0)

        def stop(self):
            self.comm.send(("stop", None), 0, TAG_DAEMON)
    """
)


class TestProtocolConformance:
    def test_conforming_daemon_is_clean(self, lint_tree):
        report = lint_tree({"fanstore/daemon.py": CONFORMING})
        assert not rules_of(report, "protocol-conformance"), report.summary()

    def test_unhandled_kind_via_helper_flagged(self, lint_tree):
        src = CONFORMING + textwrap.dedent(
            """
            class Client:
                def evict(self, daemon, path):
                    return daemon._request("evict", path, 0)
            """
        )
        report = lint_tree({"fanstore/daemon.py": src})
        findings = rules_of(report, "protocol-conformance")
        assert len(findings) == 1
        assert "'evict'" in findings[0].message
        assert "wait forever" in findings[0].message

    def test_unhandled_kind_via_direct_send_flagged(self, lint_tree):
        src = CONFORMING.replace(
            'self.comm.send(("stop", None), 0, TAG_DAEMON)',
            'self.comm.send(("halt", None), 0, TAG_DAEMON)',
        )
        report = lint_tree({"fanstore/daemon.py": src})
        findings = rules_of(report, "protocol-conformance")
        assert len(findings) == 1 and "'halt'" in findings[0].message

    def test_missing_fenced_form_flagged(self, lint_tree):
        src = CONFORMING.replace(
            "            epoch=self._fence_token(),\n", ""
        )
        report = lint_tree({"fanstore/daemon.py": src})
        findings = rules_of(report, "protocol-conformance")
        assert len(findings) == 1
        assert "without an epoch= fencing token" in findings[0].message

    def test_waiver_applies(self, lint_tree):
        src = CONFORMING + textwrap.dedent(
            """
            class Client:
                def evict(self, daemon, path):
                    # lint: allow[protocol-conformance] arm lands in the next PR
                    return daemon._request("evict", path, 0)
            """
        )
        report = lint_tree({"fanstore/daemon.py": src})
        findings = rules_of(report, "protocol-conformance")
        assert findings and findings[0].waived


ENVELOPE = textwrap.dedent(
    """
    TAG_DAEMON = 0x0FA0

    class Daemon:
        def _serve(self):
            while True:
                kind, body = self.comm.recv(-1, TAG_DAEMON, timeout=None)
                if kind not in ("fetch", "batch"):
                    continue
                request = decode_request(body)

        def _exchange_batch(self, dest, items):
            reply_tag = self._next_tag()
            request = Request(
                subject=None,
                reply_tag=reply_tag,
                trace_ctx=None,
                deadline=self._clock() + self.timeout,
                epoch=self._fence_token(),
                batch=tuple(items),
            )
            self.comm.send(("batch", request.encode()), dest, TAG_DAEMON)
            return self.comm.recv(dest, reply_tag, timeout=self.timeout)
    """
)


class TestEnvelopeConformance:
    """Every envelope is held to the fencing bar, not only the ones a
    kind-forwarding request helper builds."""

    def test_fenced_envelope_is_clean(self, lint_tree):
        report = lint_tree({"fanstore/daemon.py": ENVELOPE})
        assert not rules_of(report, "protocol-conformance"), report.summary()

    def test_unfenced_envelope_flagged(self, lint_tree):
        src = ENVELOPE.replace(
            "            epoch=self._fence_token(),\n", ""
        )
        report = lint_tree({"fanstore/daemon.py": src})
        findings = rules_of(report, "protocol-conformance")
        assert len(findings) == 1
        assert "without an epoch= fencing token" in findings[0].message

    def test_envelope_counts_as_wire_form_beside_tuples(self, lint_tree):
        # a bare tuple is not a wire form the protocol defines, so the
        # pass has nothing to say about one: only envelopes are judged
        src = ENVELOPE.replace(
            "        self.comm.send((\"batch\", request.encode()), dest, TAG_DAEMON)",
            "        scratch = (items, reply_tag)\n"
            "        self.comm.send((\"batch\", request.encode()), dest, TAG_DAEMON)",
        )
        assert src != ENVELOPE
        report = lint_tree({"fanstore/daemon.py": src})
        assert not rules_of(report, "protocol-conformance"), report.summary()

    def test_a_wire_tuple_is_judged_like_an_envelope(self, lint_tree):
        # the envelope built at once in its wire form (what
        # Request(...).encode() returns) must reach its epoch slot; the
        # bare (WIRE_MAGIC, WIRE_VERSION) prefix is no envelope
        wire = (
            "        wire = (WIRE_MAGIC, WIRE_VERSION, None, reply_tag, None,\n"
            "                self._clock() + self.timeout{epoch_and_batch})\n"
            "        prefix = (WIRE_MAGIC, WIRE_VERSION)\n"
            "        self.comm.send((\"batch\", request.encode()), dest, TAG_DAEMON)"
        )
        site = (
            "        self.comm.send((\"batch\", request.encode()), dest, TAG_DAEMON)"
        )
        fenced = ENVELOPE.replace(site, wire.format(
            epoch_and_batch=", self._fence_token(), None"
        ))
        unfenced = ENVELOPE.replace(site, wire.format(epoch_and_batch=""))
        assert fenced != ENVELOPE and unfenced != ENVELOPE
        report = lint_tree({"fanstore/daemon.py": fenced})
        assert not rules_of(report, "protocol-conformance"), report.summary()
        findings = rules_of(
            lint_tree({"fanstore/daemon.py": unfenced}),
            "protocol-conformance",
        )
        assert len(findings) == 1
        assert "without an epoch= fencing token" in findings[0].message

    def test_envelope_outside_fanstore_is_out_of_scope(self, lint_tree):
        # ``Request`` is also the comm layer's async handle; only
        # repro/fanstore builds wire envelopes
        src = ENVELOPE.replace(
            "            epoch=self._fence_token(),\n", ""
        )
        report = lint_tree({"comm/communicator.py": src})
        assert not rules_of(report, "protocol-conformance"), report.summary()


PIPELINED = textwrap.dedent(
    """
    TAG_DAEMON = 0x0FA0

    class Daemon:
        def _serve(self):
            while True:
                msg = self.comm.recv(-1, TAG_DAEMON, timeout=None)
                if self._admit(msg):
                    return
                self._serve_one(self.queue.pop())

        def _admit(self, msg):
            kind, body = msg
            if kind == "stop":
                return True
            self.queue.push((kind, decode_request(body)))
            return False

        def _serve_one(self, entry):
            kind, request = entry
            answer = self._answer(kind, request.subject)
            self.comm.send(answer, 0, request.reply_tag)

        def _answer(self, kind, subject):
            if kind == "fetch":
                return "ok", self.backend.get(subject)
            if kind == "stat":
                return "ok", self.metadata.get(subject)
            return None

        def _request(self, kind, body, dest):
            reply_tag = self._next_tag()
            wire_body = Request(
                subject=body, reply_tag=reply_tag, epoch=self._fence_token()
            ).encode()
            self.comm.send((kind, wire_body), dest, TAG_DAEMON)
            return self.comm.recv(dest, reply_tag, timeout=self.timeout)

        def _batched_request(self, kind, subject, dest):
            if self._take_baton(dest):
                return self._request(kind, subject, dest)
            return self._park(kind, subject, dest)

        def stat(self, path):
            return self._batched_request("stat", path, 0)

        def fetch(self, path):
            return self._batched_request("fetch", path, 0)
    """
)


class TestPipelinedDaemonShape:
    """The real daemon's shape: the receive loop compares no strings
    (it admits and dispatches; the arms live two ``self.`` calls down)
    and most kinds are emitted through a helper that forwards its own
    parameter to the request helper. Invariant 1 must still bite."""

    def test_conforming_pipelined_daemon_is_clean(self, lint_tree):
        report = lint_tree({"fanstore/daemon.py": PIPELINED})
        assert not rules_of(report, "protocol-conformance"), report.summary()

    def test_unhandled_kind_through_forwarding_helper_flagged(self, lint_tree):
        src = PIPELINED.replace(
            'self._batched_request("fetch", path, 0)',
            'self._batched_request("evict", path, 0)',
        )
        assert src != PIPELINED
        report = lint_tree({"fanstore/daemon.py": src})
        findings = rules_of(report, "protocol-conformance")
        assert len(findings) == 1
        assert "'evict'" in findings[0].message
        assert "fetch, stat, stop" in findings[0].message

    def test_self_gate_sees_a_bogus_kind_in_the_real_daemon(self, tmp_path):
        """Mutation check on the shipped tree: rewrite one ``"fetch"`` at
        the daemon's call site of the exchange's ``ask_batched`` (the
        helper lives in ``exchange.py``, the dispatcher in
        ``daemon.py``) and the pass must say so — the clean verdict of
        ``test_project_clean`` is only worth something while this
        holds."""
        site = 'exchange.ask_batched(\n                        "fetch", norm,'
        report = lint_mutant(
            tmp_path, "fanstore/daemon.py", site,
            site.replace("fetch", "bogus_kind"), "protocol-conformance",
        )
        assert len(report.unwaived) == 1, report.summary()
        assert "'bogus_kind'" in report.unwaived[0].message
        assert report.unwaived[0].path.endswith("daemon.py")


SERVER = textwrap.dedent(
    """
    TAG_DAEMON = 0x0FA0

    class Daemon:
        def _serve(self):
            while True:
                kind, body = self.comm.recv(-1, TAG_DAEMON, timeout=None)
                if kind not in ("fetch", "stat"):
                    continue
                self._answer(kind, decode_request(body))
    """
)

ASKER = textwrap.dedent(
    """
    from fanstore.server import TAG_DAEMON

    class Asker:
        def _send_recv(self, kind, body, dest):
            wire_body = Request(
                subject=body, reply_tag=7, deadline=None,
                epoch=self._fence(),
            ).encode()
            self.comm.send((kind, wire_body), dest, TAG_DAEMON)
            return self.comm.recv(dest, 7, timeout=self.timeout)

        def ask_politely(self, kind, body, dest):
            return self._send_recv(kind, body, dest)
    """
)

CALLER = textwrap.dedent(
    """
    class Reader:
        def read(self, path):
            return self.asker.ask_politely("fetch", path, 1)
    """
)


class TestProjectWide:
    """Emitter, request helper and dispatcher in three files: the
    protocol is one protocol however the code is split."""

    def _lint(self, lint_tree, caller: str):
        return rules_of(lint_tree({
            "fanstore/server.py": SERVER,
            "fanstore/asker.py": ASKER,
            "fanstore/reader.py": caller,
        }), "protocol-conformance")

    def test_a_kind_the_far_dispatcher_handles_is_clean(self, lint_tree):
        assert self._lint(lint_tree, CALLER) == []

    def test_a_kind_the_far_dispatcher_lacks_is_flagged(self, lint_tree):
        findings = self._lint(
            lint_tree, CALLER.replace('"fetch"', '"evict"')
        )
        assert len(findings) == 1
        assert findings[0].path.endswith("reader.py")
        assert "'evict'" in findings[0].message
        assert "Daemon._serve" in findings[0].message
