"""deadline-propagation: blocking fanstore comm calls must state a
timeout at the call site (explicit None included — it is a decision,
not a default)."""

from __future__ import annotations

import textwrap

from tests.analysis.conftest import lint_mutant, rules_of

RULE = "deadline-propagation"

CLEAN = textwrap.dedent(
    """
    TAG_DAEMON = 0x0FA0

    class Daemon:
        def _serve(self):
            # explicit None: block-forever on purpose
            msg = self.comm.recv_with_status(-1, TAG_DAEMON, timeout=None)
            return msg

        def _request(self, dest, reply_tag, budget):
            return self.comm.recv(dest, reply_tag, budget)

        def load(self):
            self.comm.allgather(self.records, timeout=60.0)
            self.comm.barrier(60.0)
    """
)


class TestDeadlinePropagation:
    def test_explicit_timeouts_are_clean(self, lint_tree):
        report = lint_tree({"fanstore/daemon.py": CLEAN})
        assert not rules_of(report, RULE), report.summary()

    def test_recv_without_timeout_flagged(self, lint_tree):
        src = CLEAN.replace(
            "self.comm.recv(dest, reply_tag, budget)",
            "self.comm.recv(dest, reply_tag)",
        )
        report = lint_tree({"fanstore/daemon.py": src})
        findings = rules_of(report, RULE)
        assert len(findings) == 1
        assert ".recv()" in findings[0].message
        assert "deadline" in findings[0].message

    def test_bare_collectives_flagged(self, lint_tree):
        src = CLEAN.replace(
            "self.comm.allgather(self.records, timeout=60.0)",
            "self.comm.allgather(self.records)",
        ).replace("self.comm.barrier(60.0)", "self.comm.barrier()")
        report = lint_tree({"fanstore/daemon.py": src})
        findings = rules_of(report, RULE)
        assert len(findings) == 2
        assert any(".allgather()" in f.message for f in findings)
        assert any(".barrier()" in f.message for f in findings)

    def test_outside_fanstore_not_scoped(self, lint_tree):
        src = CLEAN.replace(
            "self.comm.recv(dest, reply_tag, budget)",
            "self.comm.recv(dest, reply_tag)",
        )
        report = lint_tree({"comm/helper.py": src})
        assert not rules_of(report, RULE), report.summary()

    def test_nonblocking_calls_exempt(self, lint_tree):
        src = CLEAN + textwrap.dedent(
            """
            class Poller:
                def drain(self):
                    self.comm.send(("fetch", "p"), 0, TAG_DAEMON)
                    return self.comm.try_recv(-1, TAG_DAEMON)
            """
        )
        report = lint_tree({"fanstore/daemon.py": src})
        assert not rules_of(report, RULE), report.summary()

    def test_waiver_applies(self, lint_tree):
        src = CLEAN + textwrap.dedent(
            """
            class Sidecar:
                def wait_forever(self):
                    # lint: allow[deadline-propagation] control plane, not hot path
                    return self.comm.recv(0, TAG_DAEMON)
            """
        )
        report = lint_tree({"fanstore/daemon.py": src})
        findings = rules_of(report, RULE)
        assert len(findings) == 1 and findings[0].waived


ENVELOPE = textwrap.dedent(
    """
    TAG_DAEMON = 0x0FA0

    class Daemon:
        def _request(self, dest, reply_tag, budget):
            wire_body = Request(
                subject="p",
                reply_tag=reply_tag,
                deadline=self._clock() + budget,
                epoch=self._fence_token(),
            ).encode()
            self.comm.send(("fetch", wire_body), dest, TAG_DAEMON)
            return self.comm.recv(dest, reply_tag, budget)
    """
)


class TestEnvelopeDeadlines:
    """A Request envelope must state its expiry at the build site."""

    def test_deadlined_envelope_is_clean(self, lint_tree):
        report = lint_tree({"fanstore/daemon.py": ENVELOPE})
        assert not rules_of(report, RULE), report.summary()

    def test_explicit_none_is_a_visible_decision(self, lint_tree):
        src = ENVELOPE.replace(
            "deadline=self._clock() + budget,", "deadline=None,"
        )
        report = lint_tree({"fanstore/daemon.py": src})
        assert not rules_of(report, RULE), report.summary()

    def test_undeadlined_envelope_flagged(self, lint_tree):
        src = ENVELOPE.replace(
            "            deadline=self._clock() + budget,\n", ""
        )
        report = lint_tree({"fanstore/daemon.py": src})
        findings = rules_of(report, RULE)
        assert len(findings) == 1
        assert "Request envelope" in findings[0].message
        assert "deadline=" in findings[0].message

    def test_kwargs_splat_gets_benefit_of_the_doubt(self, lint_tree):
        src = ENVELOPE.replace(
            "deadline=self._clock() + budget,", "**self._wire_kwargs,"
        )
        report = lint_tree({"fanstore/daemon.py": src})
        assert not rules_of(report, RULE), report.summary()

    def test_outside_fanstore_not_scoped(self, lint_tree):
        src = ENVELOPE.replace(
            "            deadline=self._clock() + budget,\n", ""
        )
        report = lint_tree({"comm/helper.py": src})
        assert not rules_of(report, RULE), report.summary()


def test_self_gate_sees_an_untimed_recv_in_the_real_exchange(tmp_path):
    """Mutation check on the shipped tree: a classic attempt's reply
    ``recv`` without its ``timeout=`` must be exactly one finding."""
    site = "return comm.recv(dest, reply_tag, timeout=timeout)"
    report = lint_mutant(
        tmp_path, "fanstore/exchange.py", site,
        "return comm.recv(dest, reply_tag)", RULE,
    )
    assert len(report.unwaived) == 1, report.summary()
    assert report.unwaived[0].path.endswith("exchange.py")
    assert ".recv() without an explicit timeout" in report.unwaived[0].message
