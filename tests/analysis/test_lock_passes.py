"""lock-order and blocking-under-lock on fixture trees: positive,
waived, and clean cases."""

from __future__ import annotations

import textwrap

from tests.analysis.conftest import lint_mutant, rules_of

ABBA = textwrap.dedent(
    '''
    import threading

    class Metadata:
        def __init__(self, daemon: "Daemon"):
            self._lock = threading.Lock()
            self.daemon = daemon

        def merge(self):
            with self._lock:
                self.daemon.publish()

    class Daemon:
        def __init__(self):
            self._lock = threading.Lock()
            self.metadata = Metadata(self)

        def publish(self):
            with self._lock:
                pass

        def lookup(self):
            with self._lock:
                self.metadata.merge()
    '''
)


class TestLockOrder:
    def test_cross_class_cycle_detected(self, lint_tree):
        report = lint_tree({"fanstore/daemon.py": ABBA})
        findings = rules_of(report, "lock-order")
        assert findings, report.summary()
        assert "cycle" in findings[0].message
        assert "Daemon._lock" in findings[0].message
        assert "Metadata._lock" in findings[0].message

    def test_file_scope_waiver_with_reason(self, lint_tree):
        waived = (
            "# lint: file-allow[lock-order] fixture: inversion is the point\n"
            + ABBA
        )
        report = lint_tree({"fanstore/daemon.py": waived})
        assert not [f for f in rules_of(report, "lock-order") if not f.waived]
        assert any(f.waived for f in rules_of(report, "lock-order"))

    def test_plain_lock_self_reacquire_flagged(self, lint_tree):
        src = textwrap.dedent(
            """
            import threading

            class Cache:
                def __init__(self):
                    self._lock = threading.Lock()

                def outer(self):
                    with self._lock:
                        self.inner()

                def inner(self):
                    with self._lock:
                        pass
            """
        )
        report = lint_tree({"fanstore/cache.py": src})
        findings = rules_of(report, "lock-order")
        assert findings and "self-deadlock" in findings[0].message

    def test_rlock_reentrancy_is_clean(self, lint_tree):
        src = textwrap.dedent(
            """
            import threading

            class Table:
                def __init__(self):
                    self._lock = threading.RLock()

                def merge(self):
                    with self._lock:
                        self.insert()

                def insert(self):
                    with self._lock:
                        pass
            """
        )
        report = lint_tree({"fanstore/metadata.py": src})
        assert not rules_of(report, "lock-order")

    def test_consistent_order_is_clean(self, lint_tree):
        src = textwrap.dedent(
            '''
            import threading

            class B:
                def __init__(self):
                    self._lock = threading.Lock()

                def leaf(self):
                    with self._lock:
                        pass

            class A:
                def __init__(self):
                    self._lock = threading.Lock()
                    self.b = B()

                def one(self):
                    with self._lock:
                        self.b.leaf()

                def two(self):
                    with self._lock:
                        self.b.leaf()
            '''
        )
        report = lint_tree({"fanstore/mod.py": src})
        assert not rules_of(report, "lock-order")


class TestBlockingUnderLock:
    def test_sleep_io_comm_codec_flagged(self, lint_tree):
        src = textwrap.dedent(
            """
            import threading
            import time

            class Daemon:
                def __init__(self, comm):
                    self._lock = threading.Lock()
                    self.comm = comm
                    self.codec = None

                def bad_sleep(self):
                    with self._lock:
                        time.sleep(0.1)

                def bad_open(self):
                    with self._lock:
                        open("/tmp/x", "rb")

                def bad_send(self):
                    with self._lock:
                        self.comm.send(("x", 1), 0, 7)

                def bad_codec(self, blob):
                    with self._lock:
                        return self.codec.decompress(blob)
            """
        )
        report = lint_tree({"fanstore/daemon.py": src})
        messages = [f.message for f in rules_of(report, "blocking-under-lock")]
        assert len(messages) == 4
        joined = "\n".join(messages)
        assert "time.sleep" in joined
        assert "file I/O (open)" in joined
        assert "communicator round-trip (.send)" in joined
        assert "(de)compression (.decompress)" in joined
        assert "Daemon._lock" in joined

    def test_interprocedural_reach(self, lint_tree):
        src = textwrap.dedent(
            """
            import threading

            class Backend:
                def __init__(self):
                    self._lock = threading.Lock()

                def get(self):
                    with self._lock:
                        return self._load()

                def _load(self):
                    return open("/tmp/part", "rb")
            """
        )
        report = lint_tree({"fanstore/backend.py": src})
        findings = rules_of(report, "blocking-under-lock")
        assert findings and "Backend.get" in findings[0].message

    def test_condition_protocol_and_try_recv_exempt(self, lint_tree):
        src = textwrap.dedent(
            """
            import threading

            class Drain:
                def __init__(self, comm):
                    self._cv = threading.Condition()
                    self.comm = comm

                def waits(self):
                    with self._cv:
                        self._cv.wait()
                        self._cv.notify_all()

                def polls(self):
                    with self._cv:
                        return self.comm.try_recv(-1, 7)
            """
        )
        report = lint_tree({"fanstore/membership.py": src})
        assert not rules_of(report, "blocking-under-lock")

    def test_outside_lock_and_outside_fanstore_clean(self, lint_tree):
        src = textwrap.dedent(
            """
            import threading
            import time

            class C:
                def __init__(self):
                    self._lock = threading.Lock()

                def fine(self):
                    time.sleep(0.1)
                    with self._lock:
                        pass
            """
        )
        report = lint_tree({"fanstore/mod.py": src})
        assert not rules_of(report, "blocking-under-lock")
        # same offending code outside fanstore/ is out of scope
        bad = src.replace("time.sleep(0.1)\n                    with", "with")
        report = lint_tree({"training/mod.py": src})
        assert not rules_of(report, "blocking-under-lock")

    def test_waived_with_reason(self, lint_tree):
        src = textwrap.dedent(
            """
            import threading

            class Plan:
                def __init__(self):
                    self._lock = threading.Lock()

                def mutate(self, path):
                    with self._lock:
                        # lint: allow[blocking-under-lock] injector tool; atomic with RNG
                        path.write_bytes(b"x")
            """
        )
        report = lint_tree({"fanstore/corruption.py": src})
        findings = rules_of(report, "blocking-under-lock")
        assert findings and all(f.waived for f in findings)
        assert findings[0].reason == "injector tool; atomic with RNG"


def test_self_gate_sees_a_sleep_under_the_real_reply_lock(tmp_path):
    """Mutation check on the shipped tree: a ``time.sleep`` inside
    the attempt loop's reply-tag draw (``PeerExchange.ask``'s
    reply-lock region) must be exactly one finding."""
    site = "            with self._reply_lock:\n"
    report = lint_mutant(
        tmp_path, "fanstore/exchange.py", site,
        site + "                time.sleep(0)\n", "blocking-under-lock",
    )
    assert len(report.unwaived) == 1, report.summary()
    assert report.unwaived[0].path.endswith("exchange.py")
    assert "time.sleep" in report.unwaived[0].message


def test_self_gate_sees_the_replication_lock_nested_in_itself(tmp_path):
    """Mutation check on the shipped tree: ``Replication``'s lock taken
    again inside its own region (the conviction freeze) must be exactly
    one lock-order finding — a non-reentrant self-deadlock."""
    site = (
        "            with self._lock:\n"
        "                self._frozen_corpses.add(rank)\n"
    )
    mutant = (
        "            with self._lock:\n"
        "                with self._lock:\n"
        "                    self._frozen_corpses.add(rank)\n"
    )
    report = lint_mutant(
        tmp_path, "fanstore/replication.py", site, mutant, "lock-order"
    )
    assert len(report.unwaived) == 1, report.summary()
    assert report.unwaived[0].path.endswith("replication.py")
    assert "Replication._lock" in report.unwaived[0].message
