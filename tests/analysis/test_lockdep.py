"""Runtime lockdep witness: ABBA detection, Condition compatibility,
and the pytest plugin wiring."""

from __future__ import annotations

import os
import subprocess
import sys
import threading
from pathlib import Path

import pytest

from repro.analysis.lockdep import LockdepWitness, current_witness
from repro.comm.communicator import World
from repro.comm.launcher import run_parallel
from repro.errors import CommError

REPO = Path(__file__).resolve().parents[2]


class TestWitness:
    def test_abba_inversion_is_a_cycle(self):
        with LockdepWitness() as w:
            a = threading.Lock()
            b = threading.Lock()
            with a:
                with b:
                    pass
            with b:  # deliberate inversion — never interleaves, still caught
                with a:
                    pass
        assert len(w.cycles) == 1
        report = w.report()
        assert "lock-order cycle" in report
        assert "acquired while holding" in report

    def test_three_lock_cycle_detected(self):
        with LockdepWitness() as w:
            a = threading.Lock()
            b = threading.Lock()
            c = threading.Lock()
            for first, second in ((a, b), (b, c), (c, a)):
                with first:
                    with second:
                        pass
        assert len(w.cycles) == 1
        assert len(w.cycles[0].chain) == 3

    def test_consistent_order_is_clean(self):
        with LockdepWitness() as w:
            a = threading.Lock()
            b = threading.Lock()
            for _ in range(2):
                with a:
                    with b:
                        pass
        assert not w.cycles
        assert len(w.edges) == 1  # first observation only

    def test_rlock_reentrancy_records_no_edge(self):
        with LockdepWitness() as w:
            r = threading.RLock()
            with r:
                with r:
                    pass
        assert not w.edges and not w.cycles

    def test_condition_with_default_rlock_round_trips(self):
        with LockdepWitness() as w:
            cv = threading.Condition()
            done = []

            def worker():
                with cv:
                    done.append(True)
                    cv.notify_all()

            with cv:
                t = threading.Thread(target=worker)
                t.start()
                assert cv.wait_for(lambda: done, timeout=5.0)
            t.join(timeout=5.0)
        assert not w.cycles

    def test_condition_with_plain_lock_uses_fallback(self):
        # _LockProxy omits the private Condition protocol on purpose;
        # Condition must take its non-reentrant fallback and still work.
        with LockdepWitness() as w:
            cv = threading.Condition(threading.Lock())
            done = []

            def worker():
                with cv:
                    done.append(True)
                    cv.notify()

            with cv:
                t = threading.Thread(target=worker)
                t.start()
                assert cv.wait_for(lambda: done, timeout=5.0)
            t.join(timeout=5.0)
        assert not w.cycles

    def test_mailbox_handoff_is_not_a_lock_order_cycle(self):
        """The mailbox parks a receiver on its thread's wake line, which
        the *sender* writes after leaving the mutex. No lock is taken by
        one thread and released by another, so the hand-off — and the
        timeout path, which re-takes the mutex after a syscall — leaves
        the witness nothing but the mutex itself, and no cycle."""
        with LockdepWitness() as w:
            world = World(2)

            def body(comm):
                peer = 1 - comm.rank
                for i in range(20):
                    if comm.rank == 0:
                        comm.send(i, peer, tag=3)
                        assert comm.recv(peer, tag=4, timeout=5) == i
                    else:
                        assert comm.recv(peer, tag=3, timeout=5) == i
                        comm.send(i, peer, tag=4)
                with pytest.raises(CommError, match="timed out"):
                    comm.recv(peer, tag=9, timeout=0.02)

            run_parallel(body, 2, world=world, timeout=30)
        assert not w.cycles, w.report()

    def test_uninstall_restores_factories_and_current(self):
        before_lock = threading.Lock
        before_rlock = threading.RLock
        before_current = current_witness()
        with LockdepWitness() as w:
            assert threading.Lock is not before_lock
            assert current_witness() is w
        assert threading.Lock is before_lock
        assert threading.RLock is before_rlock
        assert current_witness() is before_current


ABBA_TEST = """
import threading

def test_abba():
    a = threading.Lock()
    b = threading.Lock()
    with a:
        with b:
            pass
    with b:
        with a:
            pass
"""


def _run_plugin(tmp_path: Path, extra_env: dict) -> subprocess.CompletedProcess:
    test = tmp_path / "test_inversion.py"
    test.write_text(ABBA_TEST, encoding="utf-8")
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO / "src")
    env.update(extra_env)
    return subprocess.run(
        [
            sys.executable,
            "-m",
            "pytest",
            "-p",
            "repro.analysis.pytest_plugin",
            "-q",
            str(test),
        ],
        cwd=tmp_path,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )


class TestPytestPlugin:
    def test_cycle_fails_the_run_with_report(self, tmp_path):
        proc = _run_plugin(tmp_path, {"FANSTORE_LOCKDEP": "1"})
        assert proc.returncode != 0, proc.stdout + proc.stderr
        assert "lock-order cycle" in proc.stdout

    def test_opt_out_disables_the_witness(self, tmp_path):
        proc = _run_plugin(tmp_path, {"FANSTORE_LOCKDEP": "0"})
        assert proc.returncode == 0, proc.stdout + proc.stderr
        assert "lock-order cycle" not in proc.stdout

    @pytest.mark.skipif(
        os.environ.get("FANSTORE_LOCKDEP", "1") in ("0", "off", "no"),
        reason="lockdep disabled for this session",
    )
    def test_witness_active_in_this_session(self):
        assert current_witness() is not None
