"""The MPI-like communicator: p2p matching, collectives, error paths."""

from __future__ import annotations

import threading
import time

import numpy as np
import pytest

from repro.comm.communicator import ANY_SOURCE, ANY_TAG, World
from repro.comm.launcher import run_parallel
from repro.errors import CommClosedError, CommError, RankError


class TestWorldConstruction:
    def test_bad_size(self):
        with pytest.raises(RankError):
            World(0)

    def test_bad_rank(self):
        world = World(2)
        with pytest.raises(RankError):
            world.comm(2)
        with pytest.raises(RankError):
            world.comm(-1)

    def test_comms_indexed_by_rank(self):
        world = World(3)
        comms = world.comms()
        assert [c.rank for c in comms] == [0, 1, 2]
        assert all(c.size == 3 for c in comms)


class TestPointToPoint:
    def test_send_recv_fifo_per_pair(self):
        def body(comm):
            if comm.rank == 0:
                for i in range(5):
                    comm.send(i, dest=1, tag=7)
            else:
                return [comm.recv(source=0, tag=7, timeout=5) for _ in range(5)]

        results = run_parallel(body, 2, timeout=10)
        assert results[1] == [0, 1, 2, 3, 4]

    def test_tag_matching_out_of_order(self):
        def body(comm):
            if comm.rank == 0:
                comm.send("low", dest=1, tag=1)
                comm.send("high", dest=1, tag=2)
            else:
                high = comm.recv(source=0, tag=2, timeout=5)
                low = comm.recv(source=0, tag=1, timeout=5)
                return (high, low)

        assert run_parallel(body, 2, timeout=10)[1] == ("high", "low")

    def test_wildcards(self):
        def body(comm):
            if comm.rank == 0:
                got = []
                for _ in range(2):
                    payload, src, tag = comm.recv_with_status(
                        ANY_SOURCE, ANY_TAG, timeout=5
                    )
                    got.append((payload, src, tag))
                return sorted(got, key=lambda x: x[1])
            comm.send(f"from-{comm.rank}", dest=0, tag=comm.rank * 10)

        results = run_parallel(body, 3, timeout=10)
        assert results[0] == [("from-1", 1, 10), ("from-2", 2, 20)]

    def test_recv_timeout_raises(self):
        world = World(2)
        with pytest.raises(CommError):
            world.comm(0).recv(source=1, timeout=0.05)

    def test_send_to_bad_rank(self):
        world = World(2)
        with pytest.raises(RankError):
            world.comm(0).send("x", dest=5)

    def test_negative_tag_rejected(self):
        world = World(2)
        with pytest.raises(CommError):
            world.comm(0).send("x", dest=1, tag=-2)


class TestCollectives:
    def test_allgather_orders_by_rank(self):
        results = run_parallel(
            lambda c: c.allgather(c.rank * 11, timeout=5), 4, timeout=10
        )
        assert all(r == [0, 11, 22, 33] for r in results)

    def test_allreduce_numpy(self):
        def body(comm):
            vec = np.full(4, float(comm.rank + 1))
            return comm.allreduce(vec, np.add, timeout=5)

        results = run_parallel(body, 3, timeout=10)
        for r in results:
            np.testing.assert_allclose(r, np.full(4, 6.0))

    def test_barrier_synchronizes(self):
        order = []
        lock = threading.Lock()

        def body(comm):
            with lock:
                order.append(("before", comm.rank))
            comm.barrier(timeout=5)
            with lock:
                order.append(("after", comm.rank))

        run_parallel(body, 3, timeout=10)
        befores = [i for i, (k, _) in enumerate(order) if k == "before"]
        afters = [i for i, (k, _) in enumerate(order) if k == "after"]
        assert max(befores) < min(afters)

    def test_sequential_collectives_stay_paired(self):
        def body(comm):
            first = comm.allgather(("a", comm.rank), timeout=5)
            second = comm.allgather(("b", comm.rank), timeout=5)
            return (first, second)

        for first, second in run_parallel(body, 3, timeout=10):
            assert all(tag == "a" for tag, _ in first)
            assert all(tag == "b" for tag, _ in second)

    def test_single_rank_world(self):
        world = World(1)
        comm = world.comm(0)
        assert comm.allgather("x", timeout=1) == ["x"]
        assert comm.allreduce(5, lambda a, b: a + b, timeout=1) == 5
        comm.barrier(timeout=1)


class TestTeardown:
    """World.close() must unblock every parked operation promptly with
    CommClosedError — a failed rank cannot leave its peers waiting out
    a 30 s timeout at each of recv, irecv, and a half-arrived
    collective."""

    def _park(self, fn) -> tuple[threading.Thread, dict]:
        caught: dict[str, BaseException] = {}

        def target() -> None:
            try:
                fn()
            except BaseException as exc:  # noqa: BLE001 - asserted below
                caught["exc"] = exc

        thread = threading.Thread(target=target, daemon=True)
        thread.start()
        time.sleep(0.1)  # let it reach the blocking wait
        return thread, caught

    def _close_and_check(self, world: World, thread, caught) -> None:
        start = time.perf_counter()
        world.close()
        thread.join(5)
        assert not thread.is_alive()
        assert time.perf_counter() - start < 2  # promptly, not at timeout
        assert isinstance(caught["exc"], CommClosedError)

    def test_close_unblocks_parked_recv(self):
        world = World(2)
        thread, caught = self._park(
            lambda: world.comm(0).recv(source=1, timeout=30)
        )
        self._close_and_check(world, thread, caught)

    def test_close_unblocks_half_arrived_collective(self):
        world = World(3)
        # two of three ranks arrive; the third never will
        t0, c0 = self._park(lambda: world.comm(0).barrier(timeout=30))
        t1, c1 = self._park(lambda: world.comm(1).barrier(timeout=30))
        start = time.perf_counter()
        world.close()
        t0.join(5)
        t1.join(5)
        assert not t0.is_alive() and not t1.is_alive()
        assert time.perf_counter() - start < 2
        assert isinstance(c0["exc"], CommClosedError)
        assert isinstance(c1["exc"], CommClosedError)

    def test_recv_after_close_raises_immediately(self):
        world = World(2)
        world.close()
        with pytest.raises(CommClosedError):
            world.comm(0).recv(source=1, timeout=30)
