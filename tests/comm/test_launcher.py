"""The SPMD launcher: results, failure aggregation, unblocking."""

from __future__ import annotations

import threading

import pytest

from repro.comm.launcher import ParallelFailure, run_parallel
from repro.errors import CommError


def test_results_ordered_by_rank():
    assert run_parallel(lambda c: c.rank * 2, 4, timeout=10) == [0, 2, 4, 6]


def test_extra_args_forwarded():
    assert run_parallel(lambda c, a, b: (c.rank, a + b), 2, 3, 4,
                        timeout=10) == [(0, 7), (1, 7)]


def test_single_failure_propagates_and_unblocks_peers():
    """Rank 1 raises while rank 0 is blocked in recv; the launcher must
    close the world so rank 0 unwinds instead of hanging."""

    def body(comm):
        if comm.rank == 1:
            raise RuntimeError("boom")
        comm.recv(source=1, timeout=30)  # would hang without close()

    with pytest.raises(ParallelFailure) as exc_info:
        run_parallel(body, 2, timeout=10)
    assert isinstance(exc_info.value.errors[1], RuntimeError)


def test_the_failure_names_the_rank_that_started_it():
    """Rank 0 is about to park in a receive when rank 1 raises; the
    teardown then wakes rank 0, which fails after it. The message names
    rank 1 first (it named the lowest rank, the survivor, before) and
    lists rank 0 after it."""
    receiving = threading.Event()

    def body(comm):
        if comm.rank == 1:
            assert receiving.wait(timeout=30)
            raise RuntimeError("boom")
        receiving.set()
        comm.recv(source=1, timeout=30)

    with pytest.raises(ParallelFailure) as exc_info:
        run_parallel(body, 2, timeout=10)
    failure = exc_info.value
    assert list(failure.errors) == [1, 0]
    assert str(failure) == (
        "2 rank(s) failed; first rank 1: RuntimeError('boom'); then "
        "rank 0: CommClosedError('world torn down during recv')"
    )


def test_multiple_failures_aggregated():
    def body(comm):
        raise ValueError(f"rank {comm.rank}")

    with pytest.raises(ParallelFailure) as exc_info:
        run_parallel(body, 3, timeout=10)
    assert set(exc_info.value.errors) == {0, 1, 2}


def test_wrong_world_size_rejected():
    from repro.comm.communicator import World

    with pytest.raises(CommError):
        run_parallel(lambda c: None, 3, world=World(2))


def test_supplied_world_is_used():
    from repro.comm.communicator import World

    world = World(2)
    results = run_parallel(lambda c: c.size, 2, world=world, timeout=10)
    assert results == [2, 2]
