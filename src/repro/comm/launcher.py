"""SPMD launcher: the in-process analog of ``mpiexec.hydra`` (§V-D).

``run_parallel(fn, size)`` spawns one thread per rank, hands each a
:class:`~repro.comm.communicator.Communicator`, joins them, and either
returns the rank-ordered results or re-raises the first failure (after
closing the world so sibling ranks blocked in recv unwind instead of
hanging).
"""

from __future__ import annotations

import threading
from typing import Any, Callable

from repro.comm.communicator import Communicator, World
from repro.errors import CommError


class ParallelFailure(CommError):
    """One or more ranks raised; carries every rank's exception.

    ``errors`` is in the order the ranks failed, and the message names
    the first: the rank whose error started the failure. The launcher
    closes the world only after recording it, so the ranks that the
    teardown wakes (``CommClosedError``) are listed after it."""

    def __init__(self, errors: dict[int, BaseException]) -> None:
        self.errors = errors
        first, *then = errors
        message = (
            f"{len(errors)} rank(s) failed; first rank {first}: "
            f"{errors[first]!r}"
        )
        if then:
            message += "; then " + ", ".join(
                f"rank {rank}: {errors[rank]!r}" for rank in then
            )
        super().__init__(message)


def run_parallel(
    fn: Callable[..., Any],
    size: int,
    *args: Any,
    timeout: float | None = 120.0,
    world: World | None = None,
) -> list[Any]:
    """Run ``fn(comm, *args)`` on ``size`` ranks; returns results by rank.

    ``fn`` receives its rank's communicator as the first argument. If any
    rank raises, the world is closed (unblocking stragglers) and a
    :class:`ParallelFailure` aggregating the per-rank exceptions is
    raised. ``timeout`` bounds the join of each thread.
    """
    world = world or World(size)
    if world.size != size:
        raise CommError(f"world size {world.size} != requested size {size}")
    results: list[Any] = [None] * size
    errors: dict[int, BaseException] = {}  # in the order the ranks failed
    errors_lock = threading.Lock()

    def _run(comm: Communicator) -> None:
        try:
            results[comm.rank] = fn(comm, *args)
        except BaseException as exc:  # noqa: BLE001 - collected and re-raised
            with errors_lock:
                errors[comm.rank] = exc
            world.close()

    threads = [
        threading.Thread(
            target=_run, args=(world.comm(r),), name=f"rank-{r}", daemon=True
        )
        for r in range(size)
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout)
        if t.is_alive():
            world.close()
            raise CommError(f"{t.name} did not finish within {timeout}s")
    if errors:
        raise ParallelFailure(errors)
    return results
