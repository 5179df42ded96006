"""Virtual-ring block transfers (§V-D).

When a FanStore process decides to host *extra* partitions beyond its
assigned ones, it does not re-read them from the shared file system —
it copies them from its neighbor in a virtual ring, so every transfer
is neighbor-to-neighbor and (with equal partition sizes) contention-free
by construction. This module implements that pattern over the
communicator, for the store's extra-partition copy and the ablation.
"""

from __future__ import annotations

from typing import Any

from repro.comm.communicator import Communicator

#: below the store's reply band (0x1000 up): a reply-scoped fault plan
#: never touches a load-time ring copy, and no reply tag equals it
_RING_TAG = 0x0FA1


def ring_neighbors(rank: int, size: int) -> tuple[int, int]:
    """(left, right) neighbors of ``rank`` on the virtual ring."""
    return (rank - 1) % size, (rank + 1) % size


def ring_exchange(
    comm: Communicator, block: Any, *, rounds: int = 1, timeout: float | None = 60.0
) -> list[Any]:
    """Shift blocks around the ring ``rounds`` times.

    Each round, every rank sends its current block to its right neighbor
    and receives from its left. Returns the blocks received per round —
    after ``size - 1`` rounds every rank has seen every block (the ring
    allgather the paper's partition replication builds on).
    """
    left, right = ring_neighbors(comm.rank, comm.size)
    received: list[Any] = []
    current = block
    for _ in range(rounds):
        comm.send(current, right, _RING_TAG)
        current = comm.recv(left, _RING_TAG, timeout=timeout)
        received.append(current)
    return received


def ring_replicate(
    comm: Communicator,
    block: Any,
    copies: int,
    *,
    timeout: float | None = 60.0,
) -> list[Any]:
    """Obtain ``copies`` additional neighbor partitions (§IV-C1 extra-
    partition load): after this call each rank holds its own block plus
    the blocks of its ``copies`` nearest left neighbors.

    ``copies`` must be < world size."""
    if copies < 0 or copies >= comm.size:
        raise ValueError(
            f"copies must be in [0, {comm.size - 1}], got {copies}"
        )
    if copies == 0:
        return []
    return ring_exchange(comm, block, rounds=copies, timeout=timeout)
