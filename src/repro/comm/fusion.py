"""Gradient fusion buffering (§II-A's allreduce mechanism).

"In practice, the allreduce step uses a buffer, and an allreduce is
invoked once the buffer is full. Weight updates are streamlined with
allreduce operations." — this module implements that Horovod-style
mechanism over the in-process communicator:

- :class:`FusionBuffer` accumulates gradient tensors and triggers an
  averaging allreduce whenever the buffered bytes reach ``capacity``;
  tensors stream back to the caller in submission order once reduced.
- :func:`bucketed_allreduce` is the convenience path for one flat
  gradient vector split into fusion-buffer-sized buckets.
- :func:`modeled_allreduce_seconds` is the α–β cost of the same
  schedule, exposing the classic tuning curve (too-small buckets pay
  latency per bucket, one giant bucket forfeits pipelining overlap)
  that the fusion ablation benchmark sweeps.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
import numpy as np

from repro.comm.communicator import _DEFAULT_TIMEOUT, Communicator
from repro.errors import CommError
from repro.simnet.network import InterconnectModel


@dataclass
class FusionStats:
    """Accounting for the ablation benchmark."""

    allreduce_calls: int = 0
    bytes_reduced: int = 0
    tensors: int = 0


class FusionBuffer:
    """Capacity-triggered gradient averaging.

    Usage (per training step, every rank in the same order)::

        buf = FusionBuffer(comm, capacity_bytes=1 << 20)
        for grad in layer_gradients:
            buf.add(grad)
        averaged = buf.flush()     # rank-identical, submission order

    The buffer averages (sum/size) like data-parallel SGD expects. Each
    bucket's allreduce waits at most ``timeout`` seconds (None =
    forever) and raises :class:`CommError` past it.
    """

    def __init__(
        self,
        comm: Communicator,
        capacity_bytes: int,
        timeout: float | None = _DEFAULT_TIMEOUT,
    ) -> None:
        if capacity_bytes < 1:
            raise CommError(f"capacity must be >= 1 byte, got {capacity_bytes}")
        self.comm = comm
        self.capacity_bytes = capacity_bytes
        self.timeout = timeout
        self.stats = FusionStats()
        self._pending: list[np.ndarray] = []
        self._pending_bytes = 0
        self._reduced: list[np.ndarray] = []

    def add(self, tensor: np.ndarray) -> None:
        """Queue one gradient tensor; reduces eagerly at capacity."""
        arr = np.asarray(tensor, dtype=np.float64)
        self._pending.append(arr)
        self._pending_bytes += arr.nbytes
        self.stats.tensors += 1
        if self._pending_bytes >= self.capacity_bytes:
            self._reduce_pending()

    def _reduce_pending(self) -> None:
        if not self._pending:
            return
        shapes = [a.shape for a in self._pending]
        flat = np.concatenate([a.ravel() for a in self._pending])
        total = (
            self.comm.allreduce(flat, np.add, timeout=self.timeout)
            / self.comm.size
        )
        self.stats.allreduce_calls += 1
        self.stats.bytes_reduced += flat.nbytes
        offset = 0
        for shape in shapes:
            n = int(np.prod(shape)) if shape else 1
            self._reduced.append(
                total[offset : offset + n].reshape(shape)
            )
            offset += n
        self._pending = []
        self._pending_bytes = 0

    def flush(self) -> list[np.ndarray]:
        """Reduce whatever remains; returns all tensors in order."""
        self._reduce_pending()
        out, self._reduced = self._reduced, []
        return out


def bucketed_allreduce(
    comm: Communicator,
    flat: np.ndarray,
    bucket_bytes: int,
    timeout: float | None = _DEFAULT_TIMEOUT,
) -> np.ndarray:
    """Average one flat vector through fusion-sized buckets, each
    bucket's allreduce bounded by ``timeout``."""
    buf = FusionBuffer(comm, bucket_bytes, timeout)
    per_bucket = max(bucket_bytes // flat.itemsize, 1)
    for start in range(0, flat.size, per_bucket):
        buf.add(flat[start : start + per_bucket])
    pieces = buf.flush()
    if not pieces:
        return flat.copy()
    return np.concatenate([p.ravel() for p in pieces])


def modeled_allreduce_seconds(
    net: InterconnectModel,
    message_bytes: int,
    nodes: int,
    bucket_bytes: int,
    *,
    overlap_fraction: float = 0.5,
) -> float:
    """α–β cost of a bucketed allreduce schedule.

    Each of the ⌈message/bucket⌉ buckets pays the collective's latency
    term; the bandwidth term covers the full payload once; and because
    buckets can overlap backpropagation (the Horovod win), a fraction
    of the pre-final buckets' cost hides behind compute. Minimizing
    over ``bucket_bytes`` reproduces the classic fusion-tuning curve.
    """
    if nodes < 2:
        return 0.0
    if bucket_bytes < 1:
        raise CommError("bucket_bytes must be >= 1")
    buckets = max(math.ceil(message_bytes / bucket_bytes), 1)
    lat = 2.0 * math.ceil(math.log2(nodes)) * net.latency
    bw = 2.0 * (nodes - 1) / nodes * message_bytes / net.node_bandwidth
    total = buckets * lat + bw
    # all but the last bucket may overlap compute
    hidden = (
        overlap_fraction * (buckets - 1) / buckets * total
        if buckets > 1
        else 0.0
    )
    return total - hidden
