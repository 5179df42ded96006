"""Training data loaders over the FanStore client (§VI-A, Figure 5).

Two I/O strategies, matching the paper's Figure 5:

- :class:`SyncLoader` — each ``next(batch)`` reads its files inline;
  I/O and compute serialize within the iteration.
- :class:`AsyncLoader` — a background prefetch thread keeps a bounded
  queue of decoded batches; iteration *i*'s read overlaps iteration
  *i−1*'s compute (what Keras/TF/PyTorch pipelines do).

Both present the same iterator protocol and the same *global view* with
deterministic per-epoch shuffling: every rank permutes the identical
file list with the epoch-seeded RNG and takes its rank-strided slice,
so batch membership is consistent across ranks — the property §III
identifies as key to preserving model accuracy. Both read a batch with
one ``client.read_files(paths)``: the loader knows the whole sample list
before it reads the first byte, so the batch's remote files cost one
exchange per home rank rather than one round trip per file.
"""

from __future__ import annotations

import queue
import threading
import time
from dataclasses import dataclass
from typing import Callable, Iterator, Sequence

import numpy as np

from repro.errors import ReproError
from repro.fanstore.client import FanStoreClient

#: decode callback: raw file bytes → a training sample (any object).
Decoder = Callable[[bytes, str], object]


def identity_decoder(data: bytes, _path: str) -> bytes:
    """The default decoder: hand raw file bytes straight through."""
    return data


@dataclass(frozen=True)
class Batch:
    """One rank's share of a global batch."""

    epoch: int
    iteration: int
    samples: list[object]
    paths: list[str]
    bytes_read: int

    def __len__(self) -> int:
        return len(self.samples)


def list_training_files(
    client: FanStoreClient, directory: str = ""
) -> list[str]:
    """Recursive, sorted enumeration through the metadata table — the
    startup scan of §II-B1, served entirely from RAM."""
    files = client.daemon.metadata.scan(directory)
    if not files:
        raise ReproError(f"no training files under {directory!r}")
    return files


class _EpochPlan:
    """Deterministic global shuffle + rank-strided sharding."""

    def __init__(
        self,
        files: Sequence[str],
        *,
        batch_size: int,
        rank: int,
        world_size: int,
        seed: int,
    ) -> None:
        if batch_size < 1:
            raise ReproError(f"batch_size must be >= 1, got {batch_size}")
        if not 0 <= rank < world_size:
            raise ReproError(f"rank {rank} outside [0, {world_size})")
        self.files = list(files)
        self.batch_size = batch_size
        self.rank = rank
        self.world_size = world_size
        self.seed = seed
        self.per_rank = max(batch_size // world_size, 1)
        self.iterations = len(self.files) // max(batch_size, 1)
        if self.iterations == 0:
            self.iterations = 1
        self._memo: tuple[int, np.ndarray] | None = None

    def _order(self, epoch: int) -> np.ndarray:
        """The epoch's global shuffle, computed once per epoch: a loader
        walks an epoch's iterations in order, so a one-entry memo turns
        O(dataset) per iteration into O(dataset) per epoch. The entry is
        one tuple, swapped whole, so a concurrent reader of another
        epoch can cost a recompute but never sees a mismatched pair."""
        memo = self._memo
        if memo is None or memo[0] != epoch:
            rng = np.random.default_rng(self.seed + epoch)
            memo = self._memo = (epoch, rng.permutation(len(self.files)))
        return memo[1]

    def rank_files(self, epoch: int, iteration: int) -> list[str]:
        """This rank's file paths for one (epoch, iteration)."""
        order = self._order(epoch)
        start = iteration * self.batch_size
        global_batch = [
            self.files[order[i % len(self.files)]]
            for i in range(start, start + self.batch_size)
        ]
        return global_batch[self.rank :: self.world_size][: self.per_rank]


class SyncLoader:
    """Figure 5(a): read the batch inside the iteration."""

    def __init__(
        self,
        client: FanStoreClient,
        files: Sequence[str],
        *,
        batch_size: int,
        epochs: int = 1,
        rank: int = 0,
        world_size: int = 1,
        seed: int = 0,
        decoder: Decoder = identity_decoder,
        metrics=None,
    ) -> None:
        self.client = client
        self.decoder = decoder
        self.epochs = epochs
        self.plan = _EpochPlan(
            files,
            batch_size=batch_size,
            rank=rank,
            world_size=world_size,
            seed=seed,
        )
        #: optional :class:`repro.obs.metrics.MetricsRegistry`: each
        #: batch load feeds ``loader.batch_seconds`` plus the
        #: ``loader.bytes_read``/``loader.batches`` counters (for the
        #: AsyncLoader these time the *producer* thread's reads, which
        #: is the quantity prefetching is supposed to hide).
        self._h_batch = self._c_bytes = self._c_batches = None
        if metrics is not None:
            self._h_batch = metrics.histogram("loader.batch_seconds")
            self._c_bytes = metrics.counter("loader.bytes_read")
            self._c_batches = metrics.counter("loader.batches")

    def _load(self, epoch: int, iteration: int) -> Batch:
        t0 = time.perf_counter()
        paths = self.plan.rank_files(epoch, iteration)
        raws = self.client.read_files(paths)
        nbytes = sum(map(len, raws))
        samples = [self.decoder(raw, p) for raw, p in zip(raws, paths)]
        if self._h_batch is not None:
            self._h_batch.observe(time.perf_counter() - t0)
            self._c_bytes.inc(nbytes)
            self._c_batches.inc()
        return Batch(
            epoch=epoch,
            iteration=iteration,
            samples=samples,
            paths=paths,
            bytes_read=nbytes,
        )

    def __iter__(self) -> Iterator[Batch]:
        for epoch in range(self.epochs):
            for it in range(self.plan.iterations):
                yield self._load(epoch, it)

    def __len__(self) -> int:
        return self.epochs * self.plan.iterations


class AsyncLoader(SyncLoader):
    """Figure 5(b): a prefetch thread reads batch *i+1* during compute
    of batch *i*. ``depth`` bounds the queue (default 2 = classic
    double buffering)."""

    def __init__(self, *args, depth: int = 2, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        if depth < 1:
            raise ReproError(f"prefetch depth must be >= 1, got {depth}")
        self.depth = depth

    def __iter__(self) -> Iterator[Batch]:
        q: "queue.Queue[Batch | None | BaseException]" = queue.Queue(
            maxsize=self.depth
        )

        stop = threading.Event()

        def _put(item: Batch | None | BaseException) -> bool:
            """Bounded put: False once the consumer has walked away."""
            while not stop.is_set():
                try:
                    q.put(item, timeout=0.05)
                    return True
                except queue.Full:
                    pass
            return False

        def _producer() -> None:
            try:
                for epoch in range(self.epochs):
                    for it in range(self.plan.iterations):
                        if not _put(self._load(epoch, it)):
                            return
            except BaseException as exc:  # surface in the consumer
                _put(exc)
            else:
                _put(None)

        thread = threading.Thread(
            target=_producer, name="fanstore-prefetch", daemon=True
        )
        thread.start()
        try:
            while True:
                item = q.get()
                if item is None:
                    break
                if isinstance(item, BaseException):
                    raise item
                yield item
        finally:
            # an early ``break`` leaves the queue full with nobody to
            # drain it: tell the producer, then wait for it to leave
            stop.set()
            thread.join(timeout=5.0)
