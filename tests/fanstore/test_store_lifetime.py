"""A dropped store is freed by its reference count, not by the cyclic GC.

Nothing a daemon owns holds the daemon back: the health tracker's
breaker callbacks count into the stats bag, the exchange, the server
and the placement engine call it through a weak proxy, and a finished
span lets go of its tracer. So with the cyclic GC switched off, the daemon and
its backend die the moment the last outside reference goes — a store
that is opened, read, written, closed and dropped takes its cache and
metadata with it at once, instead of holding them until a collection
happens to run."""

from __future__ import annotations

import gc
import weakref

import pytest

from repro.comm.launcher import run_parallel
from repro.datasets.synthetic import generate_dataset
from repro.fanstore.client import O_CREAT, O_WRONLY
from repro.fanstore.prepare import prepare_dataset
from repro.fanstore.store import FanStore, FanStoreOptions


@pytest.fixture(scope="module")
def packed(tmp_path_factory):
    """Small ``memcpy`` files, packed for one rank and for two."""
    root = tmp_path_factory.mktemp("lifetime")
    generate_dataset(
        "tokamak", root / "raw", num_files=16, avg_file_size=1200,
        num_dirs=2, seed=3,
    )
    return {
        ranks: prepare_dataset(
            root / "raw", root / f"packed{ranks}", num_partitions=ranks,
            compressor="memcpy",
        )
        for ranks in (1, 2)
    }


def _use(fs: FanStore) -> None:
    """Read every file, write one and close it."""
    for record in list(fs.daemon.metadata.walk_files()):
        fs.client.read_file(record.path)
    fd = fs.client.open(f"out/rank{fs.rank}.log", O_WRONLY | O_CREAT)
    fs.client.write(fd, b"line\n" * 20)
    fs.client.close(fd)


def _refs(fs: FanStore) -> list[weakref.ref]:
    return [weakref.ref(fs.daemon), weakref.ref(fs.daemon.backend)]


#: configuration → (ranks, membership, on disk)
CONFIGS = {
    "1-rank-ram": (1, False, False),
    "2-rank-ram": (2, False, False),
    "2-rank-membership": (2, True, False),
    "2-rank-disk": (2, False, True),
}


@pytest.mark.parametrize("config", sorted(CONFIGS))
def test_a_dropped_store_dies_with_its_last_reference(packed, tmp_path, config):
    ranks, membership, disk = CONFIGS[config]
    refs: list[weakref.ref] = []

    def options(comm, rank: int) -> FanStoreOptions:
        return FanStoreOptions(
            comm=comm, membership=membership or None,
            local_dir=tmp_path / f"rank{rank}" if disk else None,
        )

    def body(comm) -> None:
        fs = FanStore(packed[ranks], options(comm, comm.rank))
        _use(fs)
        comm.barrier()  # every rank done with its peers' files
        fs.shutdown()
        refs.extend(_refs(fs))

    gc.collect()
    gc.disable()
    try:
        if ranks == 1:
            fs = FanStore(packed[1], options(None, 0))
            _use(fs)
            fs.shutdown()
            refs.extend(_refs(fs))
            del fs
        else:
            run_parallel(body, ranks, timeout=60)
        alive = [ref() is not None for ref in refs]
    finally:
        gc.enable()
    assert len(refs) == 2 * ranks
    assert not any(alive)
