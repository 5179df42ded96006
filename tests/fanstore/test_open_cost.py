"""The open path's deterministic cost vector (ROADMAP item 5).

What one uncontended read *executes* — counted with ``sys.setprofile``,
no clock involved, so the counts repeat exactly and are asserted as
counts. The single-pass open resolves a path once and carries the result
down: at most one ``normalize()``, two exact-key metadata probes (open,
close) and none inside the miss, one in-flight registration, and a
Python-call budget. The parent of the PR that added this file executed
6 ``normalize``, 2 lookups inside the miss, 2 registrations and 43 calls.

The batched remote read (``read_files``) is pinned the same way at the
end of the file: messages, fetches, misses, digest passes and ``Event``
constructions per batch of 16 — and, on one rank, that it executes what
16 ``read_file`` calls execute.
"""

from __future__ import annotations

import sys
import threading
from collections import Counter

import pytest

import repro.fanstore.daemon as daemon_module
from repro.comm.launcher import run_parallel
from repro.datasets.synthetic import generate_dataset
from repro.fanstore.daemon import DaemonConfig
from repro.fanstore.prepare import prepare_dataset
from repro.fanstore.store import FanStore, FanStoreOptions

N_FILES = 64


@pytest.fixture(scope="module")
def store(tmp_path_factory):
    """One rank, RAM backend, ~1.2 KB ``memcpy`` files, sampling off —
    the ``local_1k_memcpy`` shape."""
    root = tmp_path_factory.mktemp("open-cost")
    generate_dataset(
        "tokamak", root / "raw", num_files=N_FILES, avg_file_size=1200,
        num_dirs=2, seed=3,
    )
    prepared = prepare_dataset(
        root / "raw", root / "packed", num_partitions=1, compressor="memcpy"
    )
    options = FanStoreOptions(config=DaemonConfig(metrics_every=0))
    with FanStore(prepared, options) as fs:
        yield fs


def _cost_vector(operation, paths) -> Counter:
    """Per-call-site counts over ``operation(path)`` for every path.

    Only frames of ``src/repro`` count, without ``repro/analysis`` (the
    lockdep witness's lock proxies run under pytest, not in production).
    ``lookups_in_miss`` are metadata lookups between entering
    ``get_or_compute`` and reaching ``backend.get``: there the record
    must already be in hand.
    """
    counts: Counter = Counter()
    in_miss = False

    def profiler(frame, event, _arg):
        nonlocal in_miss
        if event != "call":
            return
        code = frame.f_code
        filename = code.co_filename
        if "/repro/" not in filename or "/repro/analysis/" in filename:
            return
        counts["python_calls"] += 1
        name = code.co_qualname
        if name == "normalize":
            counts["normalize"] += 1
        elif name.startswith("MetadataTable."):
            counts["lookups"] += 1
            counts["lookups_in_miss"] += in_miss
        elif name == "_Flight.__init__":
            counts["flights"] += 1
        elif name == "FanStoreDaemon._skip_reason":
            counts["gate_calls"] += 1
        elif name == "DecompressedCache.get_or_compute":
            in_miss = True
        elif name.endswith("Backend.get"):
            counts["backend_gets"] += 1
            in_miss = False

    sys.setprofile(profiler)
    try:
        for path in paths:
            operation(path)
    finally:
        sys.setprofile(None)
    return counts


def _paths(fs) -> list[str]:
    paths = [record.path for record in fs.daemon.metadata.walk_files()]
    assert len(paths) == N_FILES
    return paths


def test_read_file_cost_vector(store):
    client, paths = store.client, _paths(store)
    for path in paths:  # warm pass: lazy set-up is not the read's cost
        client.read_file(path)
    counts = _cost_vector(client.read_file, paths)
    n = len(paths)
    assert counts["backend_gets"] == n  # every read was a real miss
    assert counts["normalize"] <= 1 * n
    assert counts["lookups"] <= 2 * n
    assert counts["lookups_in_miss"] == 0  # the record is carried
    assert counts["flights"] == 1 * n
    assert counts["gate_calls"] == 0  # "may I ask rank r?" is a remote question
    assert counts["python_calls"] <= 30 * n
    # exact: the same reads execute the same calls
    assert _cost_vector(client.read_file, paths) == counts


def test_descriptor_path_cost_vector(store):
    client, paths = store.client, _paths(store)

    def open_read_close(path: str) -> None:
        fd = client.open(path)
        client.read(fd)
        client.close(fd)

    for path in paths:
        open_read_close(path)
    counts = _cost_vector(open_read_close, paths)
    n = len(paths)
    assert counts["backend_gets"] == n
    assert counts["normalize"] <= 1 * n
    # one record resolution per open (the other probe is close's
    # canonicality proof), none of them inside the miss
    assert counts["lookups"] <= 2 * n
    assert counts["lookups_in_miss"] == 0
    assert counts["flights"] == 1 * n


# -- the batched remote read ----------------------------------------------------

BATCH = 16


def test_read_files_on_one_rank_is_the_read_file_loop(store):
    """No peers, no envelope: ``read_files`` executes exactly what
    ``BATCH`` ``read_file`` calls execute, plus three frames per batch:
    its own, the one ``fetch_many`` that finds nobody to ask, and the
    list comprehension that is the loop."""
    client, paths = store.client, _paths(store)[:BATCH]
    client.read_files(paths)  # warm
    looped = _cost_vector(client.read_file, paths)
    batched = _cost_vector(client.read_files, [paths])
    assert batched - looped == Counter(python_calls=3)
    assert looped - batched == Counter()


@pytest.fixture(scope="module")
def remote_packed(tmp_path_factory):
    """~16 KB ``memcpy`` files in two partitions — the
    ``remote_16k_memcpy`` shape."""
    root = tmp_path_factory.mktemp("remote-cost")
    generate_dataset(
        "tokamak", root / "raw", num_files=4 * BATCH, avg_file_size=16384,
        num_dirs=2, seed=5,
    )
    return prepare_dataset(
        root / "raw", root / "packed", num_partitions=2, compressor="memcpy"
    )


class _Tally:
    """Counts calls of ``owner.name`` until undone (``list.append`` is
    atomic: both ranks' threads may count)."""

    def __init__(self, monkeypatch, owner, name: str) -> None:
        self.calls: list[None] = []
        wrapped = getattr(owner, name)

        def counted(*args, **kwargs):
            self.calls.append(None)
            return wrapped(*args, **kwargs)

        monkeypatch.setattr(owner, name, counted)

    def __len__(self) -> int:
        return len(self.calls)


def test_batched_remote_read_cost_vector(remote_packed, monkeypatch):
    """One ``read_files`` of 16 paths homed on one healthy peer, as
    counts: one request envelope and one reply (the per-file loop it
    replaced sent 16 and received 16, and the server sent 16), one
    fetch / miss / leader / eviction per path, two digest passes per
    blob (the server's ``_verified_local``, the requester's
    ``_blob_ok`` — pinned here, not yet decided), no ``Event``, and at
    most 25 Python calls under ``src/repro`` per file on the requesting
    thread (a lone ``read_file`` of a remote path: 58)."""
    stores: dict[int, FanStore] = {}
    config = DaemonConfig(metrics_every=0)

    def body(comm):
        options = FanStoreOptions(comm=comm, config=config)
        with FanStore(remote_packed, options) as fs:
            stores[comm.rank] = fs
            comm.barrier()
            if comm.rank == 0:
                measure(fs, stores[1])
            comm.barrier()  # the peer serves until the count is taken

    def measure(fs, peer):
        client = fs.client
        paths = [
            r.path for r in fs.daemon.metadata.walk_files()
            if r.home_rank == 1
        ][:BATCH]
        assert len(paths) == BATCH
        client.read_files(paths)  # warm: lazy set-up is not the read's cost
        alone = _cost_vector(client.read_file, paths)

        sends = _Tally(monkeypatch, fs.daemon.comm, "send")
        recvs = _Tally(monkeypatch, fs.daemon.comm, "recv")
        served = _Tally(monkeypatch, peer.daemon.comm, "send")
        digests = _Tally(monkeypatch, daemon_module, "blob_crc32")
        events = _Tally(monkeypatch, threading, "Event")
        before, peer_before = fs.metrics.snapshot(), peer.metrics.snapshot()
        cache_before = vars(fs.daemon.cache.stats).copy()
        counts = _cost_vector(client.read_files, [paths])
        after, peer_after = fs.metrics.snapshot(), peer.metrics.snapshot()
        monkeypatch.undo()

        assert (len(sends), len(recvs), len(served)) == (1, 1, 1)
        assert len(digests) == 2 * BATCH
        assert len(events) == 0
        assert {
            name: after.value(name) - before.value(name)
            for name in ("daemon.batch.flushes", "daemon.batch.items",
                         "daemon.batch.fallbacks", "daemon.remote_fetches")
        } == {
            "daemon.batch.flushes": 1, "daemon.batch.items": BATCH,
            "daemon.batch.fallbacks": 0, "daemon.remote_fetches": BATCH,
        }
        assert (
            peer_after.value("daemon.served_requests")
            - peer_before.value("daemon.served_requests")
        ) == BATCH
        cache_after = vars(fs.daemon.cache.stats)
        assert {
            name: cache_after[name] - cache_before[name]
            for name in cache_before
        } == {
            "opens": BATCH, "misses": BATCH, "evictions": BATCH,
            "singleflight_leaders": BATCH, "hits": 0,
            "singleflight_followers": 0, "rejected": 0, "quarantined": 0,
        }
        assert counts["flights"] == BATCH
        assert counts["normalize"] == 0
        # the gate is asked once per decision: per envelope, per lone read
        assert (counts["gate_calls"], alone["gate_calls"]) == (1, BATCH)
        # bounds, not equalities: a reply that beats its receiver to the
        # mailbox saves the parking calls (the counts above cannot move)
        assert counts["python_calls"] <= 25 * BATCH
        assert alone["python_calls"] <= 58 * BATCH

    run_parallel(body, 2, timeout=120)
