"""The open path's deterministic cost vector (ROADMAP item 5).

What one uncontended read *executes* — counted with ``sys.setprofile``,
no clock involved, so the counts repeat exactly and are asserted as
counts. The single-pass open resolves a path once and carries the result
down: at most one ``normalize()``, two exact-key metadata probes (open,
close) and none inside the miss, one in-flight registration, and a
Python-call budget. The parent of the PR that added this file executed
6 ``normalize``, 2 lookups inside the miss, 2 registrations and 43 calls.

A whole-file read (``read_file``) is cheaper than a descriptor's open,
read and close: it never makes the entry resident, so it probes the
table once, installs and evicts nothing, and takes fewer locks — 18
Python calls and 4 lock acquisitions where the open/close pair it
replaced took 25 and 7.

The batched remote read (``read_files``) is pinned the same way at the
end of the file: messages, fetches, misses, digest passes and ``Event``
constructions per batch of 16 — and, on one rank, that it executes what
16 ``read_file`` calls execute. Digest passes are counted on every path:
a local read hashes every time, a warm RAM home serves a peer without a
second pass, and a ``DiskBackend`` home hashes every serve. A lone
remote ``read_file`` is pinned last, as an exact vector on a constructed
interleaving: wake-line writes, locks with both ranks' mailbox mutexes,
and Python calls.
"""

from __future__ import annotations

import functools
import sys
import threading
import time
import tracemalloc
import zlib
from collections import Counter

import pytest

import repro.comm.communicator as communicator_module
import repro.fanstore.daemon as daemon_module
from repro.comm.launcher import run_parallel
from repro.fanstore.client import O_CREAT, O_WRONLY
from repro.datasets.synthetic import generate_dataset
from repro.fanstore.daemon import DaemonConfig
from repro.fanstore.prepare import prepare_dataset
from repro.fanstore.store import FanStore, FanStoreOptions

N_FILES = 64


LOCAL_OPTIONS = FanStoreOptions(config=DaemonConfig(metrics_every=0))


@pytest.fixture(scope="module")
def packed(tmp_path_factory):
    """~1.2 KB ``memcpy`` files in one partition — the
    ``local_1k_memcpy`` shape."""
    root = tmp_path_factory.mktemp("open-cost")
    generate_dataset(
        "tokamak", root / "raw", num_files=N_FILES, avg_file_size=1200,
        num_dirs=2, seed=3,
    )
    return prepare_dataset(
        root / "raw", root / "packed", num_partitions=1, compressor="memcpy"
    )


@pytest.fixture(scope="module")
def store(packed):
    """One rank, RAM backend, sampling off."""
    with FanStore(packed, LOCAL_OPTIONS) as fs:
        yield fs


def _cost_vector(operation, paths) -> Counter:
    """Per-call-site counts over ``operation(path)`` for every path.

    Only frames of ``src/repro`` count, without ``repro/analysis`` (the
    lockdep witness's lock proxies run under pytest, not in production).
    ``lookups_in_miss`` are metadata lookups between entering the cache
    (``get_or_compute`` / ``read_once``) and reaching ``backend.get``:
    there the record must already be in hand. ``installs`` and
    ``evictions`` are entries made and freed resident.
    """
    counts: Counter = Counter()
    in_miss = False
    entries = {
        "DecompressedCache.get_or_compute", "DecompressedCache.read_once",
    }

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
        elif name == "DecompressedCache._install":
            counts["installs"] += 1
        elif name == "DecompressedCache._evict":
            counts["evictions"] += 1
        elif name in entries:
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


class _CountingLock:
    """Stands in for a lock (or condition) and counts its acquisitions."""

    def __init__(self, inner, tally: list) -> None:
        self._inner = inner
        self._tally = tally

    def acquire(self, *args, **kwargs):
        self._tally.append(None)
        return self._inner.acquire(*args, **kwargs)

    def __enter__(self):
        self._tally.append(None)
        return self._inner.__enter__()

    def __exit__(self, *exc):
        return self._inner.__exit__(*exc)

    def __getattr__(self, name):  # release, locked, wait, notify, ...
        return getattr(self._inner, name)


def _lock_acquisitions(fs, operation, paths, *, also=()) -> int:
    """Lock acquisitions over ``operation(path)`` for every path: every
    lock held as an attribute by the client, the daemon or one of the
    daemon's own parts (metadata table, cache, backend, health tracker,
    ...) is swapped for a counting stand-in for the duration, and so is
    every ``(owner, name)`` lock listed in ``also``."""
    tally: list[None] = []
    owners = [fs.client, fs.daemon, *(
        part for part in vars(fs.daemon).values()
        if type(part).__module__.startswith("repro.")
        # under the lockdep witness a lock is itself a repro object:
        # counting its inner lock too would count it twice
        and not type(part).__module__.startswith("repro.analysis.")
        and hasattr(part, "__dict__")
    )]
    with pytest.MonkeyPatch.context() as patch:
        for owner in owners:
            for name, value in list(vars(owner).items()):
                if hasattr(value, "acquire") and hasattr(value, "__exit__"):
                    patch.setattr(owner, name, _CountingLock(value, tally))
        for owner, name in also:
            patch.setattr(owner, name, _CountingLock(getattr(owner, name), tally))
        for path in paths:
            operation(path)
    return len(tally)


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
    assert counts["lookups"] == 1 * n  # the open's probe; there is no close
    assert counts["lookups_in_miss"] == 0  # the record is carried
    assert counts["flights"] == 1 * n
    # never resident: nothing installed, so nothing to evict
    assert counts["installs"] == counts["evictions"] == 0
    assert counts["gate_calls"] == 0  # "may I ask rank r?" is a remote question
    assert counts["python_calls"] <= 18 * n
    # exact: the same reads execute the same calls
    assert _cost_vector(client.read_file, paths) == counts


def test_read_file_lock_acquisitions_and_digest_passes(packed, monkeypatch):
    """Four locks per read: the metadata table's (the probe), the
    cache's twice (miss + register the flight; retire it) and the RAM
    backend's. The client's writer guard takes its lock only while
    something is open for writing — then it is five, and the guard
    still runs. One digest pass per read, as ever. (A store of its own:
    the write below adds a file to the table.)"""
    with FanStore(packed, LOCAL_OPTIONS) as fs:
        client, paths = fs.client, _paths(fs)
        n = len(paths)
        for path in paths:
            client.read_file(path)
        assert _lock_acquisitions(fs, client.read_file, paths) == 4 * n
        digests = _Tally(monkeypatch, daemon_module, "blob_crc32")
        for path in paths:
            client.read_file(path)
        assert len(digests) == n
        fd = client.open("out/being-written", O_WRONLY | O_CREAT)
        try:
            assert _lock_acquisitions(fs, client.read_file, paths) == 5 * n
        finally:
            client.close(fd)


def test_a_local_read_hashes_on_every_read(packed, monkeypatch):
    """Mutant (c), the serve-side trust consulted on the local path. A
    local ``read_file`` is the end-to-end check, so every read hashes
    once, the second pass like the first. With ``_verified_local``
    treating every read as a peer's fetch, the second pass hashes
    nothing. (A store of its own: the mutant leaves trust behind.)"""
    with FanStore(packed, LOCAL_OPTIONS) as fs:
        client, paths = fs.client, _paths(fs)

        def two_passes() -> int:
            digests = _Tally(monkeypatch, daemon_module, "blob_crc32")
            for _ in range(2):
                for path in paths:
                    client.read_file(path)
            monkeypatch.undo()
            return len(digests)

        assert two_passes() == 2 * len(paths)
        fs.daemon._verified_local = functools.partial(
            fs.daemon._verified_local, serve=True
        )
        assert two_passes() == len(paths)


def test_descriptor_path_cost_vector(store):
    """``open``/``read``/``close`` executes what it executed before
    whole-file reads stopped making entries resident — call for call.
    Its one lock fewer (9, was 10) is the writer guard's."""
    client, paths = store.client, _paths(store)

    def open_read_close(path: str) -> None:
        fd = client.open(path)
        client.read(fd)
        client.close(fd)

    for path in paths:
        open_read_close(path)
    counts = _cost_vector(open_read_close, paths)
    n = len(paths)
    # one record resolution per open (the other probe is close's
    # canonicality proof), none of them inside the miss; one entry
    # installed pinned at the open and evicted at the close
    assert counts == Counter(
        python_calls=29 * n, lookups=2 * n, flights=n, installs=n,
        evictions=n, backend_gets=n,
    )
    assert _lock_acquisitions(store, open_read_close, paths) == 9 * n


# -- bytes allocated per decode ------------------------------------------------

#: what a sized decode may allocate beyond the plaintext itself: zlib
#: grows one spare 64 KiB block before it sees the end of the stream
DECODE_SLACK = 80 * 1024


@pytest.fixture(scope="module")
def zlib_packed(tmp_path_factory):
    """``zlib-1`` EM files, one store of ~192 KB files (the
    ``epoch_2rank_disk`` and ``local_512k_zlib`` shape) and one of
    ~8 KB files (inside zlib's default 16 KiB first block)."""
    root = tmp_path_factory.mktemp("decode-bytes")
    packed = {}
    for name, size in (("large", 192 * 1024), ("small", 8 * 1024)):
        generate_dataset(
            "em", root / name / "raw", num_files=4, avg_file_size=size,
            num_dirs=1, seed=3,
        )
        packed[name] = prepare_dataset(
            root / name / "raw", root / name / "packed", num_partitions=1,
            compressor="zlib-1",
        )
    return packed


def _peak_bytes(operation) -> int:
    """Peak bytes allocated while ``operation()`` runs (``tracemalloc``,
    no clock)."""
    tracemalloc.start()
    try:
        operation()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def _decode_peaks(packed) -> list[tuple[int, int, int]]:
    """Per record: ``st_size``, the peak of a local ``read_file`` and
    the peak of a plain ``zlib.decompress`` of its stored blob."""
    with FanStore(packed, LOCAL_OPTIONS) as fs:
        client, backend = fs.client, fs.daemon.backend
        records = list(fs.daemon.metadata.walk_files())
        for record in records:  # warm: lazy set-up is not the read's cost
            client.read_file(record.path)
        return [
            (
                record.stat.st_size,
                _peak_bytes(lambda: client.read_file(record.path)),
                _peak_bytes(
                    lambda: zlib.decompress(backend.get(record.path))
                ),
            )
            for record in records
        ]


def test_a_large_decode_allocates_its_output_once(zlib_packed):
    """The record's ``st_size`` reaches the codec as a size hint, so a
    zlib payload inflates into one buffer of its final size: a local
    ``read_file`` of a >= 128 KiB record peaks within ``DECODE_SLACK``
    of the plaintext. Decoding with zlib's default 16 KiB first block,
    the output grows block by block and is copied into the result:
    2.5-3.7 x ``st_size``, which this gate refuses."""
    peaks = _decode_peaks(zlib_packed["large"])
    assert all(size >= 128 * 1024 for size, _, _ in peaks)
    for size, peak, default in peaks:
        assert peak <= size + DECODE_SLACK
        assert default > size + DECODE_SLACK


def test_a_small_decode_keeps_the_default_block(zlib_packed):
    """At or below zlib's default 16 KiB block the hint is not used
    (an exactly full block would grow one spare 64 KiB block): a
    ``read_file`` allocates what a plain ``zlib.decompress`` does, plus
    the read path's few hundred bytes."""
    peaks = _decode_peaks(zlib_packed["small"])
    assert all(size <= zlib.DEF_BUF_SIZE for size, _, _ in peaks)
    for _, peak, default in peaks:
        assert default <= peak <= default + 1024


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
    fetch / miss / leader per path and no eviction (a fetched blob is
    decompressed without becoming resident; with a pin per file there
    were 16), one digest pass per blob on a warm home (the requester's
    ``_blob_ok``; the home hashed each resident object at its first
    serve, and hashing it again at every serve made 32), no ``Event``,
    and at most 18 Python calls under
    ``src/repro`` per file on the requesting thread (25 while each file
    was pinned; a lone ``read_file`` of a remote path: 44, was 58, then
    50 — its exact vector is the next test's)."""
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
        # the lone reads on the next test's constructed interleaving: a
        # raced reply that beats (or misses) its receiver moves the count
        read_settled = _settled(fs, client.read_file)
        _to_a_parked_receiver(monkeypatch, fs.daemon.comm)
        _to_a_parked_receiver(monkeypatch, peer.daemon.comm)
        for path in paths:
            read_settled(path)
        alone = _cost_vector(read_settled, paths)
        monkeypatch.undo()

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
        assert len(digests) == BATCH
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
            "opens": BATCH, "misses": BATCH, "evictions": 0,
            "singleflight_leaders": BATCH, "hits": 0,
            "singleflight_followers": 0, "rejected": 0, "quarantined": 0,
        }
        assert counts["flights"] == BATCH
        assert counts["installs"] == counts["evictions"] == 0
        assert counts["normalize"] == 0
        # the gate is asked once per decision: per envelope, per lone read
        assert (counts["gate_calls"], alone["gate_calls"]) == (1, BATCH)
        # bounds, not equalities: in the raced batch a reply that beats
        # its receiver to the mailbox saves the parking calls (the
        # counts above cannot move); the lone reads keep their bound
        assert counts["python_calls"] <= 18 * BATCH
        assert alone["python_calls"] <= 44 * BATCH

    run_parallel(body, 2, timeout=120)


@pytest.mark.parametrize("backend", ["ram", "disk"])
def test_lone_remote_read_digest_passes(remote_packed, tmp_path, monkeypatch,
                                        backend):
    """Digest passes of a lone remote ``read_file``, home and requester
    together. The first serve of a path is hashed at the home, and the
    requester hashes what arrives: 2 per read. Warm, a RAM home hands
    out the object it already hashed and the requester's pass is the
    only one: 1 per read (it was 2). A ``DiskBackend`` home re-reads
    storage that can rot, so it hashes every serve, still 2 per read,
    and its trust record holds none of the fresh reads it served."""
    stores: dict[int, FanStore] = {}
    passes: dict[str, int] = {}
    config = DaemonConfig(metrics_every=0)

    def body(comm):
        local_dir = tmp_path / f"rank{comm.rank}" if backend == "disk" else None
        options = FanStoreOptions(comm=comm, config=config, local_dir=local_dir)
        with FanStore(remote_packed, options) as fs:
            stores[comm.rank] = fs
            comm.barrier()
            if comm.rank == 0:
                paths = [
                    r.path for r in fs.daemon.metadata.walk_files()
                    if r.home_rank == 1
                ][:BATCH]
                for name in ("cold", "warm"):
                    digests = _Tally(monkeypatch, daemon_module, "blob_crc32")
                    for path in paths:
                        fs.client.read_file(path)
                    monkeypatch.undo()
                    passes[name] = len(digests)
            comm.barrier()  # the peer serves until the count is taken

    run_parallel(body, 2, timeout=120)
    ram = backend == "ram"
    assert passes == {"cold": 2 * BATCH, "warm": (1 if ram else 2) * BATCH}
    assert len(stores[1].daemon._hashed) == (BATCH if ram else 0)


def _to_a_parked_receiver(monkeypatch, comm) -> None:
    """Make ``comm.send`` wait until the destination has a receiver
    parked on the message's tag, so every message is a hand-off to a
    sleeping thread: a constructed interleaving, not a raced one."""
    send = comm.send
    mailboxes = comm.world._mailboxes

    def send_when_parked(payload, dest, tag=0):
        while not any(w.tag == tag for w in mailboxes[dest]._waiters):
            time.sleep(0)
        send(payload, dest, tag)

    monkeypatch.setattr(comm, "send", send_when_parked)


def _settled(fs, read):
    """``read(path)``, then wait until the home (rank 1) is back in its
    receive, so the next read starts from the same state."""
    home = fs.daemon.comm.world._mailboxes[1]

    def read_settled(path: str) -> None:
        read(path)
        while not home._waiters:
            time.sleep(0)

    return read_settled


def test_lone_remote_read_cost_vector(remote_packed, monkeypatch):
    """A lone remote ``read_file`` as an exact vector (ROADMAP item 6).
    Each message is sent only once its receiver is parked, so both hops
    are hand-offs and no count depends on the scheduler. Per read:

    - 2 wake-line writes, one per hop: the home's service thread for
      the request, the reading thread for the reply. (The lock token
      they replaced was released with the GIL held: the woken thread
      could not run, slept again, and a read cost 6 context switches.)
    - 14 lock acquisitions on the requesting rank, both ranks' mailbox
      mutexes included: 5 of them (send and receive on this side;
      receive, drain and reply at the home), the batcher's twice (take
      and pass the baton), the health tracker's twice (the gate and the
      observed latency), the cache's twice, the metadata table's, the
      RAM backend's (the replica check) and the reply-tag counter's. It
      was 15: finding the batcher took a lock every time.
    - 44 Python calls under ``src/repro`` on the reading thread (49
      before the exchange stopped entering a null span and asking it
      for a context, and the health tracker looked a breaker up three
      times per success).
    """
    stores: dict[int, FanStore] = {}
    config = DaemonConfig(metrics_every=0)
    measured: dict[str, int] = {}

    def body(comm):
        options = FanStoreOptions(comm=comm, config=config)
        with FanStore(remote_packed, options) as fs:
            stores[comm.rank] = fs
            comm.barrier()
            if comm.rank == 0:
                measure(fs, stores[1])
            comm.barrier()  # the peer serves until the count is taken

    def measure(fs, peer):
        client, daemon = fs.client, fs.daemon
        mailboxes = daemon.comm.world._mailboxes
        paths = [
            r.path for r in daemon.metadata.walk_files() if r.home_rank == 1
        ][:BATCH]
        read_settled = _settled(fs, client.read_file)
        _to_a_parked_receiver(monkeypatch, daemon.comm)
        _to_a_parked_receiver(monkeypatch, peer.daemon.comm)
        for path in paths:  # warm: a thread's first park makes its line
            read_settled(path)
        writes = _Tally(monkeypatch, communicator_module._WakeLine, "wake")
        counts = _cost_vector(read_settled, paths)
        measured["writes"] = len(writes)
        measured["locks"] = _lock_acquisitions(
            fs, read_settled, paths,
            also=[(mailbox, "_mutex") for mailbox in mailboxes]
            + [(batcher, "lock") for batcher in daemon.exchange._batchers.values()],
        )
        measured["calls"] = counts["python_calls"]
        measured["calls_again"] = _cost_vector(
            read_settled, paths
        )["python_calls"]
        monkeypatch.undo()

    run_parallel(body, 2, timeout=120)
    assert measured == {
        "writes": 2 * BATCH,
        "locks": 14 * BATCH,
        "calls": 44 * BATCH,
        "calls_again": 44 * BATCH,
    }
