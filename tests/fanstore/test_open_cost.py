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
table once, installs and evicts nothing, and takes fewer locks — 15
Python calls (18 before ``has_digest``, the registry's ``get`` and the
cache-miss lambda left the path) and 4 lock acquisitions where the
open/close pair it replaced took 25 and 7.

The batched remote read (``read_files``) is pinned the same way at the
end of the file: messages, fetches, misses, digest passes and ``Event``
constructions per batch of 16 — and, on one rank, that it executes what
16 ``read_file`` calls execute. Digest passes are counted on every path:
a local read hashes every time, a warm RAM home serves a peer without a
second pass, and a ``DiskBackend`` home hashes every serve. A lone
remote ``read_file`` is pinned last, as an exact vector on a constructed
interleaving: wake-line writes, locks with both ranks' mailbox mutexes,
and Python calls on the reading thread and on the home's service
thread; and an intercepted read of one runs the interposer once, for
the program's own ``open``.
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
from repro.fanstore.interception import intercept
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


def _ours(code) -> bool:
    """A frame of ``src/repro``, not of ``repro/analysis`` (the lockdep
    witness's lock proxies run under pytest, not in production)."""
    filename = code.co_filename
    return "/repro/" in filename and "/repro/analysis/" not in filename


def _cost_vector(operation, paths) -> Counter:
    """Per-call-site counts over ``operation(path)`` for every path.

    Only frames :func:`_ours` count. ``lookups_in_miss`` are metadata
    lookups between entering the cache (``get_or_compute`` /
    ``read_once``) and reaching ``backend.get``: there the record must
    already be in hand. ``installs`` and
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
        if not _ours(code):
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
    assert counts["python_calls"] <= 15 * n
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
    """``open``/``read``/``close`` executes what it executed when
    whole-file reads stopped making entries resident, less three
    frames that only forwarded: ``has_digest``, the registry's ``get``
    and the cache-miss lambda (26 calls, was 29). Its one lock fewer
    (9, was 10) is the writer guard's."""
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
        python_calls=26 * n, lookups=2 * n, flights=n, installs=n,
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
    was pinned; a lone ``read_file`` of a remote path: 31, was 58, then
    50, then 44 — its exact vector is the next test's)."""
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
        read_settled = _settled(client.read_file, peer)
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
        assert alone["python_calls"] <= 31 * BATCH

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


def _parked(thread: threading.Thread) -> bool:
    """True while ``thread`` sleeps in its wake line's poll: its
    innermost Python frame is ``_WakeLine.wait``, whose call has
    therefore already happened."""
    frame = sys._current_frames().get(thread.ident)
    return (
        frame is not None
        and frame.f_code is communicator_module._WakeLine.wait.__code__
    )


def _settled(read, home):
    """``read(path)``, then wait until the ``home`` store's service
    thread is parked in its receive again, so the next read starts from
    the same state on both ranks."""
    thread = home.daemon._service_thread

    def read_settled(path: str) -> None:
        read(path)
        while not _parked(thread):
            time.sleep(0)

    return read_settled


def _profile_service_thread(monkeypatch, home, profiler) -> None:
    """Run ``profiler`` on the ``home`` store's service thread from its
    next admission on. ``sys.setprofile`` binds the calling thread only,
    so that thread installs it itself."""
    daemon = home.daemon
    admit = daemon._admit

    def admit_profiled(queue, msg):
        sys.setprofile(profiler)
        return admit(queue, msg)

    monkeypatch.setattr(daemon, "_admit", admit_profiled)


def _service_thread_calls(monkeypatch, home, read_settled, paths) -> int:
    """Python calls under ``src/repro`` on the home's service thread
    over ``read_settled(path)`` for every path. The read that installs
    the profiler is not counted; each counted read starts and ends with
    the thread parked, so the window holds whole serves only."""
    calls = 0
    counting = False

    def profiler(frame, event, _arg):
        nonlocal calls
        if counting and event == "call" and _ours(frame.f_code):
            calls += 1

    _profile_service_thread(monkeypatch, home, profiler)
    read_settled(paths[0])
    counting = True
    for path in paths:
        read_settled(path)
    counting = False
    return calls


def test_lone_remote_read_cost_vector(remote_packed, monkeypatch):
    """A lone remote ``read_file`` as an exact vector (ROADMAP item 6).
    Each message is sent only once its receiver is parked, so both hops
    are hand-offs and no count depends on the scheduler. Per read:

    - 2 wake-line writes, one per hop: the home's service thread for
      the request, the reading thread for the reply. (The lock token
      they replaced was released with the GIL held: the woken thread
      could not run, slept again, and a read cost 6 context switches.)
    - 13 lock acquisitions on the requesting rank, both ranks' mailbox
      mutexes included: 5 of them (send and receive on this side;
      receive, drain and reply at the home), the batcher's twice (take
      and pass the baton), the health tracker's once (the observed
      latency; the gate reads a CLOSED breaker without it), the cache's
      twice, the metadata table's, the RAM backend's (the replica
      check) and the reply-tag counter's. It was 15 while finding the
      batcher took a lock every time, then 14 while the gate did.
    - 31 Python calls under ``src/repro`` on the reading thread: one
      frame per hop, none that only forwards its arguments. It was 49
      while the exchange entered a null span and asked it for a
      context, then 44 with the home tier's own frame, the breaker's
      three-call gate, the batcher and reply-tag helpers, the request
      envelope's ``encode``, ``has_digest``, the registry's ``get``,
      the cache-miss lambda, two ``_check_rank`` calls and the
      mailbox's ``_match``. (The message is a ``__slots__`` class now;
      its ``__init__`` is counted where the dataclass's generated one,
      compiled from a string, was not.)
    - 24 Python calls under ``src/repro`` on the home's service thread
      per request served, from waking in its receive to parking in the
      next one: the admission (decode, queue push, drain), the answer
      (``_answer``, the backend, the trust check) and the reply. It
      was 29 with a ``_respond`` frame between serving and answering,
      three ``_check_rank`` calls and two ``_match`` calls.
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
        read_settled = _settled(client.read_file, peer)
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
        measured["home_calls"] = _service_thread_calls(
            monkeypatch, peer, read_settled, paths
        )
        monkeypatch.undo()

    run_parallel(body, 2, timeout=120)
    assert measured == {
        "writes": 2 * BATCH,
        "locks": 13 * BATCH,
        "calls": 31 * BATCH,
        "calls_again": 31 * BATCH,
        "home_calls": 24 * BATCH,
    }


def test_an_intercepted_remote_read_runs_the_interposer_once(
    remote_packed, tmp_path, monkeypatch
):
    """FanStore's own I/O never runs through its own interposer: the
    paper's trampolines reach the real libc, and so does the store. An
    intercepted ``open()`` read of a remote file, over a
    ``DiskBackend`` home, runs exactly one ``patched_open`` per read on
    either rank — the program's own ``open`` — and no ``patched_os_*``
    frame. The wake lines' ``os.write``/``os.read`` and the home's blob
    read use the calls bound at import; before, every hop ran
    ``patched_os_write`` and ``patched_os_read``, and the home's
    ``Path.read_bytes()`` ran a second ``patched_open``."""
    stores: dict[int, FanStore] = {}
    config = DaemonConfig(metrics_every=0)
    measured: dict[str, Counter] = {}

    def body(comm):
        options = FanStoreOptions(
            comm=comm, config=config, local_dir=tmp_path / f"rank{comm.rank}"
        )
        with FanStore(remote_packed, options) as fs:
            stores[comm.rank] = fs
            comm.barrier()
            if comm.rank == 0:
                measure(fs, stores[1])
            comm.barrier()  # the peer serves until the count is taken

    def measure(fs, peer):
        paths = [
            r.path for r in fs.daemon.metadata.walk_files()
            if r.home_rank == 1
        ][:BATCH]
        frames: Counter = Counter()
        counting = False

        def profiler(frame, event, _arg):
            if counting and event == "call":
                name = frame.f_code.co_qualname
                if name.startswith("intercept.<locals>.patched_"):
                    frames[name.rpartition(".")[2]] += 1

        def read(path: str) -> None:
            with open(f"{fs.mount_point}/{path}", "rb") as fh:
                fh.read()

        read_settled = _settled(read, peer)
        with intercept(fs):
            _profile_service_thread(monkeypatch, peer, profiler)
            read_settled(paths[0])  # the home installs its profiler
            before = fs.daemon.stats.remote_fetches
            sys.setprofile(profiler)
            counting = True
            try:
                for path in paths:
                    read_settled(path)
            finally:
                counting = False
                sys.setprofile(None)
            measured["fetches"] = fs.daemon.stats.remote_fetches - before
        monkeypatch.undo()
        measured["frames"] = frames

    run_parallel(body, 2, timeout=120)
    assert measured["fetches"] == BATCH  # every read crossed ranks
    assert measured["frames"] == Counter(patched_open=BATCH)
