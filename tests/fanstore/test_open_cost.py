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
table once, installs and evicts nothing, and takes fewer locks — 10
Python calls and 2 lock acquisitions, the cache's two sections (11
while the digest ran a Python frame; 15 and 4 while the writer guard's
frame ran with nothing open for writing, a flight ran a Python
``__init__``, a local record went through the ladder's frame, the
pipeline forwarded to its codec, and the metadata probe and the RAM
backend each took a lock; 18 before ``has_digest``, the registry's
``get`` and the cache-miss lambda left the path) where the open/close
pair it replaced took 25 and 7. A sampled miss (``metrics_every``)
adds 2 calls and 6 clock reads to that and records what it took, which
the registry folds into one observation per histogram.

Calls are counted with ``sys.setprofile``; what those calls execute is
counted too, in bytecodes (``sys.settrace`` opcode events in the same
frames), so that work moved inside a frame shows as well as a frame
that left. Both are exact.

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
the program's own ``open``. Which inflate a read runs is counted too:
one libdeflate call for a large zlib record, no foreign call for a
``memcpy`` one.
"""

from __future__ import annotations

import functools
import sys
import threading
import time
import tracemalloc
import zlib
from collections import Counter
from typing import Any

import pytest

import repro.comm.communicator as communicator_module
import repro.compressors.stdlib as stdlib
import repro.fanstore.layout as layout
from repro.comm.launcher import run_parallel
from repro.compressors import get_compressor
from repro.fanstore.client import O_CREAT, O_WRONLY
from repro.datasets.synthetic import generate_dataset
from repro.fanstore.daemon import DaemonConfig
from repro.fanstore.interception import intercept
from repro.fanstore.prepare import prepare_dataset
from repro.fanstore.store import FanStore, FanStoreOptions
from repro.obs.metrics import SAMPLES_MAX, Histogram, MetricsRegistry
from tests.compressors.test_libdeflate import CountingBinding
from tests.fanstore.test_digest import DigestCalls

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


def _cost_vector(fs, operation, paths) -> Counter:
    """Per-call-site counts over ``operation(path)`` for every path.

    Only frames :func:`_ours` count. ``lookups_in_miss`` are metadata
    lookups between entering the cache (``get_or_compute`` /
    ``read_once``) and reaching ``backend.get``: there the record must
    already be in hand. ``installs`` and
    ``evictions`` are entries made and freed resident. ``flights`` are
    the in-flight computations ``fs``'s cache led (a flight runs no
    Python ``__init__``, so it is counted by the cache's own counter).
    """
    counts: Counter = Counter()
    leaders = fs.daemon.cache.stats.singleflight_leaders
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
    counts["flights"] = fs.daemon.cache.stats.singleflight_leaders - leaders
    return +counts  # zero counts dropped


class _Opcodes:
    """Counts the bytecodes executed in :func:`_ours` frames, while
    ``on``, on every thread whose ``sys.settrace`` is :meth:`trace`
    (opcode events; no clock, so the count repeats exactly)."""

    def __init__(self) -> None:
        self.count = 0
        self.on = False

    def _opcode(self, frame, event, _arg):
        if event == "opcode" and self.on:
            self.count += 1
        return self._opcode

    def _follow(self, frame) -> None:
        frame.f_trace_lines = False
        frame.f_trace_opcodes = True
        frame.f_trace = self._opcode

    def trace(self, frame, event, _arg):
        if event != "call" or not _ours(frame.f_code):
            return None
        self._follow(frame)
        return self._opcode

    def install(self) -> None:
        """Trace this thread from here on, its running frames included
        (a loop that is already running is counted as it goes round)."""
        sys.settrace(self.trace)
        frame = sys._getframe(1)
        while frame is not None:
            if _ours(frame.f_code):
                self._follow(frame)
            frame = frame.f_back


def _opcodes(operation, paths) -> int:
    """Bytecodes executed in :func:`_ours` frames on this thread over
    ``operation(path)`` for every path."""
    opcodes = _Opcodes()
    opcodes.on = True
    sys.settrace(opcodes.trace)
    try:
        for path in paths:
            operation(path)
    finally:
        sys.settrace(None)
    return opcodes.count


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
    counts = _cost_vector(store, client.read_file, paths)
    n = len(paths)
    assert counts["backend_gets"] == n  # every read was a real miss
    assert counts["normalize"] <= 1 * n
    assert counts["lookups"] == 1 * n  # the open's probe; there is no close
    assert counts["lookups_in_miss"] == 0  # the record is carried
    assert counts["flights"] == 1 * n
    # never resident: nothing installed, so nothing to evict
    assert counts["installs"] == counts["evictions"] == 0
    assert counts["gate_calls"] == 0  # "may I ask rank r?" is a remote question
    assert counts["python_calls"] == 10 * n
    # exact: the same reads execute the same calls
    assert _cost_vector(store, client.read_file, paths) == counts
    # and the same bytecodes: 312 a read. The 12 over 300 are the size
    # test that sends a payload under the floor to zlib's crc32
    # straight, with no frame (308 while the digest was a Python frame
    # of its own)
    assert _opcodes(client.read_file, paths) == LOCAL_READ_OPCODES * n


#: bytecodes of one lone local ``read_file`` under ``src/repro``
LOCAL_READ_OPCODES = 312


def test_read_file_lock_acquisitions_and_digest_passes(packed, monkeypatch):
    """Two locks per read: the cache's twice (miss + register the
    flight; retire it). The metadata probe and the RAM backend read an
    immutable record lock-free (they took one each: four). The
    client's writer guard runs, and takes its lock, only while
    something is open for writing — then it is three. One digest pass
    per read, as ever, zlib's: a 1.2 KB payload is under the floor.
    (A store of its own: the write below adds a file to the table.)"""
    with FanStore(packed, LOCAL_OPTIONS) as fs:
        client, paths = fs.client, _paths(fs)
        n = len(paths)
        for path in paths:
            client.read_file(path)
        assert _lock_acquisitions(fs, client.read_file, paths) == 2 * n
        digests = DigestCalls(monkeypatch)
        for path in paths:
            client.read_file(path)
        assert digests.counts() == Counter(zlib=n)
        fd = client.open("out/being-written", O_WRONLY | O_CREAT)
        try:
            assert _lock_acquisitions(fs, client.read_file, paths) == 3 * n
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
            digests = DigestCalls(monkeypatch)
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
    """``open``/``read``/``close``: 21 calls and 6 locks (22 while the
    digest was a Python frame). It was 29 and 10 when whole-file reads
    stopped making entries resident, 26 and 9 once three frames that
    only forwarded left (``has_digest``, the registry's ``get``, the
    cache-miss lambda) and the writer guard stopped locking while
    nothing is open for writing. Four more frames
    left with the lone local read's (the writer guard, the flight's
    ``__init__``, the ladder, the pipeline's ``decompress``), and three
    locks with the lock-free metadata probes (open and close) and RAM
    backend read."""
    client, paths = store.client, _paths(store)

    def open_read_close(path: str) -> None:
        fd = client.open(path)
        client.read(fd)
        client.close(fd)

    for path in paths:
        open_read_close(path)
    counts = _cost_vector(store, open_read_close, paths)
    n = len(paths)
    # one record resolution per open (the other probe is close's
    # canonicality proof), none of them inside the miss; one entry
    # installed pinned at the open and evicted at the close
    assert counts == Counter(
        python_calls=21 * n, lookups=2 * n, flights=n, installs=n,
        evictions=n, backend_gets=n,
    )
    assert _lock_acquisitions(store, open_read_close, paths) == 6 * n


#: what a sampled miss feeds: these five histograms, and the codec's
#: ``decode_seconds`` histogram and two byte counters
PHASE_HISTOGRAMS = (
    "daemon.phase.metadata_seconds", "daemon.phase.fetch_seconds",
    "daemon.phase.verify_seconds", "daemon.phase.decompress_seconds",
    "daemon.open_seconds",
)


def test_a_sampled_miss_costs_what_it_measures(packed, store, monkeypatch):
    """``metrics_every=1``: every local read is a sampled miss. Over the
    unsampled read it executes exactly 2 more Python calls (the sampled
    miss's frame and the ladder's) and 6 clock reads (one at each of
    the 4 phase boundaries, plus the verify pair; the decode's pair
    also times the codec), and it appends one record, which the
    registry folds into one observation of each of the six histograms
    and both byte counters by the read's sizes. No trace can exist, so
    no span is asked for. It was 3 more calls and 440 more bytecodes
    while the read fed the eight metrics itself in one ``observe_all``
    (now 112, and the fold's share is paid once per
    :data:`~repro.obs.metrics.SAMPLES_MAX` records), 12 more calls
    before that (the sampled miss's frame, ``maybe_root``, a null
    span's enter and exit, six ``observe`` and two ``inc``; the
    ladder's frame was on the unsampled read too) and 9 clock reads.
    The windows below start with nothing waiting to fold and hold
    fewer records than a fold takes."""
    bare_client, paths = store.client, _paths(store)
    n = len(paths)
    assert n < SAMPLES_MAX
    for path in paths:
        bare_client.read_file(path)
    bare = _cost_vector(store, bare_client.read_file, paths)
    bare_opcodes = _opcodes(bare_client.read_file, paths)
    options = FanStoreOptions(config=DaemonConfig(metrics_every=1))
    with FanStore(packed, options) as fs:
        client, metrics = fs.client, fs.metrics
        records = list(fs.daemon.metadata.walk_files())
        (codec,) = {
            fs.daemon.registry.get(r.compressor_id).name for r in records
        }
        histograms = (*PHASE_HISTOGRAMS, f"codec.{codec}.decode_seconds")
        byte_counters = {
            f"codec.{codec}.decode_bytes":
                sum(r.stat.st_size for r in records),
            f"codec.{codec}.decode_compressed_bytes":
                sum(r.compressed_size for r in records),
        }
        for path in paths:  # warm: the codec's metrics are made once
            client.read_file(path)
        metrics.fold()
        sampled = _cost_vector(fs, client.read_file, paths)
        metrics.fold()
        sampled_opcodes = _opcodes(client.read_file, paths)
        before = {name: metrics.get(name).count for name in histograms}
        before.update(
            (name, metrics.get(name).value) for name in byte_counters
        )
        clocks = _Tally(monkeypatch, time, "perf_counter")
        for path in paths:
            client.read_file(path)
        monkeypatch.undo()
        assert sampled - bare == Counter(python_calls=2 * n)
        assert bare - sampled == Counter()
        assert sampled_opcodes - bare_opcodes == SAMPLED_SURCHARGE_OPCODES * n
        assert len(clocks) == 6 * n
        assert {
            name: metrics.get(name).count - before[name] for name in histograms
        } == dict.fromkeys(histograms, n)
        assert {
            name: metrics.get(name).value - before[name]
            for name in byte_counters
        } == byte_counters


#: bytecodes a sampled miss adds to a lone local read, its record's
#: append included and its fold not
SAMPLED_SURCHARGE_OPCODES = 112


def test_a_snapshot_folds_what_eager_observation_gives(packed):
    """What a snapshot reports after sampled reads equals observing each
    recorded sample as it was taken: bucket counts, count, min and max
    exactly, the sum up to float rounding, and the byte counters
    exactly. Three reading threads sample while a fourth snapshots,
    with a short switch interval, so folds run from full buffers and
    from snapshots at once; every record is kept as it is appended, and
    the final snapshot must hold each exactly once — none lost, none
    folded twice."""
    metrics = MetricsRegistry()
    appended: list[tuple] = []

    class Kept(list):
        def append(self, record):
            appended.append(record)
            super().append(record)

    metrics.samples = Kept()
    options = FanStoreOptions(
        config=DaemonConfig(metrics_every=1), metrics=metrics
    )
    readers_n, passes = 3, 8
    with FanStore(packed, options) as fs:
        paths = _paths(fs)
        stop = threading.Event()
        torn: list[str] = []  # histograms a snapshot caught mid-fold
        taken = [0]

        def read(mine: list[str]) -> None:
            # disjoint shares: no read joins another's flight, so every
            # read is a sampled miss of its own
            for _ in range(passes):
                for path in mine:
                    fs.client.read_file(path)

        def snapshot() -> None:
            while not stop.is_set():
                torn.extend(
                    m["name"] for m in metrics.snapshot().metrics
                    if m["type"] == "histogram"
                    and sum(m["buckets"]) != m["count"]
                )
                taken[0] += 1

        threads = [threading.Thread(target=snapshot)] + [
            threading.Thread(target=read, args=(paths[k::readers_n],))
            for k in range(readers_n)
        ]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads[1:]:
                thread.join(timeout=60)
            stop.set()
            threads[0].join(timeout=60)
        finally:
            stop.set()
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        final = {m["name"]: m for m in metrics.snapshot().metrics}

    assert len(appended) == passes * len(paths) > SAMPLES_MAX
    # every snapshot on the way was whole: buckets add up to the count
    assert taken[0] > 1 and not torn
    # eager: each record's plan applied by hand, one observation at a time
    eager: dict[str, Any] = {}
    for plan, *fields in appended:
        for metric, j, i in plan:
            value = fields[j] if i is None else fields[j] - fields[i]
            if type(metric) is Histogram:
                eager.setdefault(
                    metric.name, Histogram(metric.name, metric.edges)
                ).observe(value)
            else:
                eager[metric.name] = eager.get(metric.name, 0) + value
    assert len(eager) == 8
    for name, want in eager.items():
        got = final[name]
        if isinstance(want, Histogram):
            want = want.to_dict()
            assert got.pop("sum") == pytest.approx(want.pop("sum"))
            assert got == want
        else:
            assert got["value"] == want


def test_a_wrapped_compressor_sees_every_decode(store):
    """The traced benchmark books decode time by wrapping the
    compressor's ``decompress`` attribute (on the frozen instance). A
    filterless pipeline's is its codec's own method, so the read path
    decodes without a forwarding frame and the wrapper still sees
    every decode."""
    client, paths = store.client, _paths(store)
    (cid,) = {r.compressor_id for r in store.daemon.metadata.walk_files()}
    compressor = get_compressor(cid)
    decode = compressor.decompress
    decodes: list[None] = []

    def counted(*args):
        decodes.append(None)
        return decode(*args)

    object.__setattr__(compressor, "decompress", counted)
    try:
        for path in paths:
            client.read_file(path)
    finally:
        object.__setattr__(compressor, "decompress", decode)
    assert len(decodes) == len(paths)


# -- bytes allocated per decode ------------------------------------------------

#: what a sized decode may allocate beyond the plaintext itself: zlib
#: grows one spare 64 KiB block before it sees the end of the stream
#: (libdeflate inflates into its thread's scratch, kept from the warm
#: read, and allocates only the bytes it returns)
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


# -- which inflate a read runs --------------------------------------------


def _inflate_calls(monkeypatch, read) -> dict[str, int]:
    """The libdeflate calls and ``zlib.decompress`` calls ``read()``
    makes: the module's binding and zlib's function are swapped for
    counting ones around it."""
    binding = CountingBinding(stdlib._LIBDEFLATE)
    decompress = zlib.decompress
    calls = binding.calls
    calls["zlib.decompress"] = 0

    def counted(*args):
        calls["zlib.decompress"] += 1
        return decompress(*args)

    with monkeypatch.context() as patch:
        patch.setattr(stdlib, "_LIBDEFLATE", binding)
        patch.setattr(zlib, "decompress", counted)
        read()
    return +Counter(calls)


@pytest.mark.skipif(
    stdlib._LIBDEFLATE is None, reason="libdeflate.so.0 is not installed"
)
def test_a_large_zlib_read_inflates_once_through_libdeflate(
    zlib_packed, monkeypatch
):
    """A local read of a >= 128 KiB ``zlib-1`` record makes one
    libdeflate call and no ``zlib.decompress`` call, so a fast path
    that silently fell back to zlib would show here."""
    with FanStore(zlib_packed["large"], LOCAL_OPTIONS) as fs:
        client = fs.client
        for record in fs.daemon.metadata.walk_files():
            assert record.stat.st_size >= 128 * 1024
            client.read_file(record.path)  # warm: the scratch is set up
            calls = _inflate_calls(
                monkeypatch, lambda: client.read_file(record.path)
            )
            assert calls == {"libdeflate_zlib_decompress": 1}


def test_a_memcpy_read_makes_no_foreign_call(store, monkeypatch):
    """A 1.2 KB ``memcpy`` read reaches neither inflate."""
    client, paths = store.client, _paths(store)
    calls = _inflate_calls(
        monkeypatch, lambda: [client.read_file(path) for path in paths]
    )
    assert calls == {}


# -- the batched remote read ----------------------------------------------------

BATCH = 16

#: what digests a payload past the floor, such as these 16 KB ones
LARGE_DIGEST = "libdeflate" if layout._LIBDEFLATE_CRC32 else "zlib"


def test_read_files_on_one_rank_is_the_read_file_loop(store):
    """No peers, no envelope: ``read_files`` executes exactly what
    ``BATCH`` ``read_file`` calls execute, plus three frames per batch:
    its own, the one ``fetch_many`` that finds nobody to ask, and the
    list comprehension that is the loop."""
    client, paths = store.client, _paths(store)[:BATCH]
    client.read_files(paths)  # warm
    looped = _cost_vector(store, client.read_file, paths)
    batched = _cost_vector(store, client.read_files, [paths])
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
    and exactly 199 Python calls under ``src/repro`` per batch on the
    requesting thread, on the next test's constructed interleaving. The
    16 over 183 are one ``blob_crc32`` frame per blob: past the floor
    the digest is the router that hands a payload to libdeflate, where
    it was zlib's ``crc32`` called straight (200
    while every digest pass and every observed latency ran a Python
    frame of its own, 248
    with the writer guard's frame, ``_Flight.__init__`` and
    ``Compressor.decompress`` per file; raced, it was bounded by 18 per
    file, 25 while each file was pinned). A lone ``read_file`` of a
    remote path: 27, was 58, then 50, 44, 31, 28 and 26 — its full
    vector is the next test's."""
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
        # the lone reads and the batch on the next test's constructed
        # interleaving: a raced reply that beats (or misses) its
        # receiver would move the call counts
        read_settled = _settled(client.read_file, peer)
        batch_settled = _settled(client.read_files, peer)
        _to_a_parked_receiver(monkeypatch, fs.daemon.comm)
        _to_a_parked_receiver(monkeypatch, peer.daemon.comm)
        for path in paths:
            read_settled(path)
        alone = _cost_vector(fs, read_settled, paths)
        first = _cost_vector(fs, batch_settled, [paths])

        sends = _Tally(monkeypatch, fs.daemon.comm, "send")
        recvs = _Tally(monkeypatch, fs.daemon.comm, "recv")
        served = _Tally(monkeypatch, peer.daemon.comm, "send")
        digests = DigestCalls(monkeypatch)
        events = _Tally(monkeypatch, threading, "Event")
        before, peer_before = fs.metrics.snapshot(), peer.metrics.snapshot()
        cache_before = vars(fs.daemon.cache.stats).copy()
        counts = _cost_vector(fs, batch_settled, [paths])
        after, peer_after = fs.metrics.snapshot(), peer.metrics.snapshot()
        monkeypatch.undo()

        assert (len(sends), len(recvs), len(served)) == (1, 1, 1)
        assert digests.counts() == Counter({LARGE_DIGEST: BATCH})
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
        # exact, as the interleaving is constructed
        assert counts == first
        assert counts["python_calls"] == 199
        assert alone["python_calls"] == 27 * BATCH

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
                    digests = DigestCalls(monkeypatch)
                    for path in paths:
                        fs.client.read_file(path)
                    monkeypatch.undo()
                    passes[name] = digests.counts()
            comm.barrier()  # the peer serves until the count is taken

    run_parallel(body, 2, timeout=120)
    ram = backend == "ram"
    assert passes == {
        "cold": Counter({LARGE_DIGEST: 2 * BATCH}),
        "warm": Counter({LARGE_DIGEST: (1 if ram else 2) * BATCH}),
    }
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
    thread = home.daemon.server._service_thread

    def read_settled(path: str) -> None:
        read(path)
        while not _parked(thread):
            time.sleep(0)

    return read_settled


def _on_service_thread(monkeypatch, home, install) -> None:
    """Run ``install()`` on the ``home`` store's service thread once, at
    its next decode of a request — every request is decoded on that
    thread, idle or not, before it is served or admitted.
    ``sys.setprofile`` and ``sys.settrace`` bind the calling thread
    only, so that thread installs them itself."""
    server = home.daemon.server
    decode = server._decode
    pending = [install]

    def decode_hooked(msg):
        while pending:
            pending.pop()()
        return decode(msg)

    monkeypatch.setattr(server, "_decode", decode_hooked)


def _profile_service_thread(monkeypatch, home, profiler) -> None:
    """Run ``profiler`` on the ``home`` store's service thread from its
    next decode on."""
    _on_service_thread(monkeypatch, home, lambda: sys.setprofile(profiler))


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


def _service_thread_opcodes(monkeypatch, home, read_settled, paths) -> int:
    """Bytecodes executed in :func:`_ours` frames on the home's service
    thread over ``read_settled(path)`` for every path, its serve loop's
    own included; windowed like :func:`_service_thread_calls`."""
    opcodes = _Opcodes()
    _on_service_thread(monkeypatch, home, opcodes.install)
    read_settled(paths[0])
    opcodes.on = True
    for path in paths:
        read_settled(path)
    opcodes.on = False
    return opcodes.count


def test_lone_remote_read_cost_vector(remote_packed, monkeypatch):
    """A lone remote ``read_file`` as an exact vector (ROADMAP item 6).
    Each message is sent only once its receiver is parked, so both hops
    are hand-offs and no count depends on the scheduler. Per read:

    - 2 wake-line writes, one per hop: the home's service thread for
      the request, the reading thread for the reply. (The lock token
      they replaced was released with the GIL held: the woken thread
      could not run, slept again, and a read cost 6 context switches.)
    - 9 lock acquisitions on the requesting rank, both ranks' mailbox
      mutexes included: 4 of them (send and receive on this side;
      receive and reply at the home, whose idle decision probes its
      mailbox without the mutex), the batcher's twice (take and pass
      the baton), the cache's twice and the reply-tag counter's. It was
      11 while the home drained its mailbox before serving an idle
      request and the health tracker locked to note a success against
      a clean CLOSED breaker, 15 while finding the batcher took a lock
      every time, 14 while the gate did, then 13 while the metadata
      probe and the RAM backend's replica check each took a lock.
    - 27 Python calls under ``src/repro`` on the reading thread: one
      frame per hop, none that only forwards its arguments, and the
      digest's router, ``blob_crc32``, which hands the 16 KB payload
      to libdeflate. It was 26 while the digest was zlib's ``crc32``
      called straight, 28
      while the digest and a clean breaker's success each ran a frame,
      31
      with the writer guard's frame (called while nothing was open for
      writing), ``_Flight.__init__`` and the pipeline's forwarding
      ``Compressor.decompress``; before that 49
      while the exchange entered a null span and asked it for a
      context, then 44 with the home tier's own frame, the breaker's
      three-call gate, the batcher and reply-tag helpers, the request
      envelope's ``encode``, ``has_digest``, the registry's ``get``,
      the cache-miss lambda, two ``_check_rank`` calls and the
      mailbox's ``_match``. (The message is a ``__slots__`` class now;
      its ``__init__`` is counted where the dataclass's generated one,
      compiled from a string, was not.)
    - 17 Python calls under ``src/repro`` on the home's service thread
      per request served, from waking in its receive to parking in the
      next one: the decode, the idle probe of its mailbox, the answer
      (``_answer``, the backend, the trust check) and the reply. It was
      24 while an idle request went through admission (queue push,
      three ``len``, a drain that found nothing, pop), 29 with a
      ``_respond`` frame between serving and answering, three
      ``_check_rank`` calls and two ``_match`` calls.
    - 1,020 bytecodes under ``src/repro`` on the reading thread and
      560 on the home's, its serve loop's own included. The home ran
      565 while its idle decision also read the worker pool's in-flight
      count (``self._inflight == 0``: 5 bytecodes); one thread serves
      every request now, so only the mailbox probe decides. The reader's
      45 over 975 are the digest's size test (12) and ``blob_crc32``'s
      frame (33); on a host without libdeflate that frame returns at
      its first test, and the reader runs 995. Its 6 over 969 before
      that are the type check that makes an OK reply whose value is no
      blob a corrupt reply (it raised ``TypeError`` before). The home's
      3 over 562 are the idle probe's ``tuple`` snapshot of its queue
      (a live-list scan could skip a queued request). It was 983
      and 747 while the home admitted an idle request, its decode
      checked each field in full, the digest and a clean breaker's
      success ran frames of their own, and a success locked.
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
        counts = _cost_vector(fs, read_settled, paths)
        measured["writes"] = len(writes)
        measured["locks"] = _lock_acquisitions(
            fs, read_settled, paths,
            also=[(mailbox, "_mutex") for mailbox in mailboxes]
            + [(batcher, "lock") for batcher in daemon.exchange._batchers.values()],
        )
        measured["calls"] = counts["python_calls"]
        measured["calls_again"] = _cost_vector(
            fs, read_settled, paths
        )["python_calls"]
        measured["opcodes"] = _opcodes(read_settled, paths)
        measured["home_calls"] = _service_thread_calls(
            monkeypatch, peer, read_settled, paths
        )
        measured["home_opcodes"] = _service_thread_opcodes(
            monkeypatch, peer, read_settled, paths
        )
        monkeypatch.undo()

    run_parallel(body, 2, timeout=120)
    assert measured == {
        "writes": 2 * BATCH,
        "locks": 9 * BATCH,
        "calls": 27 * BATCH,
        "calls_again": 27 * BATCH,
        "opcodes": (1020 if LARGE_DIGEST == "libdeflate" else 995) * BATCH,
        "home_calls": 17 * BATCH,
        "home_opcodes": 560 * BATCH,
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
