"""Lock-free reads of immutable records, under racing writers.

``MetadataTable.probe`` / ``get``, ``RamBackend.get`` / ``in`` and
``DecompressedCache``'s ``in`` read their table without its lock, while
every writer keeps it (the argument is ``MetadataTable``'s docstring).
Each value a writer installs is built before the test runs, so a read
is checked by identity: it must return one of those whole objects, or
report absence the way the API does, and nothing else. Two schedules
check it, and neither verdict depends on timing:

- *threads*: a writer thread installs, replaces and drops values while
  reader threads, one kind of read each, read the same keys, with the
  interpreter switching threads every microsecond. The check holds for
  every interleaving, so it does not matter which ones the scheduler
  produces; the work is a fixed number of rounds, not a duration.
- *stepped*: the same writes on one thread, with every lock-free read
  of every key run between each two lines the writer executes in the
  module under test (a line tracer), so every state a write passes
  through between lines is read — a write that installed a value in
  two steps would show its half-made one here on every run.

``DiskBackend.get`` / ``in`` look a path up in two tables, the staged
entries and the blobs, without the lock. There the reader is the one
stepped: a ``put`` that moves a staged path to a blob lands at each
bytecode of the read in turn, and the read must still find the path.

``Communicator.iprobe`` reads a rank's mailbox queue without its mutex
too. There the reader is the one stepped: another thread of the rank
receives an older message at each line of the probe in turn, and the
probe must still see a message queued before it was called.
"""

from __future__ import annotations

import sys
import threading

from repro.comm.communicator import Communicator, World
from repro.errors import FileNotFoundInStoreError
from repro.fanstore import backend as backend_module
from repro.fanstore import cache as cache_module
from repro.fanstore import metadata as metadata_module
from repro.fanstore.backend import DiskBackend, RamBackend
from repro.fanstore.cache import DecompressedCache
from repro.fanstore.layout import FileStat, write_partition
from repro.fanstore.metadata import FileRecord, MetadataTable

KEYS = [f"d{i % 2}/f{i}" for i in range(8)]
ROUNDS = 1000


def _race(write, *reads) -> list[str]:
    """``write(key)`` on one thread and each of ``reads`` on two
    threads, ``ROUNDS`` passes over ``KEYS`` each, under a 1 µs switch
    interval. Returns what the readers found wrong. (One writer: a
    second would queue on the table's lock, and the scheduler then
    rarely hands a reader the moment inside a write.)"""
    wrong: list[str] = []
    steps = [write, *reads, *reads]
    start = threading.Barrier(len(steps))

    def run(step) -> None:
        start.wait(timeout=30)
        for _ in range(ROUNDS):
            for key in KEYS:
                try:
                    problem = step(key)
                except Exception as exc:  # an escape is a wrong answer too
                    problem = f"{step.__name__}({key}) raised {exc!r}"
                if problem:
                    wrong.append(problem)  # list.append is atomic

    threads = [
        threading.Thread(target=run, args=(step,), daemon=True)
        for step in steps
    ]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    return wrong


def _stepped(module, write, *reads) -> tuple[list[str], int]:
    """Three passes of ``write(key)`` over ``KEYS``, with every one of
    ``reads`` run on every key at each line event of ``module``'s code
    (the tracer does not trace itself, so the reads run untraced).
    Returns what the reads found wrong and how many lines they ran
    between."""
    wrong: list[str] = []
    lines = 0
    filename = module.__file__

    def tracer(frame, event, _arg):
        nonlocal lines
        if frame.f_code.co_filename != filename:
            return None
        if event == "line":
            lines += 1
            for read in reads:
                for key in KEYS:
                    problem = read(key)
                    if problem:
                        wrong.append(problem)
        return tracer

    sys.settrace(tracer)
    try:
        for _ in range(3):
            for key in KEYS:
                write(key)
    finally:
        sys.settrace(None)
    return wrong, lines


def _versions(make) -> dict[str, tuple]:
    """Two distinct prebuilt values per key: the old and the new."""
    return {key: (make(key, 1), make(key, 2)) for key in KEYS}


def _one_of(value, versions: tuple) -> bool:
    return any(value is version for version in versions)


def _record(key: str, version: int) -> FileRecord:
    return FileRecord(
        path=key, stat=FileStat(st_size=version), compressor_id=0,
        compressed_size=version, home_rank=version, partition_id=0,
    )


def _blob(key: str, version: int) -> bytes:
    return f"{key}:{version}".encode() * 8


def test_metadata_reads_see_a_whole_record_or_none():
    """The writer inserts each key's old record, then replaces it by
    its new one (an update installs a whole new record); the keys start
    absent. ``probe`` returns one of the two records or ``None``,
    ``get`` one of them or :class:`FileNotFoundInStoreError`."""
    versions = _versions(_record)

    def check(table: MetadataTable):
        flip = [0]

        def write(key: str) -> None:
            flip[0] += 1
            table.insert(versions[key][flip[0] % 2])

        def probe(key: str) -> str | None:
            seen = table.probe(key)
            if seen is not None and not _one_of(seen, versions[key]):
                return f"probe({key}) -> {seen!r}"
            return None

        def get(key: str) -> str | None:
            try:
                got = table.get(key)
            except FileNotFoundInStoreError:
                return None
            if not _one_of(got, versions[key]):
                return f"get({key}) -> {got!r}"
            return None

        return write, probe, get

    assert _race(*check(MetadataTable())) == []
    wrong, lines = _stepped(metadata_module, *check(MetadataTable()))
    assert wrong == [] and lines > 0


def test_backend_reads_see_a_whole_blob_or_absence():
    """The writer puts a key's old blob, its new one, and discards it.
    ``get`` returns one of the two objects or
    :class:`FileNotFoundInStoreError`; ``in`` answers a bool."""
    versions = _versions(_blob)

    def check(backend: RamBackend):
        step = [0]

        def write(key: str) -> None:
            step[0] += 1
            if step[0] % 3 == 2:
                backend.discard(key)
            else:
                backend.put(key, versions[key][step[0] % 3])

        def contains(key: str) -> str | None:
            if (key in backend) not in (True, False):
                return f"{key} in backend is not a bool"
            return None

        def get(key: str) -> str | None:
            try:
                got = backend.get(key)
            except FileNotFoundInStoreError:
                return None
            if not _one_of(got, versions[key]):
                return f"get({key}) -> {got!r}"
            return None

        return write, contains, get

    assert _race(*check(RamBackend())) == []
    wrong, lines = _stepped(backend_module, *check(RamBackend()))
    assert wrong == [] and lines > 0


def test_cache_membership_is_a_plain_answer():
    """The writer makes entries resident (a pinned miss), quarantines
    every other one and frees them (the close at refcount zero).
    ``in`` answers a bool and never raises; between threads, a
    whole-file read hands out the one value computed for the key. (It
    takes the cache's lock, so it is not run inside a write.)"""
    versions = _versions(_blob)

    def check(cache: DecompressedCache):
        step = [0]

        def write(key: str) -> None:
            step[0] += 1
            cache.get_or_compute(key, lambda: versions[key][0])
            if step[0] % 2:
                cache.discard(key)
            cache.close(key)

        def contains(key: str) -> str | None:
            if (key in cache) not in (True, False):
                return f"{key} in cache is not a bool"
            return None

        def read_once(key: str) -> str | None:
            got = cache.read_once(key, lambda: versions[key][0])
            if got is not versions[key][0]:
                return f"read_once({key}) -> {got!r}"
            return None

        return write, contains, read_once

    cache = DecompressedCache()
    assert _race(*check(cache)) == []
    assert len(cache) == 0  # every pin was closed
    write, contains, _ = check(DecompressedCache())
    wrong, lines = _stepped(cache_module, write, contains)
    assert wrong == [] and lines > 0


def test_a_disk_read_finds_a_path_a_put_moves(tmp_path):
    """A staged path's ``put`` indexes its blob, then drops the staged
    entry. At the k-th bytecode ``DiskBackend.get`` (or ``in``)
    executes, for every k in turn, that put lands; the read must return the
    staged or the written bytes (``in``: True), never report the path
    absent. Looking the blob up first, a put landing between the two
    lookups made a present path read as missing."""
    part = tmp_path / "part-00000.fst"
    staged, written = b"staged" * 8, b"written" * 8
    with open(part, "wb") as stream:
        write_partition([("k", 0, FileStat(st_size=48), staged)], stream)

    def read(backend):
        try:
            return backend.get("k")
        except FileNotFoundInStoreError as exc:
            return exc

    for reader, good in (
        (read, (staged, written)),
        (lambda backend: "k" in backend, (True,)),
    ):
        code = (DiskBackend.get if reader is read
                else DiskBackend.__contains__).__code__
        answers: list = []
        step = 0
        while True:
            step += 1
            backend = DiskBackend(tmp_path / f"local{len(answers)}")
            backend.ingest(part)
            executed = 0

            def tracer(frame, event, _arg):
                nonlocal executed
                if frame.f_code is not code:
                    return None
                frame.f_trace_opcodes = True
                if event == "opcode":
                    executed += 1
                    if executed == step:
                        backend.put("k", written)
                return tracer

            sys.settrace(tracer)
            try:
                answers.append(reader(backend))
            finally:
                sys.settrace(None)
            if executed < step:  # the put fell after the read's last one
                break
        assert len(answers) > 1 and all(a in good for a in answers), answers


def test_iprobe_sees_a_message_queued_before_it():
    """Rank 0's queue holds an older message and then the one probed
    for. At the k-th line the probe executes, for every k in turn,
    another thread of the rank receives the older one (``try_recv``
    pops it from the queue); the probe must answer True at every step.
    Scanning the live list, the pop at the first comparison shifted
    the probed message under the iterator and the probe answered
    False."""
    older, probed = 0x41, 0x42
    probe_code = Communicator.iprobe.__code__
    answers: list[bool] = []
    step = 0
    while True:
        step += 1
        world = World(2)
        home = world.comm(0)
        world.comm(1).send("older", dest=0, tag=older)
        world.comm(1).send("probed", dest=0, tag=probed)
        lines = 0

        def tracer(frame, event, _arg):
            nonlocal lines
            if frame.f_code is not probe_code:
                return None
            if event == "line":
                lines += 1
                if lines == step:
                    assert home.try_recv(tag=older) is not None
            return tracer

        sys.settrace(tracer)
        try:
            answers.append(home.iprobe(tag=probed))
        finally:
            sys.settrace(None)
        world.close()
        if lines < step:  # the receive fell after the probe's last line
            break
    assert len(answers) > 2 and all(answers), answers
