"""The set-up path's deterministic cost vector (ROADMAP item 5).

What packing, ingesting, indexing and first scanning one more file
*executes* — counted with ``sys.setprofile``, no clock involved, so the
counts repeat exactly. Every count is a *slope*: the difference between
a 400-file and a 200-file tree (same four directories) over the 200
extra files, so what is paid once per call or once per partition
(``Path`` handling of the two roots, the manifest, the hash of the
partition file) costs nothing here, and what is paid per file cannot
hide.

Per packed file ``prepare_dataset`` reads the file with four calls on
one descriptor (``os.open``, ``os.read``, ``os.fstat``, ``os.close``),
builds the stat record once, canonicalises the name once, and writes
the entry — header and payload — with one ``write``, through no
``pathlib`` and no ``dataclasses`` frame: 7 Python calls under
``src/repro``. Per ingested file ``FanStore(prepared)`` builds the stat
once, already stamped with its home rank, canonicalises once and walks
no ``dirname``/``basename`` chain: 3 Python calls, with one hold of the
table lock, and one of the RAM backend's lock, per *partition*. The
first ``list_training_files`` reads the directory index in one hold. A
store over a ``DiskBackend`` scans its journal directory once per
launch and not at all when it restarts after ``shutdown()``; its load
stages each partition whole — one kernel copy (``sendfile``), one
tmp-file open, two fsyncs (the copy's and its directory's) and one
rename per *partition* — and costs a file nothing of the kind.

The parent of the PR that staged partitions whole unpacked a
``DiskBackend`` load into one blob per file: per file one tmp-file
open, two fsyncs and one rename.

The parent of the PR that made the stat a named tuple executed, per
packed file, one ``io.open`` and one ``os.fstat`` (the descriptor read
through a buffered file object), five ``write`` calls, 9 Python calls
under ``src/repro`` and 35 C calls; per ingested file two ``FileStat``
constructions (parsed, then stamped by ``with_locality``), 5 Python
calls, 18 C calls and one hold of the RAM backend's lock per file (per
file too on a ring-copy hop). The parent of the PR that added this file
executed, per packed file, 54 ``pathlib`` and 4 ``dataclasses`` frames,
3 ``FileStat`` constructions, 11 Python calls under ``src/repro`` and
99 C calls; per ingested file 2 ``dataclasses`` and 9 ``posixpath``
frames, 7 Python calls, 50 C calls and a lock hold; per scanned file a
lock hold and a ``normalize``. The parent of the PR that moved restart
recovery into the journal scanned the journal directory twice per
launch and once per restart.
"""

from __future__ import annotations

import gc
import itertools
import sys
from collections import Counter

import pytest

import repro.fanstore.daemon as daemon_mod
import repro.fanstore.journal as journal_mod
from repro.comm.launcher import run_parallel
from repro.fanstore.backend import RamBackend
from repro.fanstore.daemon import DaemonConfig
from repro.fanstore.layout import FileStat
from repro.fanstore.metadata import MetadataTable
from repro.fanstore.prepare import prepare_dataset
from repro.fanstore.store import FanStore, FanStoreOptions
from repro.training.loader import list_training_files

SMALL, LARGE = 200, 400
DIRS = 4


@pytest.fixture(scope="module")
def trees(tmp_path_factory):
    """Two trees of ~600-byte files in the same four directories — the
    ``local_1k_memcpy`` shape."""
    root = tmp_path_factory.mktemp("setup-cost")
    for n in (SMALL, LARGE):
        for i in range(n):
            path = root / f"raw{n}" / f"cls{i % DIRS:04d}" / f"file{i:05d}.bin"
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_bytes(bytes([i % 251]) * (500 + i % 200))
    # warm pass: imports and the codec registry are not a file's cost
    with FanStore(_pack(root, SMALL)) as fs:
        list_training_files(fs.client)
    return root


#: the descriptor-level calls a packed file is read with
_FILE_SYSCALLS = frozenset({"open", "read", "fstat", "close"})


def _counted(operation):
    """``(counts, result)`` of one ``operation()`` on this thread.

    ``repro_calls`` are frames of ``src/repro`` without
    ``repro/analysis`` (the lockdep witness's lock proxies run under
    pytest, not in production); dataclass-generated ``__init__`` frames
    live in ``<string>`` and are not among them. A ``FileStat`` is
    built by its ``__new__`` (keywords) or by ``_make`` (a parsed
    record, and ``_replace``); ``_make``'s code is every named tuple's,
    so its frame counts only when its ``cls`` is ``FileStat``.
    ``writes`` are ``write`` calls on any stream, ``file_syscalls`` the
    ``os`` calls of :data:`_FILE_SYSCALLS`; ``fsyncs``, ``renames``,
    ``opens`` (``io.open``) and ``copies`` (``os.sendfile``) are what a
    durable file costs."""
    counts: Counter = Counter()
    stat_new = FileStat.__new__.__code__
    make = FileStat._make.__func__.__code__

    def profiler(frame, event, arg):
        if event == "c_call":
            counts["c_calls"] += 1
            name = arg.__name__
            module = getattr(arg, "__module__", None)
            if name == "write":
                counts["writes"] += 1
            elif module == "posix":
                counts["file_syscalls"] += name in _FILE_SYSCALLS
                counts["fsyncs"] += name == "fsync"
                counts["renames"] += name == "replace"
                counts["copies"] += name == "sendfile"
            elif module == "io" and name == "open":
                counts["opens"] += 1
            return
        if event != "call":
            return
        code = frame.f_code
        filename = code.co_filename
        if code is stat_new or (
            code is make and frame.f_locals.get("cls") is FileStat
        ):
            counts["FileStat"] += 1
        elif filename.endswith("pathlib.py"):
            counts["pathlib"] += 1
        elif filename.endswith("dataclasses.py"):
            counts["dataclasses"] += 1
        elif "posixpath" in filename:
            counts["posixpath"] += 1
        elif "/repro/" in filename and "/repro/analysis/" not in filename:
            counts["repro_calls"] += 1
            counts["normalize"] += code.co_qualname == "normalize"

    # another test's garbage, freed by a collection inside the window,
    # is not this operation's cost (a freed DiskBackend closes its
    # staged partitions' descriptors)
    gc.collect()
    gc.disable()
    sys.setprofile(profiler)
    try:
        result = operation()
    finally:
        sys.setprofile(None)
        gc.enable()
    return counts, result


_COUNTED = ("pathlib", "dataclasses", "posixpath", "FileStat", "normalize",
            "repro_calls", "c_calls", "writes", "file_syscalls", "fsyncs",
            "renames", "opens", "copies")


def _per_file(small: Counter, large: Counter) -> dict[str, float]:
    """The slope: what each of the ``LARGE - SMALL`` extra files cost
    (a per-call cost that differs by a frame or two — the partition
    file's hash reads one more chunk — shows as a few hundredths)."""
    return {
        name: (large[name] - small[name]) / (LARGE - SMALL)
        for name in _COUNTED
    }


class _CountingLock:
    """The table's lock, counting its holds."""

    def __init__(self, lock, holds: list) -> None:
        self._lock, self._holds = lock, holds

    def __enter__(self):
        self._holds.append(None)
        return self._lock.__enter__()

    def __exit__(self, *exc_info):
        return self._lock.__exit__(*exc_info)


def _count_lock_holds(monkeypatch, cls) -> list:
    """Every ``with self._lock`` of any ``cls`` built from now on."""
    holds: list[None] = []
    plain_init = cls.__init__

    def counting_init(self, *args) -> None:
        plain_init(self, *args)
        self._lock = _CountingLock(self._lock, holds)

    monkeypatch.setattr(cls, "__init__", counting_init)
    return holds


@pytest.fixture()
def table_lock_holds(monkeypatch):
    """Every ``with table._lock`` of any table built during the test."""
    return _count_lock_holds(monkeypatch, MetadataTable)


@pytest.fixture()
def backend_lock_holds(monkeypatch):
    """Every ``with backend._lock`` of any RAM backend built during the
    test."""
    return _count_lock_holds(monkeypatch, RamBackend)


_fresh = itertools.count()


def _pack(trees, n: int, partitions: int = 1):
    """Into a directory of its own: a re-pack over a previous output
    takes another ``mkdir`` path."""
    return prepare_dataset(
        trees / f"raw{n}", trees / f"packed{next(_fresh)}",
        num_partitions=partitions, compressor="memcpy", threads=1,
    )


def test_pack_cost_per_file(trees):
    small, _ = _counted(lambda: _pack(trees, SMALL))
    large, prepared = _counted(lambda: _pack(trees, LARGE))
    assert prepared.num_files == LARGE
    per_file = _per_file(small, large)
    assert abs(per_file["pathlib"]) < 0.1
    assert per_file["dataclasses"] == 0
    assert per_file["FileStat"] == 1  # built once, complete
    assert per_file["normalize"] == 1
    assert per_file["posixpath"] == 1  # normalize's normpath
    # os.open, os.read, os.fstat (after the read), os.close
    assert per_file["file_syscalls"] == 4
    assert per_file["opens"] == 0  # no io.open per file
    assert per_file["writes"] == 1  # the header and payload as one
    # normalize, _one, compress (the codec's two frames), blob_crc32,
    # the two byte totals
    assert per_file["repro_calls"] == 7
    assert per_file["c_calls"] <= 31  # 28, with slack
    # exact: the same tree executes the same Python calls (the C-call
    # count moves by one: the temp-file name is random)
    again, _ = _counted(lambda: _pack(trees, LARGE))
    del again["c_calls"], large["c_calls"]
    assert again == large


def test_ingest_and_index_cost_per_file(
    trees, table_lock_holds, backend_lock_holds
):
    options = FanStoreOptions(config=DaemonConfig(metrics_every=0))

    def construct(prepared):
        """``(counts, table-lock holds, backend-lock holds)`` of one
        store construction."""
        table_lock_holds.clear()
        backend_lock_holds.clear()

        def operation():
            with FanStore(prepared, options) as fs:
                return fs.daemon.metadata

        counts, table = _counted(operation)
        assert len(table) == prepared.num_files
        return counts, len(table_lock_holds), len(backend_lock_holds)

    small, small_holds, small_puts = construct(_pack(trees, SMALL))
    large, large_holds, large_puts = construct(_pack(trees, LARGE))
    per_file = _per_file(small, large)
    assert per_file["pathlib"] == per_file["dataclasses"] == 0
    assert per_file["FileStat"] == 1  # built once, stamped with its home
    assert per_file["normalize"] == 1
    assert per_file["posixpath"] == 1  # normpath: no dirname/basename walk
    assert per_file["writes"] == per_file["file_syscalls"] == 0
    # _parse_header, the record generator, normalize
    assert per_file["repro_calls"] == 3
    # 15 (a bound: a per-call C call more or less shows as a few
    # hundredths)
    assert per_file["c_calls"] <= 17
    # one hold of the table lock and one of the backend lock per
    # partition, none per record
    assert large_holds == small_holds
    assert large_puts == small_puts
    _, three_partitions, three_puts = construct(
        _pack(trees, SMALL, partitions=3)
    )
    assert three_partitions - small_holds == 2
    assert three_puts - small_puts == 2


def test_a_ring_copy_hop_holds_the_backend_lock_once(
    trees, backend_lock_holds
):
    """Two ranks, one extra copy: each rank installs its neighbour's
    partition, whatever its size, under one hold of its RAM backend's
    lock."""
    config = DaemonConfig(metrics_every=0, extra_partition_budget=1)
    holds = []
    for n in (SMALL, LARGE):
        prepared = _pack(trees, n, partitions=2)
        backend_lock_holds.clear()

        def body(comm):
            options = FanStoreOptions(comm=comm, config=config)
            with FanStore(prepared, options) as fs:
                return len(fs.daemon.backend)

        # every rank holds its own partition and its neighbour's copy
        assert run_parallel(body, 2, timeout=60) == [n, n]
        holds.append(len(backend_lock_holds))
    assert holds[0] == holds[1]


def _disk_construct(prepared, options):
    """Counts of one store construction over ``options``."""

    def operation():
        with FanStore(prepared, options) as fs:
            return len(fs.daemon.metadata)

    counts, files = _counted(operation)
    assert files == prepared.num_files
    return counts


def _disk_constructor(trees, tmp_path):
    """``construct(prepared, name)``: the counts of one store over a
    fresh ``local_dir``, after a first store has paid the imports."""
    def construct(prepared, name: str):
        return _disk_construct(prepared, FanStoreOptions(
            local_dir=tmp_path / name, config=DaemonConfig(metrics_every=0),
        ))

    construct(_pack(trees, SMALL), "warm")  # the first disk store's imports
    return construct


def test_disk_load_cost_per_file(trees, tmp_path):
    """What the SSD mode's load costs a file: nothing — no open, fsync,
    rename, copy or write; its payload stays in the staged partition."""
    construct = _disk_constructor(trees, tmp_path)
    small = construct(_pack(trees, SMALL), "small")
    per_file = _per_file(small, construct(_pack(trees, LARGE), "large"))
    for name in ("opens", "file_syscalls", "fsyncs", "renames", "copies",
                 "writes"):
        assert per_file[name] == 0, name


def test_disk_load_cost_per_partition(trees, tmp_path):
    """What the SSD mode's load costs a partition: it is staged whole,
    copied by one ``sendfile`` into a tmp file (its one ``io.open``),
    which is fsynced, renamed into place and its directory fsynced; the
    source, the directory and the staged copy's read descriptor take an
    ``os.open`` each."""
    construct = _disk_constructor(trees, tmp_path)
    small = construct(_pack(trees, SMALL), "small")
    three = construct(_pack(trees, SMALL, partitions=3), "three")
    per_partition = {
        name: (three[name] - small[name]) / 2
        for name in ("copies", "fsyncs", "renames", "opens", "file_syscalls")
    }
    # file_syscalls: 3 os.open and their 3 os.close (the read
    # descriptor's when the dropped store is freed), the source's
    # os.fstat
    assert per_partition == {
        "copies": 1, "fsyncs": 2, "renames": 1, "opens": 1,
        "file_syscalls": 7,
    }


def test_first_scan_cost(trees, table_lock_holds):
    options = FanStoreOptions(config=DaemonConfig(metrics_every=0))
    vectors = []
    for n in (SMALL, LARGE):
        with FanStore(_pack(trees, n), options) as fs:
            table_lock_holds.clear()
            counts, files = _counted(lambda: list_training_files(fs.client))
            assert len(files) == n
            counts["lock_holds"] = len(table_lock_holds)
            vectors.append(counts)
    small, large = vectors
    # O(directories): nothing about the scan grows with the file count
    # except the list it returns
    assert large["lock_holds"] == small["lock_holds"] <= DIRS + 1
    assert large["normalize"] == small["normalize"] == 1
    assert large["repro_calls"] == small["repro_calls"] <= 4 + 2 * DIRS


def test_one_journal_scan_per_launch_and_none_per_restart(
    trees, tmp_path, monkeypatch
):
    """Recovery builds the journal from the scan it made, and a restart
    reuses the closed journal's live map. Counted at the one module
    that may scan: the daemon holds no ``scan_journal`` of its own."""
    assert not hasattr(daemon_mod, "scan_journal")
    scans = []
    plain_scan = journal_mod.scan_journal

    def counting_scan(directory):
        scans.append(directory)
        return plain_scan(directory)

    monkeypatch.setattr(journal_mod, "scan_journal", counting_scan)
    options = FanStoreOptions(
        local_dir=tmp_path / "rank0", config=DaemonConfig(metrics_every=0)
    )
    fs = FanStore(_pack(trees, SMALL), options)
    try:
        assert fs.journal is not None
        assert len(scans) == 1  # the launch
        fs.shutdown()
        fs.start()
        assert len(scans) == 1  # the restart scanned nothing
    finally:
        fs.shutdown()
