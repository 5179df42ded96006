"""The set-up path's deterministic cost vector (ROADMAP item 5).

What packing, ingesting, indexing and first scanning one more file
*executes* — counted with ``sys.setprofile``, no clock involved, so the
counts repeat exactly. Every count is a *slope*: the difference between
a 400-file and a 200-file tree (same four directories) over the 200
extra files, so what is paid once per call or once per partition
(``Path`` handling of the two roots, the manifest, the hash of the
partition file) costs nothing here, and what is paid per file cannot
hide.

Per packed file ``prepare_dataset`` builds the stat record once and
canonicalises the name once, through no ``pathlib`` and no
``dataclasses`` frame: 9 Python calls under ``src/repro`` and 34 C
calls. Per ingested file ``FanStore(prepared)`` builds the stat twice
(parsed, then stamped with its home rank), canonicalises once and walks
no ``dirname``/``basename`` chain: 5 Python calls and 15 C calls, with
one hold of the table lock per *partition*. The first
``list_training_files`` reads the directory index in one hold. A store
over a ``DiskBackend`` scans its journal directory once per launch and
not at all when it restarts after ``shutdown()``. The
parent of the PR that added this file executed, per packed file, 54
``pathlib`` and 4 ``dataclasses`` frames, 3 ``FileStat`` constructions,
11 Python calls under ``src/repro`` and 99 C calls; per ingested file 2
``dataclasses`` and 9 ``posixpath`` frames, 7 Python calls, 50 C calls
and a lock hold; per scanned file a lock hold and a ``normalize``.
The parent of the PR that moved restart recovery into the journal
scanned the journal directory twice per launch and once per restart.
"""

from __future__ import annotations

import itertools
import sys
from collections import Counter

import pytest

import repro.fanstore.daemon as daemon_mod
import repro.fanstore.journal as journal_mod
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


def _counted(operation):
    """``(counts, result)`` of one ``operation()`` on this thread.

    ``repro_calls`` are frames of ``src/repro`` without
    ``repro/analysis`` (the lockdep witness's lock proxies run under
    pytest, not in production); dataclass-generated ``__init__`` frames
    live in ``<string>`` and are not among them."""
    counts: Counter = Counter()
    stat_init = FileStat.__init__.__code__

    def profiler(frame, event, _arg):
        if event == "c_call":
            counts["c_calls"] += 1
            return
        if event != "call":
            return
        code = frame.f_code
        filename = code.co_filename
        if code is stat_init:
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

    sys.setprofile(profiler)
    try:
        result = operation()
    finally:
        sys.setprofile(None)
    return counts, result


_COUNTED = ("pathlib", "dataclasses", "posixpath", "FileStat", "normalize",
            "repro_calls", "c_calls")


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


@pytest.fixture()
def table_lock_holds(monkeypatch):
    """Every ``with table._lock`` of any table built during the test."""
    holds: list[None] = []
    plain_init = MetadataTable.__init__

    def counting_init(self) -> None:
        plain_init(self)
        self._lock = _CountingLock(self._lock, holds)

    monkeypatch.setattr(MetadataTable, "__init__", counting_init)
    return holds


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
    # normalize, _one, compress (the codec's two frames), blob_crc32,
    # _pack_path, FileStat.pack, the two byte totals
    assert per_file["repro_calls"] <= 9.1
    assert per_file["c_calls"] <= 38  # 34, with the same slack
    # exact: the same tree executes the same Python calls (the C-call
    # count moves by one: the temp-file name is random)
    again, _ = _counted(lambda: _pack(trees, LARGE))
    del again["c_calls"], large["c_calls"]
    assert again == large


def test_ingest_and_index_cost_per_file(trees, table_lock_holds):
    options = FanStoreOptions(config=DaemonConfig(metrics_every=0))

    def construct(prepared):
        """``(counts, table-lock holds)`` of one store construction."""
        table_lock_holds.clear()

        def operation():
            with FanStore(prepared, options) as fs:
                return fs.daemon.metadata

        counts, table = _counted(operation)
        holds = len(table_lock_holds)
        assert len(table) == prepared.num_files
        return counts, holds

    small, small_holds = construct(_pack(trees, SMALL))
    large, large_holds = construct(_pack(trees, LARGE))
    per_file = _per_file(small, large)
    assert per_file["pathlib"] == per_file["dataclasses"] == 0
    assert per_file["FileStat"] == 2  # parsed, then stamped with its home
    assert per_file["normalize"] == 1
    assert per_file["posixpath"] == 1  # normpath: no dirname/basename walk
    # _unpack_path, RamBackend.put, the record generator, with_locality,
    # normalize
    assert per_file["repro_calls"] <= 5.1
    # 15 in production; the lockdep witness's proxy on the backend's
    # lock adds 3 under pytest (a bound: a per-call C call more or less
    # shows as a few hundredths)
    assert per_file["c_calls"] <= 20
    # one hold of the table lock per partition, none per record
    assert large_holds == small_holds
    _, three_partitions = construct(_pack(trees, SMALL, partitions=3))
    assert three_partitions - small_holds == 2


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
