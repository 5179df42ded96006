"""The RAM metadata table: paths, directories, merging, locality."""

from __future__ import annotations

import posixpath
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import FanStoreError, FileNotFoundInStoreError
from repro.fanstore.layout import FileStat, PartitionEntry
from repro.fanstore.metadata import FileRecord, MetadataTable, normalize
from repro.training.loader import list_training_files


def rec(path, home=0, size=10, **kwargs):
    return FileRecord(
        path=path,
        stat=FileStat(st_size=size, **kwargs),
        compressor_id=1,
        compressed_size=size // 2,
        home_rank=home,
        partition_id=0,
    )


class TestNormalize:
    @pytest.mark.parametrize(
        "raw,expected",
        [
            ("a/b/c", "a/b/c"),
            ("/a/b", "a/b"),
            ("a//b/./c", "a/b/c"),
            ("", ""),
            (".", ""),
            ("a\\b", "a/b"),
            ("a/b/../c", "a/c"),
        ],
    )
    def test_canonical(self, raw, expected):
        assert normalize(raw) == expected

    def test_escape_rejected(self):
        with pytest.raises(FanStoreError):
            normalize("../outside")


class TestInsertAndQuery:
    def test_insert_indexes_ancestors(self):
        table = MetadataTable()
        table.insert(rec("train/cat/img1.tif"))
        assert table.listdir("") == ["train"]
        assert table.listdir("train") == ["cat"]
        assert table.listdir("train/cat") == ["img1.tif"]

    def test_stat_file_vs_dir(self):
        table = MetadataTable()
        table.insert(rec("d/f", size=77))
        assert table.stat("d/f").st_size == 77
        dir_stat = table.stat("d")
        assert dir_stat.st_mode & 0o040000  # S_IFDIR

    def test_missing_raises_filenotfound(self):
        table = MetadataTable()
        with pytest.raises(FileNotFoundInStoreError):
            table.get("nope")
        with pytest.raises(FileNotFoundInStoreError):
            table.stat("nope")
        with pytest.raises(FileNotFoundInStoreError):
            table.listdir("nope")

    def test_filenotfound_is_oserror_compatible(self):
        """Intercepted callers catch builtin FileNotFoundError."""
        table = MetadataTable()
        with pytest.raises(FileNotFoundError):
            table.get("nope")

    def test_is_file_is_dir(self):
        table = MetadataTable()
        table.insert(rec("a/b"))
        assert table.is_file("a/b") and not table.is_dir("a/b")
        assert table.is_dir("a") and not table.is_file("a")
        assert table.is_dir("")

    def test_exists_and_contains(self):
        table = MetadataTable()
        table.insert(rec("x/y"))
        assert table.exists("x/y") and "x/y" in table
        assert table.exists("x")
        assert not table.exists("x/z")

    def test_root_file_insert_rejected(self):
        table = MetadataTable()
        with pytest.raises(FanStoreError):
            table.insert(rec(""))

    def test_replacement_updates(self):
        table = MetadataTable()
        table.insert(rec("f", size=10))
        table.insert(rec("f", size=20))
        assert table.get("f").stat.st_size == 20
        assert len(table) == 1


class TestLocalityAndMerge:
    def test_local_records_filter(self):
        table = MetadataTable()
        table.insert(rec("a", home=0))
        table.insert(rec("b", home=1))
        table.insert(rec("c", home=0))
        assert {r.path for r in table.local_records(0)} == {"a", "c"}

    def test_merge_adds_remote_records(self):
        table = MetadataTable()
        table.insert(rec("local", home=0))
        table.merge([rec("remote1", home=1), rec("remote2", home=2)])
        assert len(table) == 3
        assert table.get("remote1").home_rank == 1

    def test_merge_lowest_home_rank_wins(self):
        """Broadcast files exist on every rank; all nodes must agree on
        one deterministic owner."""
        table = MetadataTable()
        table.insert(rec("val/v0", home=2))
        table.merge([rec("val/v0", home=1)])
        assert table.get("val/v0").home_rank == 1
        table.merge([rec("val/v0", home=3)])
        assert table.get("val/v0").home_rank == 1

    def test_walk_files_sorted(self):
        table = MetadataTable()
        for p in ("z", "a/1", "m"):
            table.insert(rec(p))
        assert [r.path for r in table.walk_files()] == ["a/1", "m", "z"]

    def test_byte_totals(self):
        table = MetadataTable()
        table.insert(rec("a", size=100))
        table.insert(rec("b", size=60))
        assert table.total_original_bytes() == 160
        assert table.total_compressed_bytes() == 80


class TestReplicaSets:
    def test_add_unions_and_set_replaces(self):
        table = MetadataTable()
        table.insert(rec("a/x"))
        table.add_replica("a/x", 2)
        table.add_replica("a/x", 1)
        assert table.replica_ranks("a/x") == (1, 2)
        table.set_replicas("a/x", (0, 3))
        assert table.replica_ranks("a/x") == (0, 3)

    def test_set_replicas_empty_clears_the_entry(self):
        table = MetadataTable()
        table.insert(rec("a/x"))
        table.add_replica("a/x", 2)
        table.set_replicas("a/x", ())
        assert table.replica_ranks("a/x") == ()
        assert table.replica_count() == 0


# -- the bulk index is the insert sequence -----------------------------------

_DIRS = st.sampled_from(
    ["", "a", "a/b", "a-b", "a.b", "a/b/c", "val", "A"]
)
_NAMES = st.sampled_from(["f0", "f1", "f2", "a", "b"])
#: how a path is spelt on arrival: canonical or not
_SPELLINGS = st.sampled_from(["{}", "/{}", "{}/.", "./{}", "x/../{}"])


@st.composite
def _paths(draw):
    directory, name = draw(_DIRS), draw(_NAMES)
    path = f"{directory}/{name}" if directory else name
    if draw(st.booleans()):
        path = path.replace("/", "//", 1)
    return draw(_SPELLINGS).format(path)


def _entry(path: str, pid: int) -> PartitionEntry:
    return PartitionEntry(
        path=path, compressor_id=1,
        stat=FileStat(st_size=len(path), partition_id=pid),
        compressed_size=3, data_offset=7 * pid,
    )


_PARTITIONS = st.lists(_paths(), max_size=12)
_PEER_RECORDS = st.lists(
    st.tuples(_paths(), st.integers(0, 3)), max_size=12
)


def _record_of(entry: PartitionEntry, home: int) -> FileRecord:
    """What ``insert_entries`` makes of a scanned entry."""
    return FileRecord(
        path=entry.path,
        stat=entry.stat.with_locality(home),
        compressor_id=entry.compressor_id,
        compressed_size=entry.compressed_size,
        home_rank=home,
        partition_id=entry.stat.partition_id,
        data_offset=entry.data_offset,
    )


def _merge_one_by_one(table: MetadataTable, records) -> None:
    """``merge`` as a loop of ``insert``: lowest home rank wins."""
    for record in records:
        try:
            existing = table.get(record.path)
        except FileNotFoundInStoreError:
            existing = None
        if existing is None or existing.home_rank > record.home_rank:
            table.insert(record)


def _dirs_of(keys) -> dict[str, set[str]]:
    """The directory index as a function of the file keys: every file
    and every directory is named in its parent, up to the root."""
    dirs: dict[str, set[str]] = {"": set()}
    for key in keys:
        child = key
        while child:
            parent = posixpath.dirname(child)
            dirs.setdefault(parent, set()).add(posixpath.basename(child))
            child = parent
    return dirs


def _listdir_walk(table: MetadataTable, directory: str = "") -> list[str]:
    """The start-up scan as ``listdir`` + ``is_dir`` per entry."""
    found: list[str] = []
    for name in table.listdir(directory):
        path = f"{directory}/{name}" if directory else name
        if table.is_dir(path):
            found.extend(_listdir_walk(table, path))
        else:
            found.append(path)
    return found


def _client_of(table: MetadataTable) -> SimpleNamespace:
    return SimpleNamespace(daemon=SimpleNamespace(metadata=table))


@settings(max_examples=200, deadline=None)
@given(
    first=_PARTITIONS, second=_PARTITIONS, peer=_PEER_RECORDS,
    swapped=st.booleans(),
)
def test_bulk_index_is_the_insert_sequence(first, second, peer, swapped):
    """Two partitions ingested (in either order) and a peer's records
    merged, through ``insert_entries``/``merge`` — one lock hold and a
    last-parent memo per batch — against one ``insert`` per record:
    same keys in the same order, same records, same directory index,
    same listings, same start-up scan. Sibling, nested and alternating
    directories, duplicate paths and non-canonical spellings included."""
    partitions = [
        [_entry(path, pid) for path in paths]
        for pid, paths in enumerate((first, second))
    ]
    if swapped:
        partitions.reverse()
    peer_records = [rec(path, home=home) for path, home in peer]

    bulk, one_by_one = MetadataTable(), MetadataTable()
    for entries in partitions:
        bulk.insert_entries(entries, 1)
        for entry in entries:
            one_by_one.insert(_record_of(entry, 1))
    bulk.merge(peer_records)
    _merge_one_by_one(one_by_one, peer_records)

    assert list(bulk._files.items()) == list(one_by_one._files.items())
    assert all(key == normalize(key) for key in bulk._files)
    assert bulk._dirs == one_by_one._dirs == _dirs_of(bulk._files)
    for directory in bulk._dirs:
        assert bulk.listdir(directory) == one_by_one.listdir(directory)
    if len(bulk):
        assert (
            list_training_files(_client_of(bulk))
            == list_training_files(_client_of(one_by_one))
            == _listdir_walk(bulk)
        )
        for directory in bulk._dirs:
            assert bulk.scan(directory) == _listdir_walk(bulk, directory)


@pytest.mark.parametrize("hostile", ["../x", "", "/", "a/../../x"])
def test_bulk_index_rejects_what_insert_rejects(hostile):
    """A partition (or a peer) naming the root or a path outside it is
    refused with ``insert``'s exception, and what came before it in the
    batch is indexed."""
    with pytest.raises(FanStoreError) as single:
        MetadataTable().insert(rec(hostile))
    for ingest in (
        lambda t: t.insert_entries([_entry("ok/f", 0), _entry(hostile, 0)], 0),
        lambda t: t.merge([rec("ok/f"), rec(hostile)]),
    ):
        table = MetadataTable()
        with pytest.raises(type(single.value)) as bulk:
            ingest(table)
        assert str(bulk.value) == str(single.value)
        assert table.listdir("") == ["ok"] and table.is_file("ok/f")
