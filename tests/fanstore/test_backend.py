"""Compressed-object backends: RAM and local disk — one contract
(:class:`repro.fanstore.backend.Backend`), then what only the disk one
does: stage each partition whole and ``pread`` its payloads, keep what a
run writes as durable blobs."""

from __future__ import annotations

import os

import pytest

from repro.comm.launcher import run_parallel
from repro.errors import (
    DataIntegrityError,
    FileNotFoundInStoreError,
    FormatError,
)
from repro.fanstore.backend import DiskBackend, RamBackend
from repro.fanstore.journal import _tmp_for
from repro.fanstore.layout import FileStat, write_partition
from repro.fanstore.store import FanStore, FanStoreOptions


@pytest.fixture(params=["ram", "disk"])
def backend(request, tmp_path):
    if request.param == "ram":
        return RamBackend()
    return DiskBackend(tmp_path / "blobs")


def _write_partition(path, payloads: dict[str, bytes]) -> None:
    with open(path, "wb") as stream:
        write_partition(
            [(p, 1, FileStat(st_size=len(data)), data)
             for p, data in payloads.items()],
            stream,
        )


class TestBackendContract:
    def test_ingest_makes_a_partition_readable(self, backend, tmp_path):
        payloads = {"a/b.bin": b"first payload", "c.bin": b"second" * 9}
        part = tmp_path / "part-0"
        _write_partition(part, payloads)
        entries = backend.ingest(part)
        assert [(e.path, e.compressed_size) for e in entries] == [
            (path, len(data)) for path, data in payloads.items()
        ]
        for path, data in payloads.items():
            assert backend.get(path) == data
        assert len(backend) == 2
        assert backend.resident_bytes == sum(map(len, payloads.values()))

    def test_discard(self, backend):
        backend.put("k", b"corrupt")
        assert backend.discard("k") is True
        assert "k" not in backend and len(backend) == 0
        with pytest.raises(FileNotFoundInStoreError):
            backend.get("k")
        assert backend.discard("k") is False  # nothing left to drop

    def test_put_get(self, backend):
        backend.put("a/b.bin", b"payload")
        assert backend.get("a/b.bin") == b"payload"

    def test_put_many(self, backend):
        backend.put("k", b"old")
        backend.put_many(iter([("k", b"new"), ("a/b", b"xy"), ("c", b"")]))
        assert [backend.get(p) for p in ("k", "a/b", "c")] == [
            b"new", b"xy", b""
        ]
        assert len(backend) == 3

    def test_contains_and_len(self, backend):
        assert "x" not in backend
        backend.put("x", b"1")
        backend.put("y", b"22")
        assert "x" in backend
        assert len(backend) == 2

    def test_missing_raises(self, backend):
        with pytest.raises(FileNotFoundInStoreError):
            backend.get("ghost")

    def test_overwrite(self, backend):
        backend.put("k", b"v1")
        backend.put("k", b"v2")
        assert backend.get("k") == b"v2"
        assert len(backend) == 1

    def test_resident_bytes(self, backend):
        backend.put("a", bytes(100))
        backend.put("b", bytes(50))
        assert backend.resident_bytes == 150

    def test_weird_paths_are_safe(self, backend):
        """Paths with separators, dots, unicode must not collide or
        escape (DiskBackend content-addresses blob names)."""
        paths = ["a/b", "a_b", "../escape", "ünïcode/файл", "x" * 200]
        for i, p in enumerate(paths):
            backend.put(p, f"v{i}".encode())
        for i, p in enumerate(paths):
            assert backend.get(p) == f"v{i}".encode()


class TestDiskBackendSpecifics:
    def test_blobs_live_under_root(self, tmp_path):
        root = tmp_path / "store"
        backend = DiskBackend(root)
        backend.put("../../../etc/passwd", b"not really")
        blobs = list(root.iterdir())
        assert len(blobs) == 1
        assert blobs[0].suffix == ".blob"

    def test_persists_bytes_on_disk(self, tmp_path):
        backend = DiskBackend(tmp_path / "store")
        backend.put("k", b"durable")
        blob = next((tmp_path / "store").iterdir())
        assert blob.read_bytes() == b"durable"


class TestDiskBackendDurability:
    def test_put_leaves_no_tmp(self, tmp_path):
        backend = DiskBackend(tmp_path / "store")
        backend.put("k", b"x" * 1000)
        assert not list((tmp_path / "store").glob("*.tmp"))

    def test_crash_mid_put_preserves_old_blob(self, tmp_path):
        from repro.fanstore.crash import CrashPlan, SimulatedCrashError

        backend = DiskBackend(tmp_path / "store")
        backend.put("k", b"old")
        with CrashPlan().crash_at("apply.tmp_written"):
            with pytest.raises(SimulatedCrashError):
                backend.put("k", b"new")
        # a reader never sees torn bytes: the old blob survives whole
        assert backend.get("k") == b"old"

    def test_adopt_reindexes_surviving_blob(self, tmp_path):
        first = DiskBackend(tmp_path / "store")
        first.put("k", b"survivor")
        # a fresh incarnation: the index died with the process
        second = DiskBackend(tmp_path / "store")
        assert "k" not in second
        assert second.adopt("k")
        assert second.get("k") == b"survivor"
        assert not second.adopt("ghost")

    def test_blob_path_is_stable(self, tmp_path):
        backend = DiskBackend(tmp_path / "store")
        backend.put("k", b"v")
        assert backend.blob_path("k").read_bytes() == b"v"

    def test_recovery_verbs_reach_blobs_the_index_never_saw(self, tmp_path):
        """What restart recovery does to a previous incarnation's
        files: read them unindexed, unlink them unindexed, and sweep
        the ``*.tmp`` a crashed put leaked."""
        from repro.fanstore.crash import CrashPlan, SimulatedCrashError

        first = DiskBackend(tmp_path / "store")
        first.put("k", b"survivor")
        with CrashPlan().crash_at("apply.tmp_written"):
            with pytest.raises(SimulatedCrashError):
                first.put("torn", b"never renamed")
        second = DiskBackend(tmp_path / "store")
        assert second.read_raw("k") == b"survivor"
        assert second.read_raw("torn") is None and "k" not in second
        assert second.gc_tmp() == 1 and second.gc_tmp() == 0
        assert second.discard("k") is False  # it was never indexed ...
        assert second.read_raw("k") is None  # ... and is gone all the same
        assert not list((tmp_path / "store").iterdir())

    def test_injected_enospc_surfaces_as_storage_full(self, tmp_path):
        from repro.errors import StorageFullError
        from repro.fanstore.crash import DiskFaultInjector

        backend = DiskBackend(tmp_path / "store")
        backend.injector = DiskFaultInjector().fail_puts("k")
        with pytest.raises(StorageFullError) as exc_info:
            backend.put("k", b"refused")
        import errno
        assert exc_info.value.errno == errno.ENOSPC
        assert exc_info.value.filename == "k"
        backend.put("k", b"ok now")  # budget spent: writes resume
        assert backend.get("k") == b"ok now"


PAYLOADS = {"a/b.bin": b"first payload", "c.bin": b"second" * 9,
            "d/e.bin": b"third!"}


@pytest.fixture()
def staged(tmp_path):
    """A ``DiskBackend`` that has staged one partition of
    :data:`PAYLOADS` from a shared-FS directory of its own."""
    shared = tmp_path / "shared"
    shared.mkdir()
    _write_partition(shared / "part-00000.fst", PAYLOADS)
    backend = DiskBackend(tmp_path / "local")
    entries = backend.ingest(shared / "part-00000.fst")
    return backend, entries


class TestDiskBackendStaging:
    def test_ingest_stages_the_partition_and_preads_at_the_offsets(
        self, staged, tmp_path
    ):
        """One copy of the partition, byte-identical, under its own
        name in ``root``; each payload read at the offset the scan
        indexed, with no blob written."""
        backend, entries = staged
        copy = tmp_path / "local" / "part-00000.fst"
        assert copy.read_bytes() == (
            tmp_path / "shared" / "part-00000.fst"
        ).read_bytes()
        assert sorted(p.name for p in copy.parent.iterdir()) == [copy.name]
        raw = copy.read_bytes()
        for e in entries:
            assert backend.get(e.path) == PAYLOADS[e.path] == raw[
                e.data_offset:e.data_offset + e.compressed_size
            ]
        assert len(backend) == 3
        assert backend.resident_bytes == sum(map(len, PAYLOADS.values()))

    def test_a_path_the_partition_lacks_raises(self, staged):
        backend, _ = staged
        assert "ghost" not in backend
        with pytest.raises(FileNotFoundInStoreError):
            backend.get("ghost")

    def test_a_put_supersedes_the_staged_payload(self, staged, tmp_path):
        """A blob wins over the staged payload of the same path, also
        in the next incarnation, which adopts the blob (restart
        recovery does) before it stages the partition again."""
        backend, _ = staged
        backend.put("c.bin", b"rewritten")
        assert backend.get("c.bin") == b"rewritten"
        assert backend.blob_path("c.bin").read_bytes() == b"rewritten"
        assert len(backend) == 3
        assert backend.resident_bytes == (
            len(PAYLOADS["a/b.bin"]) + len(PAYLOADS["d/e.bin"]) + 9
        )
        again = DiskBackend(tmp_path / "local")
        assert again.adopt("c.bin")
        again.ingest(tmp_path / "shared" / "part-00000.fst")
        assert again.get("c.bin") == b"rewritten"
        assert again.get("a/b.bin") == PAYLOADS["a/b.bin"]
        assert len(again) == 3

    def test_discard_drops_the_staged_entry_and_the_blob(self, staged):
        """Quarantine forgets a staged payload: the staged file keeps
        its bytes (it is a copy of the shared FS), the index does not."""
        backend, _ = staged
        assert backend.discard("a/b.bin") is True
        assert "a/b.bin" not in backend and len(backend) == 2
        with pytest.raises(FileNotFoundInStoreError):
            backend.get("a/b.bin")
        assert backend.discard("a/b.bin") is False
        backend.put("c.bin", b"blob")
        assert backend.discard("c.bin") is True
        assert not backend.blob_path("c.bin").exists()
        with pytest.raises(FileNotFoundInStoreError):
            backend.get("c.bin")

    def test_a_truncated_copy_is_corruption_not_absence(self, staged, tmp_path):
        backend, entries = staged
        last = entries[-1]
        os.truncate(tmp_path / "local" / "part-00000.fst",
                    last.data_offset + last.compressed_size - 1)
        with pytest.raises(DataIntegrityError, match="short pread"):
            backend.get(last.path)
        assert backend.get(entries[0].path) == PAYLOADS[entries[0].path]

    def test_restaging_replaces_the_copy_and_its_descriptor(
        self, staged, tmp_path
    ):
        """A second ingest of the same partition (a new launch over the
        same ``local_dir`` does the same) installs a new copy, and no
        read reaches the old one."""
        backend, _ = staged
        shared = tmp_path / "shared" / "part-00000.fst"
        copy = tmp_path / "local" / "part-00000.fst"
        before = copy.stat().st_ino
        old_fd = backend._packed["c.bin"][0]
        changed = dict(PAYLOADS, **{"c.bin": b"changed" * 3})
        _write_partition(shared, changed)
        backend.ingest(shared)
        assert copy.stat().st_ino != before
        fd = backend._packed["c.bin"][0]
        assert os.fstat(fd).st_ino == copy.stat().st_ino
        with pytest.raises(OSError):
            os.fstat(old_fd)  # closed
        for path, data in changed.items():
            assert backend.get(path) == data

    def test_a_torn_partition_stages_nothing(self, tmp_path):
        shared = tmp_path / "part-00000.fst"
        _write_partition(shared, PAYLOADS)
        shared.write_bytes(shared.read_bytes()[:-3])
        backend = DiskBackend(tmp_path / "local")
        with pytest.raises(FormatError):
            backend.ingest(shared)
        assert list((tmp_path / "local").iterdir()) == []
        assert len(backend) == 0


def _raw_files(raw_dataset_dir) -> dict[str, bytes]:
    train = raw_dataset_dir / "train"
    return {
        str(p.relative_to(train)): p.read_bytes()
        for p in sorted(train.rglob("*")) if p.is_file()
    }


class TestDiskStore:
    def test_single_node_reads_by_pread(
        self, prepared_dataset, raw_dataset_dir, tmp_path
    ):
        options = FanStoreOptions(local_dir=tmp_path / "local")
        with FanStore(prepared_dataset, options) as fs:
            for rel, raw in _raw_files(raw_dataset_dir).items():
                assert fs.client.read_file(rel) == raw
            backend = fs.daemon.backend
            # the payloads stayed in the staged partitions: no blob
            assert not list((tmp_path / "local").glob("*.blob"))
            assert backend.resident_bytes == prepared_dataset.compressed_bytes

    def test_multinode_disk_stores(self, prepared_dataset, tmp_path):
        def body(comm):
            options = FanStoreOptions(
                comm=comm, local_dir=tmp_path / f"rank{comm.rank}"
            )
            with FanStore(prepared_dataset, options) as fs:
                return {
                    rec.path: fs.client.read_file(rec.path)
                    for rec in fs.daemon.metadata.walk_files()
                }

        first, *rest = run_parallel(body, 3, timeout=60)
        assert all(other == first for other in rest)
        assert len(first) == prepared_dataset.num_files

    def test_matches_ram_backend_bytes(self, prepared_dataset, tmp_path):
        options = FanStoreOptions(local_dir=tmp_path / "local")
        with FanStore(prepared_dataset, options) as on_disk, \
                FanStore(prepared_dataset) as in_ram:
            for rec in in_ram.daemon.metadata.walk_files():
                assert on_disk.client.read_file(rec.path) == \
                    in_ram.client.read_file(rec.path)

    def test_writes_still_work(self, prepared_dataset, tmp_path):
        """A write lands as a blob file in ``local_dir``, beside the
        staged partitions, and reads back from it."""
        options = FanStoreOptions(local_dir=tmp_path / "local")
        with FanStore(prepared_dataset, options) as fs:
            fs.client.write_file("out/x.bin", b"written")
            assert fs.client.read_file("out/x.bin") == b"written"
            backend = fs.daemon.backend
            blob = backend.blob_path("out/x.bin")
            assert blob.parent == tmp_path / "local"
            assert blob.read_bytes() == b"written"
            assert list((tmp_path / "local").glob("*.blob")) == [blob]

    def test_writes_survive_a_restart(self, prepared_dataset, tmp_path):
        """A write is a journalled blob, not process memory: a new store
        over the same ``local_dir`` recovers it, beside the partitions
        it stages again."""
        options = FanStoreOptions(local_dir=tmp_path / "local")
        with FanStore(prepared_dataset, options) as fs:
            fs.client.write_file("out/x.bin", b"written")
            assert fs.client.read_file("out/x.bin") == b"written"
        with FanStore(prepared_dataset, options) as fs:
            assert fs.daemon.jstats.recovery_replayed == 1
            assert fs.client.read_file("out/x.bin") == b"written"

    def test_a_reused_local_dir_is_staged_again(
        self, prepared_dataset, raw_dataset_dir, tmp_path
    ):
        """What the end-to-end benchmark's restart does: rank 0's
        ``local_dir`` from a 2-rank run, reopened as a single rank,
        stages every partition — over the copies already there, which
        are replaced, not trusted — and reads every file and every
        acked write back. The ``*.tmp`` an interrupted staging copy
        left is removed by the launch's recovery."""
        def body(comm):
            options = FanStoreOptions(
                comm=comm, local_dir=tmp_path / f"rank{comm.rank}"
            )
            written = {}
            with FanStore(prepared_dataset, options) as fs:
                if comm.rank == 0:
                    for i in range(4):
                        path, data = f"out/r0-{i}.bin", bytes([i]) * (900 + i)
                        fs.client.write_file(path, data)
                        written[path] = data
            return written

        written = run_parallel(body, 2, timeout=60)[0]
        local = tmp_path / "rank0"
        before = {p.name: p.stat().st_ino for p in local.glob("*.fst")}
        assert sorted(before) == [
            "broadcast.fst", "part-00000.fst", "part-00002.fst"
        ]
        orphan = _tmp_for(local / "part-00001.fst")
        orphan.write_bytes(b"half a partition")
        with FanStore(prepared_dataset, FanStoreOptions(local_dir=local)) as fs:
            assert not orphan.exists()
            assert fs.daemon.jstats.recovery_tmp_gc == 1
            after = {p.name: p.stat().st_ino for p in local.glob("*.fst")}
            assert sorted(after) == sorted([*before, "part-00001.fst"])
            assert all(after[name] != ino for name, ino in before.items())
            for rel, raw in _raw_files(raw_dataset_dir).items():
                assert fs.client.read_file(rel) == raw
            for path, data in written.items():
                assert fs.client.read_file(path) == data
            assert fs.daemon.stats.corruption_detected == 0
