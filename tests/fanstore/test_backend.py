"""Compressed-object backends: RAM, partition files in place, and
local-disk blobs — one contract (:class:`repro.fanstore.backend.Backend`),
then what only the disk one does."""

from __future__ import annotations

import pytest

from repro.errors import FileNotFoundInStoreError
from repro.fanstore.backend import DiskBackend, PartitionBackend, RamBackend
from repro.fanstore.layout import FileStat, write_partition


@pytest.fixture(params=["ram", "partition", "disk"])
def backend(request, tmp_path):
    if request.param == "ram":
        return RamBackend()
    if request.param == "partition":
        return PartitionBackend()
    return DiskBackend(tmp_path / "blobs")


class TestBackendContract:
    def test_ingest_makes_a_partition_readable(self, backend, tmp_path):
        payloads = {"a/b.bin": b"first payload", "c.bin": b"second" * 9}
        part = tmp_path / "part-0"
        with open(part, "wb") as stream:
            write_partition(
                [(path, 1, FileStat(st_size=len(data)), data)
                 for path, data in payloads.items()],
                stream,
            )
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
