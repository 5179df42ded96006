"""Multi-node FanStore integration: partition placement, the metadata
allgather, remote fetch, extra-partition replication, the write path's
metadata forwarding, and teardown."""

from __future__ import annotations

import pytest

from repro.comm.launcher import run_parallel
from repro.errors import CapacityError
from repro.fanstore.daemon import DaemonConfig
from repro.fanstore.layout import partition_payload_bytes, read_partition
from repro.fanstore.store import FanStore, FanStoreOptions


class TestGlobalView:
    def test_every_rank_sees_identical_namespace(self, prepared_dataset):
        def body(comm):
            with FanStore(prepared_dataset, FanStoreOptions(comm=comm)) as fs:
                records = sorted(
                    (r.path, r.home_rank, r.stat.st_size)
                    for r in fs.daemon.metadata.walk_files()
                )
                return records

        results = run_parallel(body, 3, timeout=60)
        assert results[0] == results[1] == results[2]
        assert len(results[0]) == 15  # 12 train + 3 val

    def test_partition_round_robin_placement(self, prepared_dataset):
        def body(comm):
            with FanStore(prepared_dataset, FanStoreOptions(comm=comm)) as fs:
                local = [
                    r.partition_id
                    for r in fs.daemon.metadata.local_records(comm.rank)
                    if not r.is_broadcast
                ]
                return sorted(set(local))

        results = run_parallel(body, 3, timeout=60)
        assert results == [[0], [1], [2]]

    def test_broadcast_partition_local_everywhere(self, prepared_dataset):
        def body(comm):
            with FanStore(prepared_dataset, FanStoreOptions(comm=comm)) as fs:
                val_files = [
                    p for p in fs.client.listdir("val")
                ]
                # reading broadcast data must not touch the network
                before = fs.daemon.stats.remote_fetches
                for name in val_files:
                    fs.client.read_file(f"val/{name}")
                return fs.daemon.stats.remote_fetches - before

        assert run_parallel(body, 3, timeout=60) == [0, 0, 0]


class TestRemoteFetch:
    def test_all_ranks_read_all_files(self, prepared_dataset, raw_dataset_dir):
        def body(comm):
            with FanStore(prepared_dataset, FanStoreOptions(comm=comm)) as fs:
                total = 0
                for rec in fs.daemon.metadata.walk_files():
                    data = fs.client.read_file(rec.path)
                    assert len(data) == rec.stat.st_size
                    total += len(data)
                return (total, fs.daemon.stats.remote_fetches)

        results = run_parallel(body, 3, timeout=60)
        totals = {t for t, _ in results}
        assert len(totals) == 1  # same bytes everywhere
        # each rank fetched the ~2/3 of train files it doesn't host
        for _, remote in results:
            assert remote == 8  # 12 train files, 4 local per rank

    def test_remote_bytes_match_content(self, prepared_dataset, raw_dataset_dir):
        """Remote reads return the exact original file bytes."""
        originals = {
            str(p.relative_to(raw_dataset_dir / "train")): p.read_bytes()
            for p in sorted((raw_dataset_dir / "train").rglob("*"))
            if p.is_file()
        }

        def body(comm):
            with FanStore(prepared_dataset, FanStoreOptions(comm=comm)) as fs:
                for rel, raw in originals.items():
                    assert fs.client.read_file(rel) == raw
                return True

        assert all(run_parallel(body, 3, timeout=60))


class TestExtraPartitions:
    def test_replication_reduces_remote_fetches(self, prepared_dataset):
        config = DaemonConfig(extra_partition_budget=2)

        def body(comm):
            opts = FanStoreOptions(comm=comm, config=config)
            with FanStore(prepared_dataset, opts) as fs:
                for rec in fs.daemon.metadata.walk_files():
                    fs.client.read_file(rec.path)
                return fs.daemon.stats.remote_fetches

        # with 3 ranks and budget 2, every rank holds every partition
        assert run_parallel(body, 3, timeout=60) == [0, 0, 0]


class TestWritePath:
    def test_output_metadata_forwarded_to_owner(self, prepared_dataset):
        def body(comm):
            with FanStore(prepared_dataset, FanStoreOptions(comm=comm)) as fs:
                path = f"out/rank{comm.rank}.bin"
                fs.client.write_file(path, bytes([comm.rank]) * 8)
                comm.barrier()
                # every rank can stat every output (via local table or
                # the hash-owner query)
                sizes = []
                for r in range(comm.size):
                    stat = fs.client.stat(f"out/rank{r}.bin")
                    sizes.append(stat.st_size)
                return sizes

        results = run_parallel(body, 3, timeout=60)
        assert all(sizes == [8, 8, 8] for sizes in results)


class TestCapacity:
    def test_burst_buffer_overflow_raises(self, prepared_dataset):
        config = DaemonConfig(capacity_bytes=10)  # absurdly small

        def body(comm):
            opts = FanStoreOptions(comm=comm, config=config)
            with FanStore(prepared_dataset, opts):
                return True

        from repro.comm.launcher import ParallelFailure

        with pytest.raises(ParallelFailure) as exc_info:
            run_parallel(body, 3, timeout=60)
        assert any(
            isinstance(e, CapacityError)
            for e in exc_info.value.errors.values()
        )

    def test_ring_copies_over_the_budget_raise_on_every_rank(
        self, prepared_dataset
    ):
        """Each rank's own partitions (and the broadcast one) fit the
        burst buffer; the extra partition the ring copies in does not."""
        def staged(path) -> int:
            entries = read_partition(path, with_data=False)
            return partition_payload_bytes(entries)

        parts = [staged(p) for p in prepared_dataset.partition_paths()]
        bcast = staged(prepared_dataset.broadcast_path())
        own = max(parts) + bcast  # 3 ranks, 3 partitions: one each
        assert own < min(parts) + bcast + min(parts)  # any extra overflows
        config = DaemonConfig(capacity_bytes=own, extra_partition_budget=1)

        def body(comm):
            with pytest.raises(CapacityError, match="extra partition"):
                FanStore(
                    prepared_dataset, FanStoreOptions(comm=comm, config=config)
                )
            return True

        assert run_parallel(body, 3, timeout=60) == [True, True, True]


class TestSingleNode:
    def test_verify_integrity(self, single_store):
        assert single_store.verify_integrity() == 15

    def test_mount_point_resolution(self, single_store):
        assert single_store.resolve("/fanstore/a/b") == "a/b"
        assert single_store.resolve("/fanstore") == ""
        assert single_store.resolve("already/relative") == "already/relative"

    def test_shutdown_idempotent(self, prepared_dataset):
        fs = FanStore(prepared_dataset)
        fs.shutdown()
        fs.shutdown()  # must not raise

    def test_num_files(self, single_store):
        assert single_store.num_files == 15
        assert single_store.rank == 0
        assert single_store.size == 1

    def test_disk_backend_store(self, prepared_dataset, tmp_path):
        opts = FanStoreOptions(local_dir=tmp_path / "local")
        with FanStore(prepared_dataset, opts) as fs:
            assert fs.verify_integrity(sample=3) == 3
            assert len(list((tmp_path / "local").iterdir())) > 0
