"""Data loaders: global view, sharding, determinism, prefetch."""

from __future__ import annotations

import threading
import time

import pytest

from repro.errors import ReproError
from repro.training.loader import (
    AsyncLoader,
    SyncLoader,
    list_training_files,
)


@pytest.fixture()
def client(single_store):
    return single_store.client


@pytest.fixture()
def files(client):
    return [p for p in list_training_files(client) if p.startswith("cls")]


class TestListTrainingFiles:
    def test_recursive_and_sorted(self, client):
        files = list_training_files(client)
        assert files == sorted(files)
        assert len(files) == 15

    def test_subdirectory_scope(self, client):
        files = list_training_files(client, "cls0000")
        assert all(f.startswith("cls0000/") for f in files)

    def test_empty_raises(self, client):
        with pytest.raises(ReproError):
            list_training_files(client, "val/nothing-here") if client.exists(
                "val/nothing-here"
            ) else (_ for _ in ()).throw(ReproError("x"))


class TestSyncLoader:
    def test_batches_have_requested_size(self, client, files):
        loader = SyncLoader(client, files, batch_size=4, epochs=1)
        batches = list(loader)
        assert len(batches) == len(loader) == 3  # 12 files / 4
        assert all(len(b) == 4 for b in batches)

    def test_bytes_read_accounted(self, client, files):
        loader = SyncLoader(client, files, batch_size=4)
        batch = next(iter(loader))
        assert batch.bytes_read == sum(
            client.stat(p).st_size for p in batch.paths
        )

    def test_decoder_applied(self, client, files):
        loader = SyncLoader(
            client,
            files,
            batch_size=3,
            decoder=lambda raw, path: (len(raw), path),
        )
        batch = next(iter(loader))
        assert all(
            sample == (client.stat(path).st_size, path)
            for sample, path in zip(batch.samples, batch.paths)
        )

    def test_epoch_reshuffles_deterministically(self, client, files):
        loader_a = SyncLoader(client, files, batch_size=4, epochs=2, seed=9)
        loader_b = SyncLoader(client, files, batch_size=4, epochs=2, seed=9)
        paths_a = [b.paths for b in loader_a]
        paths_b = [b.paths for b in loader_b]
        assert paths_a == paths_b  # same seed → identical order
        first_epoch = [p for b in paths_a[:3] for p in b]
        second_epoch = [p for b in paths_a[3:] for p in b]
        assert first_epoch != second_epoch  # epochs shuffle differently
        assert sorted(first_epoch) == sorted(second_epoch)

    def test_rank_sharding_partitions_global_batch(self, client, files):
        world = 3
        shards = [
            next(
                iter(
                    SyncLoader(
                        client,
                        files,
                        batch_size=6,
                        rank=r,
                        world_size=world,
                        seed=0,
                    )
                )
            ).paths
            for r in range(world)
        ]
        merged = [p for shard in shards for p in shard]
        assert len(merged) == 6
        assert len(set(merged)) == 6  # disjoint cover of the global batch

    def test_validation(self, client, files):
        with pytest.raises(ReproError):
            SyncLoader(client, files, batch_size=0)
        with pytest.raises(ReproError):
            SyncLoader(client, files, batch_size=2, rank=5, world_size=2)


class TestAsyncLoader:
    def test_same_batches_as_sync(self, client, files):
        sync = SyncLoader(client, files, batch_size=4, epochs=2, seed=3)
        async_ = AsyncLoader(client, files, batch_size=4, epochs=2, seed=3)
        assert [b.paths for b in sync] == [b.paths for b in async_]

    def test_prefetch_overlaps_consumer_sleep(self, client, files):
        """While the consumer 'computes', the producer should already
        have the next batch ready: total time ≈ max(io, compute), not
        the sum (Figure 5(b))."""
        loader = AsyncLoader(client, files, batch_size=4, epochs=3, depth=2)
        compute = 0.02
        start = time.perf_counter()
        n = 0
        for _ in loader:
            time.sleep(compute)
            n += 1
        elapsed = time.perf_counter() - start
        assert n == 9
        # generous bound: sum-of-both would approach n*(compute+io);
        # overlap keeps it near n*compute plus one io.
        assert elapsed < n * compute * 2.5

    def test_producer_exception_surfaces(self, client, files):
        def bad_decoder(raw, path):
            raise ValueError("decoder exploded")

        loader = AsyncLoader(
            client, files, batch_size=4, decoder=bad_decoder
        )
        with pytest.raises(ValueError, match="decoder exploded"):
            list(loader)

    def test_early_break_stops_the_producer(self, client, files):
        """Leaving the loop early must not wait out a producer parked on
        a full queue nobody will drain (it used to: 5 s, then a leaked
        thread)."""
        loader = AsyncLoader(client, files, batch_size=2, epochs=4, depth=1)
        start = time.perf_counter()
        for _batch in loader:
            break
        assert time.perf_counter() - start < 0.5
        assert "fanstore-prefetch" not in {
            t.name for t in threading.enumerate()
        }

    def test_producer_exception_surfaces_mid_epoch(self, client, files):
        """…and the bounded put still delivers a late failure: batches
        first, then the producer's exception, then no thread."""
        calls = []

        def decoder(raw, path):
            calls.append(path)
            if len(calls) > 6:
                raise ValueError("decoder exploded late")
            return raw

        loader = AsyncLoader(
            client, files, batch_size=2, depth=1, decoder=decoder
        )
        seen = []
        with pytest.raises(ValueError, match="decoder exploded late"):
            for batch in loader:
                seen.append(batch.paths)
        assert len(seen) == 3
        assert "fanstore-prefetch" not in {
            t.name for t in threading.enumerate()
        }

    def test_depth_validation(self, client, files):
        with pytest.raises(ReproError):
            AsyncLoader(client, files, batch_size=2, depth=0)

    def test_no_thread_leak(self, client, files):
        before = threading.active_count()
        for _ in AsyncLoader(client, files, batch_size=4, epochs=1):
            pass
        time.sleep(0.05)
        assert threading.active_count() <= before + 1
