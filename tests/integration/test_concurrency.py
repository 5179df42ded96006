"""Concurrency stress: many I/O threads per rank (the paper's 4×24
Keras-thread scenario, §II-B1) against one daemon, plus mixed
read/write storms."""

from __future__ import annotations

import threading

import pytest

from repro.comm.launcher import run_parallel
from repro.fanstore.store import FanStore, FanStoreOptions
from repro.training.loader import list_training_files

THREADS = 6
ROUNDS = 30


def _hammer(client, files, results, tid):
    try:
        for i in range(ROUNDS):
            path = files[(tid + i) % len(files)]
            data = client.read_file(path)
            expected = client.stat(path).st_size
            if len(data) != expected:
                raise AssertionError(f"{path}: {len(data)} != {expected}")
        results[tid] = True
    except BaseException as exc:  # pragma: no cover - surfaced below
        results[tid] = exc


class TestManyIoThreadsPerNode:
    def test_single_node_thread_storm(self, single_store):
        files = list_training_files(single_store.client)
        results: dict[int, object] = {}
        threads = [
            threading.Thread(
                target=_hammer,
                args=(single_store.client, files, results, t),
            )
            for t in range(THREADS)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join(60)
        failures = [r for r in results.values() if r is not True]
        assert not failures, failures
        # all cache pins were released
        assert single_store.daemon.cache.resident_bytes == 0
        assert single_store.client.open_fd_count == 0

    def test_multinode_thread_storm(self, prepared_dataset):
        """THREADS per rank × 3 ranks, all reading everything —
        concurrent remote fetches against every daemon."""

        def body(comm):
            with FanStore(prepared_dataset, FanStoreOptions(comm=comm)) as fs:
                files = list_training_files(fs.client)
                results: dict[int, object] = {}
                threads = [
                    threading.Thread(
                        target=_hammer, args=(fs.client, files, results, t)
                    )
                    for t in range(THREADS)
                ]
                for t in threads:
                    t.start()
                for t in threads:
                    t.join(60)
                failures = [r for r in results.values() if r is not True]
                assert not failures, failures
                return fs.daemon.stats.remote_fetches

        remote = run_parallel(body, 3, timeout=180)
        assert all(r > 0 for r in remote)

    def test_concurrent_readers_share_cache_entry(self, single_store):
        """N threads holding the same file open simultaneously must
        share one pinned entry, not N copies."""
        files = list_training_files(single_store.client)
        path = files[0]
        client = single_store.client
        barrier = threading.Barrier(THREADS)
        peak_refcounts = []

        def open_hold_close():
            fd = client.open(path)
            barrier.wait(timeout=30)
            peak_refcounts.append(
                single_store.daemon.cache.refcount(path)
            )
            client.close(fd)

        threads = [
            threading.Thread(target=open_hold_close) for _ in range(THREADS)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join(60)
        assert max(peak_refcounts) == THREADS
        assert single_store.daemon.cache.refcount(path) == 0

    def test_mixed_read_write_storm(self, single_store):
        files = list_training_files(single_store.client)
        client = single_store.client
        errors = []

        def reader(tid):
            try:
                for i in range(ROUNDS):
                    client.read_file(files[(tid + i) % len(files)])
            except BaseException as exc:
                errors.append(exc)

        def writer(tid):
            try:
                for i in range(10):
                    client.write_file(
                        f"storm/w{tid}-{i}.bin", bytes([tid]) * 128
                    )
            except BaseException as exc:
                errors.append(exc)

        threads = [
            threading.Thread(target=reader, args=(t,)) for t in range(3)
        ] + [threading.Thread(target=writer, args=(t,)) for t in range(3)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(60)
        assert not errors
        for tid in range(3):
            for i in range(10):
                assert (
                    client.read_file(f"storm/w{tid}-{i}.bin")
                    == bytes([tid]) * 128
                )
