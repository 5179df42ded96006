"""The gradient fusion buffer (§II-A's buffered allreduce)."""

from __future__ import annotations

import time

import numpy as np
import pytest

from repro.comm.fusion import (
    FusionBuffer,
    bucketed_allreduce,
    modeled_allreduce_seconds,
)
from repro.comm.launcher import run_parallel
from repro.errors import CommError
from repro.simnet.network import fdr_infiniband
from repro.util.units import MB


class TestFusionBuffer:
    def test_averages_across_ranks(self):
        def body(comm):
            buf = FusionBuffer(comm, capacity_bytes=1 << 20)
            buf.add(np.full(4, float(comm.rank)))
            buf.add(np.full((2, 3), float(comm.rank * 10)))
            out = buf.flush()
            return [o.copy() for o in out]

        results = run_parallel(body, 4, timeout=30)
        expected_a = np.full(4, np.mean([0, 1, 2, 3]))
        expected_b = np.full((2, 3), np.mean([0, 10, 20, 30]))
        for out in results:
            np.testing.assert_allclose(out[0], expected_a)
            np.testing.assert_allclose(out[1], expected_b)
            assert out[1].shape == (2, 3)

    def test_capacity_triggers_eager_reduction(self):
        def body(comm):
            buf = FusionBuffer(comm, capacity_bytes=64)  # 8 doubles
            for _ in range(6):
                buf.add(np.ones(4))  # 32 bytes each → reduce every 2
            buf.flush()
            return buf.stats.allreduce_calls

        calls = run_parallel(body, 2, timeout=30)
        assert all(c == 3 for c in calls)

    def test_single_giant_bucket_one_call(self):
        def body(comm):
            buf = FusionBuffer(comm, capacity_bytes=1 << 30)
            for _ in range(10):
                buf.add(np.ones(16))
            buf.flush()
            return buf.stats.allreduce_calls

        assert run_parallel(body, 2, timeout=30) == [1, 1]

    def test_order_preserved(self):
        def body(comm):
            buf = FusionBuffer(comm, capacity_bytes=40)
            for i in range(5):
                buf.add(np.full(3, float(i)))
            out = buf.flush()
            return [float(o[0]) for o in out]

        for result in run_parallel(body, 3, timeout=30):
            assert result == [0.0, 1.0, 2.0, 3.0, 4.0]

    def test_stats_accounting(self):
        def body(comm):
            buf = FusionBuffer(comm, capacity_bytes=1 << 20)
            buf.add(np.ones(8))
            buf.flush()
            return (buf.stats.tensors, buf.stats.bytes_reduced)

        for tensors, nbytes in run_parallel(body, 2, timeout=30):
            assert tensors == 1
            assert nbytes == 64

    def test_bad_capacity(self):
        from repro.comm.communicator import World

        with pytest.raises(CommError):
            FusionBuffer(World(1).comm(0), 0)

    def test_empty_flush(self):
        from repro.comm.communicator import World

        buf = FusionBuffer(World(1).comm(0), 100)
        assert buf.flush() == []


class TestBucketedAllreduce:
    @pytest.mark.parametrize("bucket_bytes", [8, 64, 1 << 20])
    def test_matches_monolithic(self, bucket_bytes):
        def body(comm):
            rng = np.random.default_rng(comm.rank)
            flat = rng.standard_normal(37)
            mono = comm.allreduce(flat, np.add) / comm.size
            bucketed = bucketed_allreduce(comm, flat, bucket_bytes)
            return np.allclose(mono, bucketed), len(bucketed)

        results = run_parallel(body, 3, timeout=30)
        assert all(ok for ok, _ in results)
        assert all(n == 37 for _, n in results)


    def test_a_bucket_gives_up_at_its_timeout(self):
        """A rank that stays alive but never reduces holds the others
        only for ``timeout``, not for the communicator's default wait:
        a fused trainer's ``comm_timeout`` reaches every bucket."""

        def body(comm):
            if comm.rank == 1:  # alive, never reduces; leaves when told
                comm.recv(source=0, tag=7, timeout=30)
                return None
            start = time.monotonic()
            try:
                with pytest.raises(CommError, match="timed out"):
                    bucketed_allreduce(comm, np.ones(8), 16, timeout=0.3)
                return time.monotonic() - start
            finally:
                comm.send(None, 1, tag=7)

        elapsed = run_parallel(body, 2, timeout=30)[0]
        assert 0.3 <= elapsed < 1.0


class TestModeledSchedule:
    def test_tuning_curve_has_interior_minimum(self):
        """Tiny buckets pay per-bucket latency; one giant bucket
        forfeits overlap — the optimum sits strictly between."""
        net = fdr_infiniband()
        sizes = [1 << k for k in range(12, 28)]
        times = [
            modeled_allreduce_seconds(net, 100 * MB, 16, s) for s in sizes
        ]
        best = times.index(min(times))
        assert 0 < best < len(sizes) - 1

    def test_single_node_free(self):
        assert modeled_allreduce_seconds(fdr_infiniband(), 1 * MB, 1, 1024) == 0.0

    def test_bad_bucket(self):
        with pytest.raises(CommError):
            modeled_allreduce_seconds(fdr_infiniband(), 1 * MB, 4, 0)
