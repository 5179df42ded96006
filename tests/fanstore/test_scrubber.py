"""The self-healing scrubber: sweeps, batches, policy, throttling."""

from __future__ import annotations

import random
import threading
import time

import pytest

from repro.fanstore.corruption import corrupt_backend
from repro.fanstore.crash import DiskFaultInjector
from repro.fanstore.metadata import FileRecord
from repro.fanstore.scrub import ScrubReport, Scrubber
from repro.fanstore.store import FanStore, FanStoreOptions

SEEDS = (11, 22, 33)
seeds = pytest.mark.parametrize("seed", SEEDS, ids=[f"seed{s}" for s in SEEDS])


def _corrupt_some(fs, seed, k=3):
    """Deterministically corrupt k staged copies; returns their paths."""
    rng = random.Random(seed)
    paths = sorted(r.path for r in fs.daemon.metadata.records())
    victims = rng.sample(paths, k)
    for i, path in enumerate(victims):
        corrupt_backend(fs.daemon.backend, path, seed=seed + i)
    return victims


class TestFullSweep:
    @seeds
    def test_detects_and_heals_exactly_the_damage(self, single_store, seed):
        fs = single_store
        originals = {
            r.path: fs.daemon.backend.get(r.path)
            for r in fs.daemon.metadata.records()
        }
        victims = _corrupt_some(fs, seed)
        report = fs.scrub()
        assert report.scanned == 15
        assert report.corrupted == len(victims)
        assert report.repaired == len(victims)
        assert report.unrepaired == []
        assert report.clean
        assert fs.daemon.stats.corruption_detected == len(victims)
        assert fs.daemon.stats.corruption_repaired == len(victims)
        assert fs.daemon.stats.records_scrubbed == 15
        # the backend holds byte-identical compressed copies again
        for path, data in originals.items():
            assert fs.daemon.backend.get(path) == data
        # a second sweep finds nothing
        assert fs.scrub().corrupted == 0

    def test_clean_store_scrubs_clean(self, single_store):
        report = single_store.scrub()
        assert report.verified == 15
        assert report.corrupted == 0
        assert report.clean
        assert report.bytes_scanned > 0

    def test_sample_bounds_the_sweep(self, single_store):
        report = single_store.scrub(sample=4)
        assert report.scanned == 4

    @seeds
    def test_report_only_mode_mutates_nothing(self, single_store, seed):
        fs = single_store
        victims = _corrupt_some(fs, seed)
        corrupt = {p: fs.daemon.backend.get(p) for p in victims}
        report = fs.scrub(repair=False)
        assert report.corrupted == len(victims)
        assert report.repaired == 0
        assert not report.clean
        assert fs.daemon.stats.corruption_repaired == 0
        for path, data in corrupt.items():
            assert fs.daemon.backend.get(path) == data  # untouched


class TestIncremental:
    def test_steps_cover_everything(self, single_store):
        scrubber = single_store.scrubber(batch=4)
        batches = []
        while True:
            batch = scrubber.step()
            if batch.scanned == 0:
                break
            batches.append(batch.scanned)
        assert sum(batches) == 15
        assert batches == [4, 4, 4, 3]
        assert scrubber.report.scanned == 15
        assert scrubber.report.verified == 15

    def test_pending_follows_the_scrubber_that_steps(self, single_store):
        """``scrub.pending`` is one gauge per rank: after a one-shot
        sweep built the first scrubber, it still reports the cursor of
        the one that is stepping."""
        fs = single_store
        fs.scrub()
        scrubber = fs.scrubber(batch=4)
        scrubber.step()
        assert fs.metrics.snapshot().value("scrub.pending") == 15 - 4

    def test_cursor_wraps_to_fresh_snapshot(self, single_store):
        scrubber = single_store.scrubber(batch=15)
        assert scrubber.step().scanned == 15
        assert scrubber.step().scanned == 0  # sweep boundary
        assert scrubber.step().scanned == 15  # next sweep begins

    @seeds
    def test_incremental_sweep_heals_too(self, single_store, seed):
        fs = single_store
        victims = _corrupt_some(fs, seed)
        scrubber = fs.scrubber(batch=2)
        for _ in range(8):
            scrubber.step()
        assert scrubber.report.repaired == len(victims)
        assert scrubber.report.clean


class TestThrottle:
    def test_rate_limit_stretches_the_sweep(self, single_store):
        fs = single_store
        nbytes = sum(
            len(fs.daemon.backend.get(r.path))
            for r in fs.daemon.metadata.records()
        )
        limit = nbytes / 0.2  # the full sweep must take >= ~0.2s
        start = time.monotonic()
        report = fs.scrubber(rate_limit_bytes_per_s=limit).run()
        elapsed = time.monotonic() - start
        assert report.verified == 15
        assert elapsed >= 0.15

    def test_rate_limit_validated(self, single_store):
        with pytest.raises(Exception):
            single_store.scrubber(rate_limit_bytes_per_s=0)
        with pytest.raises(Exception):
            single_store.scrubber(batch=0)


class TestDeepMode:
    def test_deep_catches_undigested_corruption(self, single_store):
        """A record from the pre-digest era (flag stripped) with corrupt
        bytes passes the crc layer but fails deep decompression — and
        the ladder still heals it from the shared FS."""
        import dataclasses

        fs = single_store
        victim = sorted(r.path for r in fs.daemon.metadata.records())[0]
        record = fs.daemon.metadata.get(victim)
        stripped = dataclasses.replace(
            record,
            stat=record.stat._replace(flags=0, crc32=0),
        )
        fs.daemon.metadata.insert(stripped)
        good = fs.daemon.backend.get(victim)
        corrupt_backend(fs.daemon.backend, victim, seed=5)

        shallow = fs.scrub(deep=False)
        assert shallow.skipped >= 1  # no digest: shallow cannot see it
        assert shallow.corrupted == 0

        deep = fs.scrub(deep=True)
        assert deep.corrupted == 1
        assert deep.repaired == 1
        assert fs.daemon.backend.get(victim) == good

    def test_deep_clean_store_verifies_everything(self, single_store):
        report = single_store.scrub(deep=True)
        assert report.verified == 15
        assert report.corrupted == 0


class TestBackground:
    def test_background_thread_sweeps_and_stops(self, single_store):
        fs = single_store
        victims = _corrupt_some(fs, 99, k=2)
        scrubber = fs.scrubber(batch=4, interval_s=0.005)
        scrubber.start()
        scrubber.start()  # idempotent
        deadline = time.monotonic() + 5.0
        while time.monotonic() < deadline:
            if scrubber.report.repaired >= len(victims):
                break
            time.sleep(0.01)
        scrubber.stop()
        scrubber.stop()  # idempotent
        assert scrubber.report.repaired == len(victims)
        assert fs.scrub().corrupted == 0

    def test_a_refused_write_back_is_unrepaired_and_the_sweep_goes_on(
        self, prepared_dataset, tmp_path
    ):
        """On a disk under the journal's free-space watermark the repair
        gets verified bytes but cannot install them: the path is
        reported unrepaired (the copy on disk is still the bad one) and
        the background sweep keeps running."""
        options = FanStoreOptions(local_dir=tmp_path / "local")
        with FanStore(prepared_dataset, options) as fs:
            daemon = fs.daemon
            victim = sorted(r.path for r in daemon.metadata.records())[0]
            bad = corrupt_backend(daemon.backend, victim, seed=6)
            full = DiskFaultInjector().set_free_bytes(0)
            daemon.backend.injector = daemon.journal.injector = full
            # one step is one whole sweep; the next is an hour away
            scrubber = fs.scrubber(batch=1000, interval_s=3600.0)
            swept = threading.Event()
            step = scrubber.step

            def stepped(*args):
                try:
                    return step(*args)
                finally:
                    swept.set()

            scrubber.step = stepped
            scrubber.start()
            assert swept.wait(30)
            report = scrubber.report
            assert (report.scanned, report.corrupted) == (15, 1)
            assert (report.repaired, report.unrepaired) == (0, [victim])
            assert scrubber.running  # the sweep survived the refusal
            scrubber.stop()
            assert daemon.backend.get(victim) == bad
            assert daemon.stats.corruption_repaired == 0
            full.set_free_bytes(None)


class TestReport:
    def test_merge_accumulates(self):
        a = ScrubReport(scanned=2, verified=1, corrupted=1, repaired=1,
                        bytes_scanned=10, elapsed_s=0.1)
        b = ScrubReport(scanned=3, verified=2, corrupted=1,
                        unrepaired=["x"], bytes_scanned=20, elapsed_s=0.2)
        a.merge(b)
        assert a.scanned == 5 and a.verified == 3
        assert a.corrupted == 2 and a.repaired == 1
        assert a.unrepaired == ["x"]
        assert not a.clean
        assert "unrepaired" in str(a)

    def test_str_mentions_clean(self):
        assert "clean" in str(ScrubReport())
