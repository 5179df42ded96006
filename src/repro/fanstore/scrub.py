"""The self-healing integrity scrubber.

Verify-on-read (:meth:`FanStoreDaemon._verified_local`) catches
corruption the moment a training process touches the bytes — but a
record nobody has read yet can sit corrupt for hours, and the repair
sources (peer replicas, the shared-FS partition files) are most likely
to still exist *early*. The scrubber closes that window: a background
sweep over the records staged on this rank that digest-checks each
compressed payload and heals mismatches through the same failover
ladder the read path uses, so by the time an epoch reaches a damaged
record it has already been replaced.

Design points:

- **incremental** — :meth:`Scrubber.step` verifies one bounded batch
  and remembers its cursor, so the sweep interleaves with training
  instead of stalling it; :meth:`Scrubber.run` is the one-shot full
  pass (what ``FanStore.verify_integrity`` builds on).
- **rate-limited** — ``rate_limit_bytes_per_s`` caps scrub bandwidth so
  the sweep never competes with the §IV-C3 read path for memory
  bandwidth.
- **repair policy** — ``repair=True`` heals via
  :meth:`FanStoreDaemon.repair` (replicas → shared FS) and counts into
  ``DaemonStats.corruption_detected/corruption_repaired``;
  ``repair=False`` only reports, mutating nothing.
- **deep mode** — additionally decompresses each payload and checks the
  plaintext length against the stat record, catching corruption that
  predates the digest (or datasets packed before digests existed).

Every sweep produces a :class:`ScrubReport`; unrepairable paths are
listed by name so operators (and the E2E drill) know exactly what was
lost.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field

from repro.errors import (
    DataIntegrityError,
    FanStoreError,
    FileNotFoundInStoreError,
)
from repro.fanstore.daemon import FanStoreDaemon
from repro.fanstore.layout import blob_crc32
from repro.fanstore.metadata import FileRecord
from repro.util.service import ServiceMixin


@dataclass
class ScrubReport:
    """Outcome of one scrub pass (or one incremental batch)."""

    scanned: int = 0  # records examined
    verified: int = 0  # digest (and, deep mode, plaintext) checked OK
    skipped: int = 0  # no digest recorded, or bytes not staged here
    corrupted: int = 0  # digest mismatches found
    repaired: int = 0  # of those, healed via the failover ladder
    unrepaired: list[str] = field(default_factory=list)  # lost paths
    bytes_scanned: int = 0
    elapsed_s: float = 0.0

    @property
    def clean(self) -> bool:
        """True when nothing is corrupt *now* (repaired counts as clean)."""
        return not self.unrepaired and self.corrupted == self.repaired

    def merge(self, other: "ScrubReport") -> None:
        """Fold a batch into a cumulative report."""
        self.scanned += other.scanned
        self.verified += other.verified
        self.skipped += other.skipped
        self.corrupted += other.corrupted
        self.repaired += other.repaired
        self.unrepaired.extend(other.unrepaired)
        self.bytes_scanned += other.bytes_scanned
        self.elapsed_s += other.elapsed_s

    def __str__(self) -> str:  # the inspect CLI prints reports
        state = "clean" if self.clean else f"{len(self.unrepaired)} unrepaired"
        return (
            f"scrub: {self.scanned} scanned, {self.verified} verified, "
            f"{self.skipped} skipped, {self.corrupted} corrupt, "
            f"{self.repaired} repaired ({state}; "
            f"{self.bytes_scanned} B in {self.elapsed_s:.3f}s)"
        )


class Scrubber(ServiceMixin):
    """Incremental, rate-limited digest sweep over one rank's records.

    Progress is visible in the daemon's metrics registry: the
    ``scrub.bytes_scanned`` counter and ``scrub.batch_seconds``
    histogram advance with every batch, and the ``scrub.pending`` gauge
    reports how far through the current sweep snapshot the cursor is.
    """

    def __init__(
        self,
        daemon: FanStoreDaemon,
        *,
        repair: bool = True,
        deep: bool = False,
        batch: int = 32,
        rate_limit_bytes_per_s: float | None = None,
        interval_s: float = 0.0,
    ) -> None:
        if batch < 1:
            raise FanStoreError(f"scrub batch must be >= 1, got {batch}")
        if rate_limit_bytes_per_s is not None and rate_limit_bytes_per_s <= 0:
            raise FanStoreError("rate limit must be positive (or None)")
        self.daemon = daemon
        self.repair = repair
        self.deep = deep
        self.batch = batch
        self.rate_limit_bytes_per_s = rate_limit_bytes_per_s
        self.interval_s = interval_s  # idle time between background batches
        self.report = ScrubReport()  # cumulative across step() calls
        self._pending: list[str] = []
        self._mid_sweep = False
        self._thread: threading.Thread | None = None
        self._stop = threading.Event()
        metrics = daemon.metrics
        self._c_bytes = metrics.counter("scrub.bytes_scanned")
        self._h_batch = metrics.histogram("scrub.batch_seconds")
        metrics.bind_gauge("scrub.pending", fn=lambda: len(self._pending))

    # -- target selection --------------------------------------------------

    def local_paths(self) -> list[str]:
        """Paths whose compressed bytes this rank is responsible for:
        its home records plus any replica/promoted copies staged in the
        backend (sorted, so sweeps are deterministic)."""
        daemon = self.daemon
        paths = {
            rec.path for rec in daemon.metadata.records()
            if rec.home_rank == daemon.rank or rec.path in daemon.backend
        }
        return sorted(paths)

    # -- sweeping ----------------------------------------------------------

    def step(self, max_records: int | None = None) -> ScrubReport:
        """Verify the next batch (default ``self.batch``) and advance
        the cursor. When a sweep's snapshot is exhausted, one empty
        report marks the boundary (``scanned == 0`` — callers driving
        "scrub until done" stop there) and the next call starts a fresh
        snapshot. Folds into :attr:`report` and returns the batch's own
        report."""
        if not self._pending:
            if self._mid_sweep:
                self._mid_sweep = False
                return ScrubReport()  # sweep boundary
            self._pending = self.local_paths()
            self._mid_sweep = True
        budget = self.batch if max_records is None else max_records
        batch, self._pending = self._pending[:budget], self._pending[budget:]
        result = self._verify(batch)
        self.report.merge(result)
        return result

    def run(self, sample: int | None = None) -> ScrubReport:
        """One full pass (or the first ``sample`` records) over a fresh
        snapshot; independent of the incremental cursor."""
        paths = self.local_paths()
        if sample is not None:
            paths = paths[:sample]
        return self._verify(paths)

    def _verify(self, paths: list[str]) -> ScrubReport:
        report = ScrubReport()
        start = time.monotonic()
        daemon = self.daemon
        for path in paths:
            try:
                record = daemon.metadata.get(path)
            except FileNotFoundInStoreError:
                continue  # unlinked between snapshot and visit
            self._verify_one(record, report)
            daemon.stats.records_scrubbed += 1
            self._throttle(report, start)
        report.elapsed_s = time.monotonic() - start
        self._c_bytes.inc(report.bytes_scanned)
        self._h_batch.observe(report.elapsed_s)
        return report

    def _verify_one(self, record: FileRecord, report: ScrubReport) -> None:
        daemon = self.daemon
        report.scanned += 1
        try:
            data = daemon.backend.get(record.path)
        except FileNotFoundInStoreError:
            report.skipped += 1  # metadata-only here; bytes live elsewhere
            return
        except DataIntegrityError:
            self._handle_corrupt(record, report)
            return
        report.bytes_scanned += len(data)
        if not record.has_digest:
            if self.deep and not self._plaintext_ok(record, data):
                self._handle_corrupt(record, report)
            else:
                report.skipped += 1
            return
        digest_ok = blob_crc32(data) == record.crc32
        if digest_ok and (not self.deep or self._plaintext_ok(record, data)):
            report.verified += 1
            return
        self._handle_corrupt(record, report)

    def _plaintext_ok(self, record: FileRecord, data: bytes) -> bool:
        """Deep check: the payload decompresses to the recorded size."""
        try:
            compressor = self.daemon.registry.get(record.compressor_id)
            plain = compressor.decompress(data, record.stat.st_size)
        except Exception:
            return False
        return len(plain) == record.stat.st_size

    def _handle_corrupt(self, record: FileRecord, report: ScrubReport) -> None:
        report.corrupted += 1
        if not self.repair:
            return
        try:
            # by path, not by the snapshot's record: repair() re-resolves
            # ownership, so a record re-homed by the membership layer is
            # healed from its *current* owner, not the dead original
            self.daemon.repair(record.path)
        except DataIntegrityError:
            report.unrepaired.append(record.path)
        else:
            report.repaired += 1

    def _throttle(self, report: ScrubReport, start: float) -> None:
        limit = self.rate_limit_bytes_per_s
        if limit is None or report.bytes_scanned == 0:
            return
        earliest = start + report.bytes_scanned / limit
        delay = earliest - time.monotonic()
        if delay > 0:
            time.sleep(delay)

    # -- background mode ---------------------------------------------------

    def start(self) -> None:
        """Run :meth:`step` on a daemon thread until :meth:`stop`,
        sleeping ``interval_s`` between batches (no-op if running)."""
        if self._thread is not None:
            return
        self._stop.clear()

        def _loop() -> None:
            while not self._stop.is_set():
                self.step()
                if self._stop.wait(self.interval_s):
                    return

        self._thread = threading.Thread(
            target=_loop,
            name=f"fanstore-scrubber-{self.daemon.rank}",
            daemon=True,
        )
        self._thread.start()

    def stop(self, timeout: float | None = 5.0) -> None:
        """Stop the background sweep (idempotent)."""
        if self._thread is None:
            return
        self._stop.set()
        self._thread.join(timeout=timeout)
        self._thread = None

    @property
    def running(self) -> bool:
        """Whether the background sweep is live (Service contract)."""
        thread = self._thread
        return thread is not None and thread.is_alive()
