"""Where a rank's copies live, and how they are restored (§V-D).

The paper stages partitions round robin and copies *extra* ones around
a virtual ring; one metadata allgather then gives every node the global
view of every copy (FanStore, arXiv 1809.10799). :class:`Replication`
is that placement for one rank, plus the membership reactions that keep
it true. It is given the daemon, like
:class:`~repro.fanstore.scrub.Scrubber`, and works through its table,
backend, journal (``_durable_put`` / ``_durable_discard``), gate
(``_skip_reason``) and verified peer fetch (``_peer_fetch``).
"""

from __future__ import annotations

import logging
import threading
import time
from typing import TYPE_CHECKING

from repro.comm.deadline import Deadline
from repro.comm.ring import ring_replicate
from repro.errors import (
    CapacityError,
    DeadlineExpiredError,
    RankDeadError,
    StorageFullError,
)
from repro.fanstore.exchange import FAILOVER_ATTEMPTS
from repro.fanstore.layout import partition_payload_bytes
from repro.fanstore.membership import ClusterView, FailureDetector, RankState
from repro.fanstore.metadata import FileRecord, RereplicationStep
from repro.fanstore.scrub import Scrubber

if TYPE_CHECKING:  # daemon.py builds this class
    from repro.fanstore.daemon import FanStoreDaemon
    from repro.fanstore.prepare import PreparedDataset

#: the load-time metadata allgather is off the request hot path: a
#: generous fixed budget, not the per-request deadline machinery
_LOAD_COLLECTIVE_TIMEOUT = 60.0

_LOG = logging.getLogger(__name__)


class Replication:
    """One rank's placement: staging, the ring copy, and the reactions
    to membership changes."""

    def __init__(self, daemon: FanStoreDaemon) -> None:
        self.daemon = daemon
        self._loaded_bytes = 0
        self._replicated_paths: list[str] = []  # ring copies, announced
        self._lock = threading.Lock()  # the set below
        # convictions frozen for lack of quorum; the heal catches them up
        self._frozen_corpses: set[int] = set()
        # conviction → repair committed, summed over this rank's repairs
        self._repair_seconds = 0.0
        self._repairs = 0

    def _stages(self, rank: int, partition_id: int) -> bool:
        """§V-D round robin: whether ``rank`` stages ``partition_id``
        off the shared FS (at load, and again at a rejoin)."""
        return partition_id % self.daemon.size == rank

    def _staged_by(self, rank: int) -> list[FileRecord]:
        """Records of the partitions ``rank`` stages by round robin.
        A broadcast record is on every rank, and an output record is on
        its writer and hash owner only: its ``partition_id`` of 0 names
        no partition, so neither counts."""
        return [
            rec for rec in self.daemon.metadata.records()
            if not rec.is_broadcast
            and not rec.stat.is_output
            and self._stages(rank, rec.partition_id)
        ]

    def _restaged_elsewhere(self, rank: int) -> list[FileRecord]:
        """Records ``rank`` re-stages at a rejoin but is not home for:
        announced as its replicas by every peer and by ``rank`` itself."""
        return [rec for rec in self._staged_by(rank) if rec.home_rank != rank]

    # -- loading ----------------------------------------------------------

    def _charge_capacity(self, nbytes: int, what: str) -> None:
        self._loaded_bytes += nbytes
        cap = self.daemon.config.capacity_bytes
        if cap is not None and self._loaded_bytes > cap:
            raise CapacityError(
                f"rank {self.daemon.rank}: loading {what} exceeds the "
                f"{cap}-byte burst buffer ({self._loaded_bytes} needed)"
            )

    def _ingest_partition(self, partition_path, what: str) -> None:
        """Ingest one partition file as this rank's and charge its
        payload bytes (how they become readable is the backend's
        business: in RAM, or a staged copy on the local disk). Each stat
        is built once, stamped with this rank as its home as it is
        read."""
        rank = self.daemon.rank
        entries = self.daemon.backend.ingest(partition_path, home_rank=rank)
        self.daemon.metadata.insert_entries(entries, rank)
        self._charge_capacity(partition_payload_bytes(entries), what)

    def load(self, prepared: PreparedDataset) -> None:
        """Stage the prepared dataset: :meth:`load_rejoin`, then the two
        collectives a rejoiner cannot run (ring copy, allgather)."""
        self.load_rejoin(prepared)
        if self.daemon.comm is not None:
            self._replicate_extra_partitions()
            self._metadata_allgather()

    def load_rejoin(self, prepared: PreparedDataset) -> None:
        """Re-stage this rank's round-robin partitions off the shared FS
        without any collective — a rejoiner's cohort has moved on, so
        its metadata comes from the join snapshot applied afterwards."""
        daemon = self.daemon
        daemon._prepared = prepared  # kept for degraded shared-FS re-reads
        for pid, path in enumerate(prepared.partition_paths()):
            if self._stages(daemon.rank, pid):
                self._ingest_partition(path, f"partition {pid}")
        bcast = prepared.broadcast_path()
        if bcast is not None:
            self._ingest_partition(bcast, "broadcast partition")

    def _replicate_extra_partitions(self) -> None:
        """§V-D site 2: extra partitions are copied from the left ring
        neighbor, (path, compressed bytes) pairs per hop, rather than
        re-read off the shared file system."""
        daemon = self.daemon
        budget = daemon.config.extra_partition_budget
        if budget <= 0:
            return
        block = [
            (rec.path, daemon.backend.get(rec.path))
            for rec in daemon.metadata.local_records(daemon.rank)
            if not rec.is_broadcast
        ]
        hops = ring_replicate(
            daemon.comm, block, copies=min(budget, daemon.size - 1),
            timeout=daemon.config.request_timeout,
        )
        for hop in hops:
            daemon.backend.put_many(hop)  # one lock hold per hop
            self._replicated_paths.extend(path for path, _ in hop)
            self._charge_capacity(
                sum(len(data) for _, data in hop), "extra partition"
            )

    def _metadata_allgather(self) -> None:
        """§IV-C1: one allgather builds the identical global view on
        every node — records with their *home* rank, plus the ring
        copies each rank announces as replicas for failover."""
        metadata = self.daemon.metadata
        contributions = self.daemon.comm.allgather(
            (metadata.local_records(self.daemon.rank),
             list(self._replicated_paths)),
            timeout=_LOAD_COLLECTIVE_TIMEOUT,
        )
        for sender, (records, replicated) in enumerate(contributions):
            metadata.merge(records)
            for path in replicated:
                metadata.add_replica(path, sender)

    # -- membership (self-healing) ------------------------------------------

    def attach_membership(self, detector: FailureDetector) -> None:
        """Wire a failure detector's callbacks and its join/promotion
        endpoints to this rank's placement."""
        self.daemon._membership = detector
        detector.on_dead = self.on_rank_dead
        detector.on_alive = self.on_rank_alive
        detector.on_isolated = self.on_isolated
        detector.on_reconnected = self.reconcile_after_heal
        detector.verify_read = self.verification_read
        detector.join_snapshot = self.membership_snapshot

    def on_rank_dead(self, rank: int, view: ClusterView) -> None:
        """Membership callback: ``rank`` was convicted DEAD (once per
        corpse between re-admissions). Every survivor commits the *same*
        deterministic plan (a pure function of the converged metadata
        and view), so routing converges without messages; each step's
        stage rank also copies the payload from a surviving holder (the
        shared FS as the floor), verified, restoring the replication
        factor. Counted in ``rereplicated_records`` and
        ``mean_time_to_repair``."""
        daemon = self.daemon
        det = daemon._membership
        if det is not None and (det.isolated or not det.has_quorum()):
            # No quorum behind this conviction: re-replicating now is
            # how a split cluster turns into a replication storm (both
            # sides "restoring" partitions the other side still holds).
            # Freeze the work; heal reconciliation catches it up if the
            # conviction survives the merged view.
            daemon.stats.rereplications_frozen += 1
            with self._lock:
                self._frozen_corpses.add(rank)
            return
        # reconcile the breaker with the view: a conviction outranks
        # whatever the latency tracker believed
        daemon.health.force_open(rank)
        with self._lock:
            self._frozen_corpses.discard(rank)
        started = time.monotonic()
        plan = daemon.metadata.plan_rereplication(
            rank, view.non_dead_ranks(), daemon.size
        )
        restored = 0
        failed = 0
        for step in plan:
            if step.stage_rank != daemon.rank:
                continue
            if step.path in daemon.backend:
                restored += 1  # already held (e.g. an unannounced copy)
                continue
            if self._stage_copy(step) is None:
                failed += 1
            else:
                restored += 1
        daemon.metadata.apply_rereplication(plan, rank)
        daemon.stats.rereplicated_records += restored
        daemon.stats.rereplication_failed += failed
        t0 = started
        if det is not None and det.clock is time.monotonic:
            t0 = det.detected_at.get(rank, started)
        self._repair_seconds += time.monotonic() - t0
        self._repairs += 1
        daemon.stats.mean_time_to_repair = self._repair_seconds / self._repairs

    def _stage_copy(self, step: RereplicationStep) -> bytes | None:
        """Land one lost record's verified bytes here, from a surviving
        holder or the shared FS; None when every source failed."""
        daemon = self.daemon
        record = daemon.metadata.get(step.path)
        for source in step.source_ranks:
            if source == daemon.rank or daemon._skip_reason(source):
                continue
            try:
                data = daemon._peer_fetch(
                    step.path, record, source, attempts=FAILOVER_ATTEMPTS
                )
            except RankDeadError:
                continue
            if data is not None:
                daemon._durable_put("rereplicate", step.path, data)
                return data
        # _degraded_read verifies and promotes into the backend itself
        return daemon._degraded_read(step.path, record)

    def on_rank_alive(self, rank: int) -> None:
        """Membership callback: ``rank`` was re-admitted, its round-robin
        partitions re-staged: announce it as their replica. Ownership
        stays with the post-repair homes (no routing churn)."""
        with self._lock:
            # a live rank owes nobody a re-replication
            self._frozen_corpses.discard(rank)
        # re-admission half-opens the breaker: the first fetch at the
        # rejoiner is a probe, not a leap of faith
        self.daemon.health.half_open(rank)
        for rec in self._restaged_elsewhere(rank):
            self.daemon.metadata.add_replica(rec.path, rank)

    def on_isolated(self) -> None:
        """Membership callback: this rank lost quorum. Reads go on and
        the detector freezes convictions; this only logs the edge."""
        _LOG.warning(
            "rank %d: ISOLATED — no membership quorum; convictions and "
            "re-replication frozen, reads continue degraded",
            self.daemon.rank,
        )

    def reconcile_after_heal(self, view: ClusterView) -> None:
        """Membership callback: this rank regained quorum after an
        isolation episode. One ``daemon.heal.reconcile`` span of
        anti-entropy:

        1. open breakers are half-opened (probe, don't assume);
        2. frozen convictions are caught up *if* the merged view still
           holds them DEAD;
        3. copies held here that this rank neither homes nor is an
           announced replica of — split-era duplicates, old promotions —
           are dropped through the journal, so a restart keeps them gone
           (``replication.duplicate_replicas_dropped``); a browned-out
           journal refuses a drop, and that copy stays until a later heal;
        4. one scrubber pass digest-verifies (and repairs) the rest
           (``replication.reconciled_records``).
        """
        daemon = self.daemon
        with daemon.tracer.maybe_root("daemon.heal.reconcile",
                                      epoch=view.epoch) as span:
            with self._lock:
                frozen = sorted(self._frozen_corpses)
                self._frozen_corpses.clear()
            for peer in daemon.health.open_peers():
                daemon.health.half_open(peer)
            caught_up = 0
            for rank in frozen:
                if view.state(rank) != RankState.DEAD:
                    continue
                self.on_rank_dead(rank, view)
                caught_up += 1
            dropped = refused = 0
            for rec in daemon.metadata.records():
                if rec.is_broadcast or rec.home_rank == daemon.rank:
                    continue
                if rec.path not in daemon.backend:
                    continue
                if daemon.rank in daemon.metadata.replica_ranks(rec.path):
                    continue
                try:
                    held = daemon._durable_discard(rec.path)
                except StorageFullError:
                    refused += 1
                    continue
                if held:
                    daemon.cache.discard(rec.path)
                    dropped += 1
            daemon.stats.duplicate_replicas_dropped += dropped
            if refused:
                _LOG.warning(
                    "rank %d: journal refused %d duplicate drop(s); the "
                    "copies stay until a later heal", daemon.rank, refused,
                )
            report = Scrubber(daemon, repair=True).run()
            daemon.stats.reconciled_records += report.scanned
            span.tag(
                caught_up=caught_up,
                duplicates_dropped=dropped,
                drops_refused=refused,
                scrub_clean=report.clean,
            )

    def verification_read(self, joiner: int) -> bool:
        """Promotion gate (peer side): a verified fetch of the first
        record of the joiner's round-robin partition from its daemon
        (nothing to verify: admit). The detector's thread sends no
        heartbeat while it waits, so it gets half of ``suspect_after``:
        a silent joiner is refused before a peer could suspect us."""
        daemon = self.daemon
        candidates = self._staged_by(joiner)
        if not candidates:
            return True
        record = min(candidates, key=lambda r: r.path)
        budget = Deadline.after(daemon._membership.config.suspect_after / 2)
        try:
            data = daemon._peer_fetch(
                record.path, record, joiner, attempts=1, deadline=budget
            )
        except (DeadlineExpiredError, RankDeadError):
            return False
        return data is not None

    def membership_snapshot(
        self,
    ) -> tuple[list[FileRecord], dict[str, tuple[int, ...]]]:
        """Join payload (peer side): the records and the replica map —
        what the load-time allgather gave, post-repair changes included."""
        metadata = self.daemon.metadata
        records = metadata.records()
        replicas = {
            rec.path: metadata.replica_ranks(rec.path) for rec in records
        }
        return records, replicas

    def apply_membership_snapshot(
        self, snapshot: tuple[list[FileRecord], dict[str, tuple[int, ...]]]
    ) -> None:
        """Joiner side: adopt a live peer's metadata wholesale (it holds
        any re-homing done meanwhile), then announce as replicas the
        copies of :meth:`_restaged_elsewhere` held here — and no others:
        :meth:`reconcile_after_heal` drops those."""
        daemon = self.daemon
        records, replicas = snapshot
        for rec in records:
            daemon.metadata.insert(rec)
            # Replace, not union: a partition survivor's own stale
            # entries (e.g. itself as holder of a duty re-homed during
            # the split) must not outlive the adoption.
            daemon.metadata.set_replicas(rec.path, replicas.get(rec.path, ()))
        for rec in self._restaged_elsewhere(daemon.rank):
            if rec.path in daemon.backend:
                daemon.metadata.add_replica(rec.path, daemon.rank)

    def export_ownership(self) -> dict:
        """JSON-ready ownership map (view epoch, per-path home and
        replicas): ``fanstore-inspect --repair`` consults the current
        owners, so integrity repair and membership repair compose."""
        records, replicas = self.membership_snapshot()
        return {
            "epoch": self.daemon._view_epoch(),
            "rank": self.daemon.rank,
            "files": {
                rec.path: {
                    "home": rec.home_rank,
                    "replicas": list(replicas[rec.path]),
                }
                for rec in records
            },
        }
