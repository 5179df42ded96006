"""The FanStore daemon (§V-A, §V-D).

One daemon runs per node (here: per rank of the in-process world). It

1. loads its assigned partitions from the shared file system into the
   local backend, plus any *extra* partitions capacity allows (copied
   from the ring neighbor, not re-read from the shared FS — §V-D);
2. exchanges metadata with every peer through one ``allgather`` so all
   subsequent metadata traffic is node-local (§IV-C1);
3. serves ``fetch`` requests from peers for compressed bytes it hosts
   (MPI send/recv in the paper; the communicator here);
4. decompresses on ``open()`` into the reference-counted cache and
   answers ``read()`` from it (Figures 2–4);
5. accepts the write path: an output file closed by the client is
   dumped to the backend and its metadata forwarded to the rank that
   owns the path's hash slot (§V-D site 4).

This module decides *what* to ask a peer and *whom* (the failover
ladder, ``fetch_many``'s grouping, the write/stat forwarding) and
serves what peers ask; *how* a peer is asked is
:class:`repro.fanstore.exchange.PeerExchange`.

Message protocol (all on ``TAG_DAEMON``; replies on caller-chosen tags):

=========== ======================================== ===============================
kind        payload                                  reply
=========== ======================================== ===============================
fetch       Request envelope (subject = path)        (OK, compressed) | (MISS, path)
stat        Request envelope (subject = path)        (OK, FileRecord) | (MISS, None)
write_meta  Request envelope (subject = FileRecord)  (OK, None) | (FENCED, epoch)
batch       Request envelope (batch = item triples)  (BATCH, item replies)
stop        —                                        —
=========== ======================================== ===============================

Every reply is a ``(status, value)`` pair with a
:class:`repro.fanstore.wire.Reply` status, on the wire and inside this
module alike; anything else on a reply tag counts as a lost reply.

Every request body is a :class:`repro.fanstore.wire.Request` envelope —
one typed record carrying ``subject``, ``reply_tag``, ``trace_ctx``,
``deadline``, ``epoch``, and ``batch`` by name, encoded as a versioned
self-identifying tuple (see :mod:`repro.fanstore.wire` for the wire
layout and forward-compatibility rules); any other body is counted in
``malformed_requests`` and dropped. A traced requester's context is
adopted so one ``client.read`` is reconstructable across every rank it
touched; work whose absolute deadline already expired is dropped
instead of answered into the void; any request may instead be shed on
queue overflow with ``(OVERLOAD, retry_after_s)`` so clients back off
instead of retry-storming; and a mutating request (``write_meta``)
whose fencing token (membership view epoch) is older than the server's
is answered ``(FENCED, server_epoch)`` rather than applied, so a rank
healing out of a minority partition cannot clobber majority state.

A ``batch`` envelope is a client-side flush of small same-destination
requests: its ``batch`` field holds ``(kind, subject, deadline)``
triples, served in order with per-item deadline checks and per-item
error isolation, answered as one ``(BATCH, (item replies...))`` on the
envelope's reply tag.
"""

from __future__ import annotations

import logging
import sys
import threading
import time
import zlib
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from functools import partial
from typing import Any, Iterable

from repro.comm.communicator import ANY_SOURCE, Communicator
from repro.comm.deadline import Deadline, wire_deadline
from repro.compressors.registry import CompressorRegistry, default_registry
from repro.errors import (
    CapacityError,
    CommClosedError,
    CommError,
    DataIntegrityError,
    DeadlineExpiredError,
    FanStoreError,
    FileNotFoundInStoreError,
    RankDeadError,
    RetryExhaustedError,
    ServerOverloadedError,
    WireFormatError,
)
from repro.fanstore.backend import Backend, RamBackend
from repro.fanstore.cache import DecompressedCache
from repro.fanstore.exchange import (
    OVERLOAD_RETRY_AFTER_S,
    TAG_DAEMON,
    PeerExchange,
)
from repro.fanstore.health import AdmissionQueue, HealthTracker
from repro.fanstore.journal import Journal, JournalConfig, JournalStats
from repro.fanstore.layout import (
    FLAG_HAS_DIGEST,
    blob_crc32,
    partition_payload_bytes,
)
from repro.fanstore.membership import (
    ClusterView,
    FailureDetector,
    RankState,
    ring_successor,
)
from repro.fanstore.metadata import (
    FileRecord,
    MetadataTable,
    RereplicationStep,
    normalize,
)
from repro.fanstore.pipeline import BATCH_MAX, MAX_INFLIGHT, PIPELINE_WORKERS
from repro.fanstore.prepare import PreparedDataset
from repro.fanstore.wire import (
    Reply,
    Request,
    decode_request,
    encode_batch_reply,
)
from repro.obs.metrics import MetricsRegistry
from repro.obs.tracing import NULL_SPAN, Tracer

#: load-time collectives (metadata allgather) are not on the request
#: hot path; they get a generous fixed budget rather than the per-
#: request deadline machinery.
_LOAD_COLLECTIVE_TIMEOUT = 60.0

#: attempts against each replica rank once the home rank is given up on
#: (replicas are a bonus tier; the shared FS is the floor).
_FAILOVER_ATTEMPTS = 1

#: service-thread join budget at :meth:`FanStoreDaemon.stop` —
#: deliberately *not* ``request_timeout`` (a 30 s request budget must
#: not turn shutdown into a 30 s hang).
_SHUTDOWN_TIMEOUT = 5.0

_LOG = logging.getLogger(__name__)


@dataclass
class DaemonStats:
    """Counters surfaced to the benchmarks and drills.

    Every field here is *bound into* the daemon's
    :class:`~repro.obs.metrics.MetricsRegistry` under
    ``daemon.<field>`` (same storage — mutating either side is visible
    through both): the hot path does ``stats.retries += 1``, a bare int
    add, and readers use ``daemon.stats.<field>`` or ``daemon.metrics``
    as they prefer.
    """

    local_opens: int = 0
    remote_fetches: int = 0
    remote_bytes: int = 0
    decompressions: int = 0
    decompressed_bytes: int = 0
    served_requests: int = 0
    writes: int = 0
    write_bytes: int = 0
    malformed_requests: int = 0
    retries: int = 0  # re-sent request/reply attempts (lost or late replies)
    failovers: int = 0  # fetches that had to leave the home rank
    degraded_reads: int = 0  # payloads re-read from the shared FS
    corruption_detected: int = 0  # payloads that failed digest verification
    corruption_repaired: int = 0  # of those, healed via the failover ladder
    records_scrubbed: int = 0  # records verified by the background scrubber
    rereplicated_records: int = 0  # restored copies staged on this rank
    rereplication_failed: int = 0  # lost records no source could restore
    mean_time_to_repair: float = 0.0  # conviction → repair committed, seconds
    hedged_reads: int = 0  # fetches where the hedge actually fired
    hedge_wins: int = 0  # of those, the hedge replica answered first
    hedge_losses: int = 0  # of those, the home rank still answered first
    breaker_opens: int = 0  # circuit-breaker transitions into OPEN
    breaker_probes: int = 0  # half-open requests let through as probes
    breaker_skips: int = 0  # fetches the gate routed around their home
    shed_requests: int = 0  # requests dropped by admission control
    deadline_expired_drops: int = 0  # served-side: work abandoned pre-serve
    deadline_aborts: int = 0  # client-side: exchanges abandoned at deadline
    overload_backoffs: int = 0  # overload replies received (client backed off)
    fenced_rejects: int = 0  # mutations refused for carrying a stale epoch
    stale_epoch_aborts: int = 0  # client-side: requests fenced off by a server
    rereplications_frozen: int = 0  # convictions deferred for lack of quorum
    reconciled_records: int = 0  # placements digest-checked by heal anti-entropy
    duplicate_replicas_dropped: int = 0  # split-era copies GC'd on heal

    #: replication-engine counters live under ``replication.<field>``
    #: in the registry (the ISSUE-specified namespace for partition-era
    #: metrics), while everything else keeps the legacy ``daemon.``
    #: prefix.
    _REPLICATION_FIELDS = (
        "fenced_rejects",
        "rereplications_frozen",
        "reconciled_records",
        "duplicate_replicas_dropped",
    )

    def bind(self, metrics: MetricsRegistry) -> None:
        """Register every field in ``metrics`` as ``daemon.<field>``
        (``replication.<field>`` for the replication-engine counters),
        backed by this object's attributes (zero hot-path overhead:
        ``stats.retries += 1`` stays a bare int add)."""
        for name in self.__dataclass_fields__:
            prefix = (
                "replication" if name in self._REPLICATION_FIELDS
                else "daemon"
            )
            if name == "mean_time_to_repair":
                metrics.bind_gauge(f"{prefix}.{name}", self, name)
            else:
                metrics.bind_counter(f"{prefix}.{name}", self, name)


@dataclass(frozen=True)
class DaemonConfig:
    """Tunables of one daemon instance."""

    capacity_bytes: int | None = None  # burst-buffer budget; None = unbounded
    extra_partition_budget: int = 0  # additional partitions to replicate
    request_timeout: float = 30.0
    #: retry budget for one request/reply exchange: ``max_retries``
    #: re-sends after the first attempt, each on a fresh reply tag,
    #: after the fixed back-off of :mod:`repro.fanstore.exchange`.
    max_retries: int = 2
    #: compressor applied to output files at close (None = store raw).
    #: Checkpoints/logs are written once and rarely re-read (§II-B3), so
    #: a slow-but-dense codec is usually the right choice here.
    output_compressor: str | None = None
    #: digest-check every compressed payload before it is decompressed
    #: or served (records without a recorded digest always pass); the
    #: cached-plaintext fast path is unaffected either way.
    verify_reads: bool = True
    #: phase-histogram sampling: every Nth cache-missing ``open_file``
    #: records per-phase (metadata/fetch/verify/decompress) latencies.
    #: A hot local read is ~20 µs, so always-on timing would dominate
    #: it; sampling keeps the instrumentation overhead low while the
    #: histograms still converge. 0 disables phase timing entirely.
    metrics_every: int = 8
    #: fraction of cache-missing opens that start a new trace rooted at
    #: ``client.read`` (1.0 = every open; the chaos drills run there).
    #: 0.0 never *starts* traces, but requests arriving with a remote
    #: trace context are always served traced — a sampled trace on one
    #: rank is followed everywhere.
    trace_sample: float = 0.0
    #: total wall-clock budget for one fetch ladder (home retries →
    #: replicas → shared FS). None keeps the legacy behaviour — each
    #: attempt gets a full ``request_timeout`` and the tiers stack; a
    #: value caps every attempt's timeout and backoff by the remaining
    #: budget, so the ladder can never outlive the caller (set it below
    #: the trainer's ``comm_timeout``). Either way each request wire
    #: body carries its attempt's absolute deadline so servers can drop
    #: work the requester has already abandoned.
    request_deadline: float | None = None
    #: hedged reads: after the home rank has been silent for the 95th
    #: percentile of its recent latencies (``hedge_after_s`` until
    #: enough samples exist), fire the same fetch at the best
    #: replica and take the first verified reply. Off by default — the
    #: healthy-cluster overhead is near zero, but hedging is a policy
    #: the operator should opt into.
    hedge_reads: bool = False
    hedge_after_s: float = 0.05
    #: circuit breaker per peer: three consecutive hard failures
    #: (timeouts, sheds), one exhausted full-budget exchange, or
    #: ``breaker_slow_threshold`` consecutive slow signals (a hedge
    #: fired) open it; after ``breaker_reset_after`` seconds it
    #: half-opens and the next fetch probes, with a single attempt.
    breaker_slow_threshold: int = 3
    breaker_reset_after: float = 1.0
    #: admission control: the service loop drains its mailbox into a
    #: bounded queue; overflow sheds the nearest-deadline entry with an
    #: overload reply.
    max_queue_depth: int = 64
    #: epoch fencing: every request carries the sender's membership view
    #: epoch, and mutating requests (``write_meta``) stamped with an
    #: epoch older than the server's are refused with a
    #: ``(FENCED, server_epoch)`` reply (surfaced to the caller as
    #: :class:`StaleEpochError`). This is what keeps a rank healing out
    #: of a minority partition from clobbering majority state; disable
    #: only to measure what it buys (see ``benchmarks/bench_partition``).
    epoch_fencing: bool = True


class FanStoreDaemon:
    """Per-rank object-store service."""

    def __init__(
        self,
        comm: Communicator | None = None,
        *,
        config: DaemonConfig | None = None,
        backend: Backend | None = None,
        registry: CompressorRegistry | None = None,
        metrics: MetricsRegistry | None = None,
        journal_dir: Any = None,
        journal_config: JournalConfig | None = None,
    ) -> None:
        self.comm = comm
        self.config = config or DaemonConfig()
        self.backend = backend if backend is not None else RamBackend()
        self.registry = registry or default_registry()
        self.metadata = MetadataTable()
        self.cache = DecompressedCache()
        self.rank = comm.rank if comm else 0
        self.size = comm.size if comm else 1
        #: unified per-rank observability: the stats bag below is bound
        #: into this registry (``daemon.*``), the cache binds its own
        #: (``cache.*``), and sampled opens feed the phase histograms.
        self.metrics = metrics if metrics is not None else MetricsRegistry(
            rank=self.rank
        )
        self.tracer = Tracer(rank=self.rank, sample=self.config.trace_sample)
        self.stats = DaemonStats()
        self.stats.bind(self.metrics)
        self.cache.bind_metrics(self.metrics)
        self._obs_tick = 0
        # an observed miss's verify seconds, None when nobody observes
        # (see _blob_ok)
        self._last_verify_s: float | None = None
        self._h_meta = self.metrics.histogram("daemon.phase.metadata_seconds")
        self._h_fetch = self.metrics.histogram("daemon.phase.fetch_seconds")
        self._h_verify = self.metrics.histogram("daemon.phase.verify_seconds")
        self._h_decompress = self.metrics.histogram(
            "daemon.phase.decompress_seconds"
        )
        self._h_open = self.metrics.histogram("daemon.open_seconds")
        # compressor id → its three codec.<name>.decode_* handles
        self._codec_metrics: dict[int, tuple] = {}
        self._h_write = self.metrics.histogram("daemon.write_seconds")
        self._trace_opens = self.config.trace_sample > 0.0
        self._service_thread: threading.Thread | None = None
        #: serve-side pipeline state: the in-flight gauge + counters
        self._inflight = 0
        self.metrics.bind_gauge("daemon.pipeline.inflight", self, "_inflight")
        self._m_dispatched = self.metrics.counter("daemon.pipeline.dispatched")
        self._m_batch_served = self.metrics.counter("daemon.batch.served")
        self._loaded_bytes = 0
        self._prepared: PreparedDataset | None = None
        # replica paths this rank acquired during ring replication,
        # announced to peers in the metadata allgather
        self._replicated_paths: list[str] = []
        #: per-peer latency quantiles + circuit breakers; the
        #: breaker transition/probe callbacks land in the stats bag so
        #: the drills assert on them like any other counter
        cfg = self.config
        self.health = HealthTracker(
            self.rank,
            slow_threshold=cfg.breaker_slow_threshold,
            reset_after=cfg.breaker_reset_after,
        )
        self.health.on_open = self._on_breaker_open
        self.health.on_probe = self._on_breaker_probe
        #: the request side: how a peer is asked (see exchange.py)
        self.exchange = PeerExchange(
            comm, cfg, self.stats, self.health, self.tracer, self.metrics,
            fence=self._fence_token, verify=self._blob_ok,
        )
        self._queue_depth = 0  # service-loop backlog, sampled per drain
        self.metrics.bind_gauge("daemon.queue_depth", self, "_queue_depth")
        # path → (the backend object last hashed clean for a peer, the
        # digest it matched); see _verified_local. Each entry states a
        # fact that cannot go stale (an immutable object matched a
        # digest), so racing writers cost at most a re-hash: no lock.
        self._hashed: dict[str, tuple[Any, int]] = {}
        self._membership: FailureDetector | None = None
        self._repair_durations: list[float] = []
        self._rereplication_lock = threading.Lock()  # the two sets below
        # convictions whose re-replication was frozen (no quorum at the
        # time); heal reconciliation catches them up
        self._frozen_corpses: set[int] = set()
        # corpses this rank already ran a re-replication pass for —
        # heal catch-up must not double-stage what on_rank_dead did
        self._rereplicated_for: set[int] = set()
        #: crash-consistent durability (PR 8): when a journal directory
        #: is configured, every local-store mutation goes intent →
        #: atomic apply → commit through :meth:`_durable_put`, and
        #: :meth:`load`/:meth:`load_rejoin` run restart recovery
        #: (:meth:`Journal.recover`) before ingesting anything. ``None``
        #: journal = legacy fire-and-forget (RAM backends, where nothing
        #: survives the process anyway).
        self._journal_dir = journal_dir
        self._journal_config = journal_config
        self.journal: Journal | None = None
        self.jstats = JournalStats()
        self.jstats.bind(self.metrics)

    # -- loading ----------------------------------------------------------

    def _assigned_partitions(self, num_partitions: int) -> list[int]:
        """Round-robin partition→rank assignment (§V-D: rank determines
        which partitions to load)."""
        return [p for p in range(num_partitions) if p % self.size == self.rank]

    def _charge_capacity(self, nbytes: int, what: str) -> None:
        self._loaded_bytes += nbytes
        cap = self.config.capacity_bytes
        if cap is not None and self._loaded_bytes > cap:
            raise CapacityError(
                f"rank {self.rank}: loading {what} exceeds the "
                f"{cap}-byte burst buffer ({self._loaded_bytes} needed)"
            )

    def _ingest_partition(self, partition_path, home_rank: int) -> int:
        """Ingest one partition file; returns payload bytes ingested.
        How they become readable is the backend's business: loaded into
        RAM, one blob each on local disk, or left inside the partition
        file (the paper's SSD mode)."""
        entries = self.backend.ingest(partition_path)
        self.metadata.insert_entries(entries, home_rank)
        return partition_payload_bytes(entries)

    def load(self, prepared: PreparedDataset) -> None:
        """Stage the prepared dataset: what :meth:`load_rejoin` stages
        off the shared FS (local and broadcast partitions, after crash
        recovery), then the two collectives a rejoiner cannot run —
        extra partitions from the ring neighbor and the metadata
        allgather."""
        self.load_rejoin(prepared)
        if self.comm is not None:
            self._replicate_extra_partitions()
            self._metadata_allgather()

    def _replicate_extra_partitions(self) -> None:
        """§V-D site 2: extra partitions are copied from the left ring
        neighbor rather than re-read off the shared file system. Each
        hop ships (path, compressed bytes, record) tuples."""
        budget = self.config.extra_partition_budget
        if budget <= 0:
            return
        comm = self.comm
        assert comm is not None
        block = [
            (rec.path, self.backend.get(rec.path), rec)
            for rec in self.metadata.local_records(self.rank)
            if not rec.is_broadcast
        ]
        left = (comm.rank - 1) % comm.size
        right = (comm.rank + 1) % comm.size
        current = block
        for _hop in range(min(budget, comm.size - 1)):
            comm.send(current, right, TAG_DAEMON + 1)
            current = comm.recv(left, TAG_DAEMON + 1,
                                timeout=self.config.request_timeout)
            nbytes = 0
            for path, data, _rec in current:
                self.backend.put(path, data)
                self._replicated_paths.append(path)
                nbytes += len(data)
            self._charge_capacity(nbytes, "extra partition")

    def _metadata_allgather(self) -> None:
        """§IV-C1: one allgather builds the identical global view on
        every node. Records keep their *home* rank so remote fetches
        know where to go; each rank also announces the replica copies it
        acquired during ring replication, so a fetch whose home rank has
        died can fail over to a surviving copy."""
        comm = self.comm
        assert comm is not None
        mine = self.metadata.local_records(self.rank)
        contributions = comm.allgather(
            (mine, list(self._replicated_paths)),
            timeout=_LOAD_COLLECTIVE_TIMEOUT,
        )
        for sender, (records, replicated) in enumerate(contributions):
            self.metadata.merge(records)
            for path in replicated:
                self.metadata.add_replica(path, sender)

    # -- membership (self-healing) ------------------------------------------

    def attach_membership(self, detector: FailureDetector) -> None:
        """Wire a failure detector to this daemon: conviction triggers
        re-replication, re-admission re-announces replicas, and the
        detector's join/promotion endpoints are backed by this daemon's
        metadata snapshot and verification read."""
        self._membership = detector
        detector.on_dead = self.on_rank_dead
        detector.on_alive = self.on_rank_alive
        detector.on_isolated = self.on_isolated
        detector.on_reconnected = self.reconcile_after_heal
        detector.verify_read = self.verification_read
        detector.join_snapshot = self.membership_snapshot

    def current_view(self) -> ClusterView | None:
        """Snapshot of the membership view (None when not attached)."""
        det = self._membership
        return det.view if det is not None else None

    def _view_epoch(self) -> int:
        det = self._membership
        return det.epoch if det is not None else 0

    def _fence_token(self) -> int | None:
        """The fencing token stamped on outgoing requests: this rank's
        membership view epoch, or None when fencing is off / no detector
        is attached (the server then serves the request unfenced)."""
        if not self.config.epoch_fencing or self._membership is None:
            return None
        return self._view_epoch()

    def _stale_epoch(self, epoch: int | None) -> bool:
        """Server-side fencing check for a mutating request: True when
        the sender stamped a view epoch older than ours. Unfenced
        senders (no token: fencing disabled, or no detector attached)
        are never fenced — fencing protects against *known* staleness,
        not missing information."""
        if not self.config.epoch_fencing or self._membership is None:
            return False
        return epoch is not None and epoch < self._view_epoch()

    def _skip_reason(self, peer: int) -> str | None:
        """The one answer to "may I ask rank ``peer``?" — ``None`` is
        yes, else why not: ``"convicted"`` (the view holds it DEAD until
        :meth:`on_rank_alive` or a heal) or ``"breaker"`` (open, until
        the cool-off lets a probe through). Every asker calls this once
        per decision: a half-open breaker's yes is counted as the probe."""
        det = self._membership
        if det is not None and det.is_dead(peer):
            return "convicted"
        if not self.health.allow(peer):
            return "breaker"
        return None

    def _on_breaker_open(self, peer: int) -> None:
        self.stats.breaker_opens += 1

    def _on_breaker_probe(self, peer: int) -> None:
        self.stats.breaker_probes += 1

    def on_rank_dead(self, rank: int, view: ClusterView) -> None:
        """Membership callback: ``rank`` was convicted DEAD.

        Every surviving rank computes the *same* deterministic
        reassignment plan (pure function of the converged metadata +
        view) and commits it to its own table, so routing converges
        without coordination messages. The designated stage rank of each
        step additionally copies the payload from a surviving copy
        holder — shared-FS degraded read as the floor — digest-verifies
        it, and lands it in its backend, restoring the replication
        factor. Counted in ``rereplicated_records`` and
        ``mean_time_to_repair``.
        """
        det = self._membership
        if det is not None and (det.isolated or not det.has_quorum()):
            # No quorum behind this conviction: re-replicating now is
            # how a split cluster turns into a replication storm (both
            # sides "restoring" partitions the other side still holds).
            # Freeze the work; heal reconciliation catches it up if the
            # conviction survives the merged view.
            self.stats.rereplications_frozen += 1
            with self._rereplication_lock:
                self._frozen_corpses.add(rank)
            return
        # reconcile the breaker with the view: a conviction outranks
        # whatever the latency tracker believed
        self.health.force_open(rank)
        with self._rereplication_lock:
            self._frozen_corpses.discard(rank)
            self._rereplicated_for.add(rank)
        started = time.monotonic()
        plan = self.metadata.plan_rereplication(
            rank, view.non_dead_ranks(), self.size
        )
        restored = 0
        failed = 0
        for step in plan:
            if step.stage_rank != self.rank:
                continue
            if step.path in self.backend:
                restored += 1  # already held (e.g. an unannounced copy)
                continue
            if self._stage_copy(step) is None:
                failed += 1
            else:
                restored += 1
        self.metadata.apply_rereplication(plan, rank)
        self.stats.rereplicated_records += restored
        self.stats.rereplication_failed += failed
        det = self._membership
        t0 = started
        if det is not None and det.clock is time.monotonic:
            t0 = det.detected_at.get(rank, started)
        self._repair_durations.append(time.monotonic() - t0)
        self.stats.mean_time_to_repair = sum(self._repair_durations) / len(
            self._repair_durations
        )

    def _stage_copy(self, step: RereplicationStep) -> bytes | None:
        """Fetch one lost record's bytes from a surviving copy holder
        (shared-FS degraded read as the floor), digest-verify them, and
        land them in the local backend. Returns the bytes, or None when
        every source failed."""
        record = self.metadata.get(step.path)
        for source in step.source_ranks:
            if source == self.rank or self._skip_reason(source):
                continue
            try:
                data = self._peer_fetch(
                    step.path, record, source, attempts=_FAILOVER_ATTEMPTS
                )
            except RankDeadError:
                continue
            if data is not None:
                self._durable_put("rereplicate", step.path, data)
                return data
        # _degraded_read verifies and promotes into the backend itself
        return self._degraded_read(step.path, record)

    def on_rank_alive(self, rank: int) -> None:
        """Membership callback: ``rank`` was re-admitted. Its rejoin
        re-staged its original round-robin partitions off the shared FS,
        so every rank deterministically announces it as a replica for
        those records. Ownership stays with the post-repair homes —
        handing primaries back would churn routing for no benefit."""
        with self._rereplication_lock:
            # a live rank owes nobody a re-replication: drop any frozen
            # conviction and forget the completed pass so a *future*
            # death gets a fresh one
            self._frozen_corpses.discard(rank)
            self._rereplicated_for.discard(rank)
        # re-admission half-opens the breaker: the first fetch at the
        # rejoiner is a probe, not a leap of faith
        self.health.half_open(rank)
        for rec in self.metadata.records():
            if rec.is_broadcast:
                continue
            if rec.partition_id % self.size == rank and rec.home_rank != rank:
                self.metadata.add_replica(rec.path, rank)

    def on_isolated(self) -> None:
        """Membership callback: this rank lost quorum (minority side of
        a partition). Nothing to tear down — reads keep serving from
        local partitions and the degraded shared-FS floor, and the
        detector itself freezes convictions; this hook exists so
        operators see the transition in the log stream."""
        _LOG.warning(
            "rank %d: ISOLATED — no membership quorum; convictions and "
            "re-replication frozen, reads continue degraded", self.rank,
        )

    def reconcile_after_heal(self, view: ClusterView) -> None:
        """Membership callback: this rank regained quorum after an
        isolation episode — the partition healed and the gossip views
        merged. Anti-entropy pass:

        1. open circuit breakers are half-opened (the links are
           plausibly back — probe, don't assume);
        2. convictions frozen during isolation are caught up *if* the
           merged view still holds them DEAD (a rank the majority
           revived owes nobody a re-replication);
        3. backend copies this rank holds but is neither home for nor an
           announced replica of — split-era duplicates and old promoted
           copies — are garbage-collected;
        4. every record this rank is responsible for is digest-verified
           (and repaired through the failover ladder) by one scrubber
           pass, so divergent placements reconverge digest-clean.

        Counted in ``replication.reconciled_records`` /
        ``replication.duplicate_replicas_dropped``; the whole pass is
        one ``daemon.heal.reconcile`` trace span.
        """
        with self.tracer.maybe_root("daemon.heal.reconcile",
                                    epoch=view.epoch) as span:
            with self._rereplication_lock:
                frozen = sorted(self._frozen_corpses)
                self._frozen_corpses.clear()
            for peer in self.health.open_peers():
                self.health.half_open(peer)
            caught_up = 0
            for rank in frozen:
                with self._rereplication_lock:
                    done = rank in self._rereplicated_for
                if done or view.state(rank) != RankState.DEAD:
                    continue
                self.on_rank_dead(rank, view)
                caught_up += 1
            dropped = 0
            for rec in self.metadata.records():
                if rec.is_broadcast or rec.home_rank == self.rank:
                    continue
                if rec.path not in self.backend:
                    continue
                if self.rank in self.metadata.replica_ranks(rec.path):
                    continue
                if self.backend.discard(rec.path):
                    self.cache.discard(rec.path)
                    self._hashed.pop(rec.path, None)
                    dropped += 1
            self.stats.duplicate_replicas_dropped += dropped
            # lazy import: repro.fanstore.scrub imports this module
            from repro.fanstore.scrub import Scrubber

            report = Scrubber(self, repair=True).run()
            self.stats.reconciled_records += report.scanned
            span.tag(
                caught_up=caught_up,
                duplicates_dropped=dropped,
                scrub_clean=report.clean,
            )

    def verification_read(self, joiner: int) -> bool:
        """Promotion gate (peer side): fetch one record the joiner must
        hold — the first of its round-robin partition — straight from
        its daemon and digest-verify the bytes. A rank that cannot serve
        a verified read does not get promoted. No candidate record means
        there is nothing to verify — admit."""
        candidates = [
            rec for rec in self.metadata.records()
            if not rec.is_broadcast
            and rec.partition_id % self.size == joiner
        ]
        if not candidates:
            return True
        record = min(candidates, key=lambda r: r.path)
        try:
            data = self._peer_fetch(record.path, record, joiner, attempts=1)
        except RankDeadError:
            return False
        return data is not None

    def membership_snapshot(
        self,
    ) -> tuple[list[FileRecord], dict[str, tuple[int, ...]]]:
        """Join payload (peer side): the full record list plus the
        replica map — everything a relaunched rank needs to rebuild what
        the load-time allgather originally gave it, *including* any
        post-repair ownership changes."""
        records = self.metadata.records()
        replicas = {
            rec.path: self.metadata.replica_ranks(rec.path) for rec in records
        }
        return records, replicas

    def apply_membership_snapshot(
        self, snapshot: tuple[list[FileRecord], dict[str, tuple[int, ...]]]
    ) -> None:
        """Joiner side: adopt a live peer's metadata wholesale (it is
        authoritative — it reflects any re-homing done while this rank
        was dead or partitioned away), then announce the copies of this
        rank's own round-robin partitions it physically holds as
        replicas — the *same* deterministic rule every peer applies in
        :meth:`on_rank_alive`, so both sides of the announcement
        converge without a message. Copies held beyond that rule
        (split-era duplicates, old degraded-read promotions) are
        deliberately *not* announced; :meth:`reconcile_after_heal`
        garbage-collects them."""
        records, replicas = snapshot
        for rec in records:
            self.metadata.insert(rec)
            # Replace, not union: a partition survivor's own stale
            # entries (e.g. itself as holder of a duty re-homed during
            # the split) must not outlive the adoption.
            self.metadata.set_replicas(rec.path, replicas.get(rec.path, ()))
        for rec in records:
            if rec.is_broadcast:
                continue
            if (
                rec.partition_id % self.size == self.rank
                and rec.home_rank != self.rank
                and rec.path in self.backend
            ):
                self.metadata.add_replica(rec.path, self.rank)

    def load_rejoin(self, prepared: PreparedDataset) -> None:
        """Re-stage this rank's round-robin partitions off the shared FS
        without any collective: a rejoiner cannot allgather (the
        original cohort's collective sequence has moved on), so its
        bytes come from the shared FS and its metadata from the join
        snapshot applied afterwards."""
        # crash recovery first: adopted client outputs must be in the
        # table before anything announces this rank's holdings
        if self._journal_dir is not None and self.journal is None:
            self.journal, outputs = Journal.recover(
                self._journal_dir, self.backend,
                config=self._journal_config, stats=self.jstats,
                tracer=self.tracer,
            )
            for rec in outputs:
                self.metadata.insert(rec)
        self._prepared = prepared  # kept for degraded shared-FS re-reads
        assigned = self._assigned_partitions(len(prepared.partitions))
        partition_paths = prepared.partition_paths()
        for pid in assigned:
            nbytes = self._ingest_partition(partition_paths[pid], self.rank)
            self._charge_capacity(nbytes, f"partition {pid}")
        bcast = prepared.broadcast_path()
        if bcast is not None:
            nbytes = self._ingest_partition(bcast, self.rank)
            self._charge_capacity(nbytes, "broadcast partition")

    def export_ownership(self) -> dict:
        """JSON-ready ownership map (view epoch + per-path home and
        replicas) for offline tooling: ``fanstore-inspect --repair``
        must consult post-re-replication owners, not the original
        layout, so integrity repair and membership repair compose."""
        return {
            "epoch": self._view_epoch(),
            "rank": self.rank,
            "files": {
                rec.path: {
                    "home": rec.home_rank,
                    "replicas": list(self.metadata.replica_ranks(rec.path)),
                }
                for rec in self.metadata.records()
            },
        }

    # -- durability (write-ahead journal) ------------------------------------

    def _durable_put(
        self,
        op: str,
        norm: str,
        data: bytes,
        *,
        record: FileRecord | None = None,
    ) -> None:
        """Install ``data`` for ``norm`` so the caller may acknowledge
        it: :meth:`Journal.put` (intent → atomic apply → commit), or a
        plain backend put with no journal configured (legacy
        fire-and-forget)."""
        # the new object is hashed at its first serve anyway; dropping
        # the old one's trust entry lets its bytes go with it
        self._hashed.pop(norm, None)
        if self.journal is None:
            self.backend.put(norm, data)
        else:
            self.journal.put(
                op, norm, data, epoch=self._view_epoch(), record=record
            )

    # -- service loop -------------------------------------------------------

    def start(self) -> None:
        """Start answering peer requests (no-op single-node)."""
        if self.journal is not None and self.journal.closed:
            # a restart after stop(): the closed journal's live state
            # is already consistent, nothing to recover
            self.journal = self.journal.reopen()
        if self.comm is None or self._service_thread is not None:
            return
        self._service_thread = threading.Thread(
            target=self._serve, name=f"fanstore-daemon-{self.rank}", daemon=True
        )
        self._service_thread.start()

    def stop(self) -> None:
        """Stop the service loop (idempotent). Shutdown gets its own
        bounded budget (:data:`_SHUTDOWN_TIMEOUT`). A service thread
        that misses it is logged and leaked: it is a daemon thread, so
        it cannot outlive the process."""
        if self.journal is not None:
            self.journal.close()
        if self.comm is None or self._service_thread is None:
            return
        self.comm.send(("stop", None), self.rank, TAG_DAEMON)
        thread = self._service_thread
        thread.join(timeout=_SHUTDOWN_TIMEOUT)
        if thread.is_alive():
            _LOG.warning(
                "rank %d: daemon service thread still running %.1fs after "
                "stop; leaking it (daemon thread — dies with the process)",
                self.rank, _SHUTDOWN_TIMEOUT,
            )
        self._service_thread = None

    def _serve(self) -> None:
        """The event loop of the pipelined scheduler. The loop itself
        only *admits* (recv → parse → bounded queue, shedding overflow)
        and *dispatches*; the actual serving — digest verify, backend
        reads, codec work — happens on a pool of
        :data:`~repro.fanstore.pipeline.PIPELINE_WORKERS` threads,
        bounded by :data:`~repro.fanstore.pipeline.MAX_INFLIGHT`, so the
        loop never blocks on one slow request and admission control
        stays live under load. A request that finds the daemon idle is
        served on this thread."""
        comm = self.comm
        assert comm is not None
        queue = AdmissionQueue(self.config.max_queue_depth)
        pool = ThreadPoolExecutor(
            max_workers=PIPELINE_WORKERS,
            thread_name_prefix=f"fanstore-pipe-{self.rank}",
        )
        slots = threading.BoundedSemaphore(MAX_INFLIGHT)
        stop = threading.Event()

        def drain() -> bool:
            """Admit what already arrived; True when the loop must exit."""
            while True:
                try:
                    msg = comm.try_recv(ANY_SOURCE, TAG_DAEMON)
                except (CommClosedError, CommError):
                    return True
                if msg is None:
                    return False
                if self._admit(queue, msg):
                    return True

        try:
            while True:
                if not len(queue):
                    try:
                        msg = comm.recv_with_status(
                            ANY_SOURCE, TAG_DAEMON, timeout=None
                        )
                    except (CommClosedError, CommError):
                        return
                    if self._admit(queue, msg):
                        return
                # Drain whatever else already arrived before serving:
                # admission control can only shed backlog it can see,
                # and a burst must not be served strictly
                # one-recv-at-a-time.
                if drain():
                    return
                depth = len(queue)
                self._queue_depth = depth
                entry = queue.pop()
                if entry is None:
                    continue
                # Uncontended fast path: nothing in flight and nothing
                # queued behind this entry means a pool hop buys no
                # overlap — serve on the loop thread and skip the
                # submit/wakeup cost. The reads of ``_inflight`` are
                # racy on purpose — a stale nonzero just takes the pool
                # path, a concurrent drain-to-zero just serves inline.
                if self._inflight == 0 and depth == 1:
                    if not self._serve_one(entry):
                        return
                    continue
                # In-flight bound: while the pool is saturated, keep
                # draining + shedding the mailbox instead of blocking —
                # a stalled pool must not take admission control down
                # with it.
                while not slots.acquire(timeout=0.02):
                    if stop.is_set() or drain():
                        return
                if stop.is_set():
                    slots.release()
                    return
                self._m_dispatched.inc()
                self._inflight += 1
                pool.submit(self._serve_async, entry, slots, stop)
        finally:
            pool.shutdown(wait=False)

    def _serve_async(
        self,
        entry: tuple,
        slots: threading.BoundedSemaphore,
        stop: threading.Event,
    ) -> None:
        """One pooled request: serve it, then free its in-flight slot.
        A terminal serve outcome (world teardown) flips ``stop`` so the
        dispatch loop exits at its next slot acquisition."""
        try:
            if not self._serve_one(entry):
                stop.set()
        finally:
            self._inflight -= 1
            slots.release()

    def _admit(self, queue: AdmissionQueue, msg: tuple) -> bool:
        """Parse one envelope into the admission queue, shedding
        overflow with overload replies. Returns True when the service
        loop must exit (stop request, or the world tore down under a
        shed reply).

        A malformed message must not kill the service loop — the daemon
        outlives misbehaving clients (it answers to every peer, not just
        the sender). Bodies decode through
        :func:`repro.fanstore.wire.decode_request`; anything that is
        not a request envelope is malformed.
        A batch envelope is admitted against the *earliest* of its
        items' deadlines: the whole flush is droppable only once every
        waiter behind it has walked away.
        """
        payload, source, _tag = msg
        try:
            kind, body = payload
        except (TypeError, ValueError):
            self.stats.malformed_requests += 1
            return False
        if kind == "stop":
            return True
        if kind not in ("fetch", "stat", "write_meta", "batch"):
            self.stats.malformed_requests += 1
            return False
        try:
            request = decode_request(body)
        except (WireFormatError, TypeError, ValueError):
            self.stats.malformed_requests += 1
            return False
        deadline_at = request.deadline
        if kind == "batch" and request.batch:
            item_expiries = [
                wire_deadline(item[2])
                for item in request.batch
                if isinstance(item, tuple) and len(item) == 3
            ]
            live = [at for at in item_expiries if at is not None]
            if live and len(live) == len(item_expiries):
                # per-item expiry is enforced inside _serve_batch; the
                # envelope itself is dead only once its *last* waiter is
                deadline_at = max(live)
        entry = (kind, request, source)
        shed = queue.push(entry, deadline_at)
        overloaded = (Reply.OVERLOAD, OVERLOAD_RETRY_AFTER_S)
        for _, victim, victim_source in shed:
            self.stats.shed_requests += 1
            try:
                self.comm.send(overloaded, victim_source, victim.reply_tag)
            except (CommClosedError, CommError):
                return True
        return False

    def _serve_one(self, entry: tuple) -> bool:
        """Serve one admitted request — a batch envelope with one batch
        reply, anything else with its :meth:`_answer` (if any), on the
        request's reply tag. False ends the service loop.

        An untraced request enters no span. A traced one is answered
        inside the span adopted from the requester's context, entered
        and exited by hand so both cases share the answering lines: an
        exception leaving them marks the span as ``with`` would."""
        kind, request, source = entry
        deadline_at = request.deadline
        if deadline_at is not None and time.monotonic() >= deadline_at:
            # the requester has already timed out and walked away:
            # serving — or even refusing — would be work for nobody
            self.stats.deadline_expired_drops += 1
            return True
        span = NULL_SPAN
        try:
            if request.trace_ctx is not None:
                # Joining the requester's trace: a malformed context
                # yields NULL_SPAN, never an error — tracing must not
                # change what gets served.
                span = self.tracer.adopt(
                    request.trace_ctx, f"daemon.serve.{kind}", source=source
                )
                if kind in ("fetch", "stat"):
                    span.tag(path=request.subject)
                span.__enter__()
            try:
                if kind == "batch":
                    self._serve_batch(request, source)
                else:
                    answer = self._answer(
                        kind, request.subject, request.epoch, span
                    )
                    if answer is not None:
                        self.comm.send(answer, source, request.reply_tag)
            finally:
                if span is not NULL_SPAN:
                    span.__exit__(*sys.exc_info())
        except (CommClosedError, CommError):
            # replying to a torn-down world (or after our own
            # injected death) ends the service loop — a crashed
            # daemon stops serving
            return False
        except (FanStoreError, TypeError, ValueError, AttributeError):
            # a well-framed envelope around a nonsense subject (bad
            # path type, bogus write_meta record) is still malformed
            self.stats.malformed_requests += 1
        return True

    def _answer(
        self, kind: str, subject: Any, epoch: int | None, span: Any
    ) -> tuple[str, Any] | None:
        """The ``(status, value)`` reply to one ``fetch`` / ``stat`` /
        ``write_meta``, for a classic request and a batch item alike.
        ``None`` is the deliberate silence for bytes that failed
        verification and could not be self-repaired — never served; the
        classic requester times out and walks its own failover
        (replicas, shared FS), a batch item is told ``FAILED`` so only
        its waiter falls back."""
        if kind == "fetch":
            self.stats.served_requests += 1
            try:
                return Reply.OK, self._verified_local(subject, serve=True)
            except FileNotFoundInStoreError:
                return Reply.MISS, subject
            except DataIntegrityError:
                span.tag(unrepairable=True)
                return None
        if kind == "stat":
            try:
                return Reply.OK, self.metadata.get(subject)
            except FileNotFoundInStoreError:
                return Reply.MISS, None
        # write_meta
        if self._stale_epoch(epoch):
            # a mutation decided under a pre-partition view: fence it
            # off rather than let a healed minority clobber majority
            # state
            self.stats.fenced_rejects += 1
            span.tag(fenced=True)
            return Reply.FENCED, self._view_epoch()
        self.metadata.insert(subject)
        return Reply.OK, None

    def _serve_batch(self, request: Request, source: int) -> None:
        """Serve one batched flush: every item in order, each with its
        own deadline check and error isolation (one poisoned item fails
        only its own waiter), answered as a single batch reply on the
        envelope's tag."""
        replies = [
            self._serve_batch_item(item) for item in (request.batch or ())
        ]
        self._m_batch_served.inc()
        self.comm.send(
            encode_batch_reply(replies), source, request.reply_tag
        )

    def _serve_batch_item(self, item: Any) -> Reply:
        """One batch item → one item reply; never raises (comm errors
        excepted — those belong to the envelope send)."""
        try:
            kind, subject, expiry = item
        except (TypeError, ValueError):
            self.stats.malformed_requests += 1
            return Reply(Reply.FAILED, None)
        try:
            expiry = wire_deadline(expiry)
            if expiry is not None and time.monotonic() >= expiry:
                self.stats.deadline_expired_drops += 1
                return Reply(Reply.EXPIRED, subject)
            if kind not in ("fetch", "stat"):
                # mutating kinds never batch (write_meta needs fencing)
                self.stats.malformed_requests += 1
                return Reply(Reply.FAILED, None)
            answer = self._answer(kind, subject, None, NULL_SPAN)
            if answer is None:
                return Reply(Reply.FAILED, subject)
            return Reply(*answer)
        except (FanStoreError, TypeError, ValueError, AttributeError):
            self.stats.malformed_requests += 1
            return Reply(Reply.FAILED, None)

    # -- data path ------------------------------------------------------------

    def fetch_many(
        self, paths: Iterable[str]
    ) -> dict[str, tuple[FileRecord, bytes]]:
        """The caller-supplied batching feeder: ``paths`` grouped by
        home rank, one ``batch`` envelope per :data:`BATCH_MAX` of a
        healthy peer's paths, every returned blob digest-checked
        against the record probed here. Returns ``{path: (record,
        verified blob)}`` for what the envelopes settled — possibly
        nothing. Everything else is the caller's to read one file at a
        time through :meth:`open_file` and its full ladder; which paths
        are never batched, and why a doubtful item is simply left out,
        is stated once in ``docs/daemon-pipeline.md`` §3."""
        if (
            self.comm is None
            or self.config.hedge_reads
            or self._trace_opens
            or self.tracer.n_active
        ):
            return {}
        by_home: dict[int, dict[str, FileRecord]] = {}
        for path in paths:
            record = self.metadata.probe(path)
            if (
                record is not None
                and record.home_rank != self.rank
                and path not in self.backend
                and path not in self.cache
            ):
                by_home.setdefault(record.home_rank, {})[path] = record
        fetched: dict[str, tuple[FileRecord, bytes]] = {}
        for home, records in by_home.items():
            wanted = list(records.items())
            for start in range(0, len(wanted), BATCH_MAX):
                group = wanted[start : start + BATCH_MAX]
                if (
                    len(group) < 2  # a classic request with extra framing
                    or self._skip_reason(home)
                ):
                    break
                deadline = self._budget()
                replies = self.exchange.ask_many(
                    home, [("fetch", path, deadline) for path, _ in group]
                )
                unsettled = len(group)
                for (path, record), (status, blob) in zip(
                    group, replies or ()
                ):
                    if (
                        status == Reply.OK
                        and isinstance(blob, (bytes, bytearray, memoryview))
                        and self._blob_ok(record, blob)
                    ):
                        self.stats.remote_fetches += 1
                        self.stats.remote_bytes += len(blob)
                        fetched[path] = (record, blob)
                        unsettled -= 1
                if unsettled:
                    self.exchange.count_fallbacks(unsettled)
                if replies is None:
                    # a lost envelope: the rest of this home's paths go
                    # through the ladder one by one, like its own
                    break
        return fetched

    def _budget(self) -> Deadline | None:
        """A fresh ``config.request_deadline`` budget (None: unbounded)."""
        budget = self.config.request_deadline
        return None if budget is None else Deadline.after(budget)

    def _lookup(self, norm: str, deadline: Deadline | None) -> FileRecord:
        """Metadata lookup with the runtime-output fallback: paths
        written after the load-time allgather live only on their writer
        and the hash owner, so a local miss asks the owner — spending
        from the read's ``deadline`` — and caches the record."""
        try:
            return self.metadata.get(norm)
        except FileNotFoundInStoreError:
            record = self._stat_owner(norm, deadline)
            if record is None:
                raise
            self.metadata.insert(record)
            return record

    def _blob_ok(self, record: FileRecord, data: bytes) -> bool:
        """Digest check of compressed bytes against the record; passes
        when verification is off or no digest was recorded.

        Verification time accumulates into ``_last_verify_s`` while an
        observed miss (:meth:`_observed_miss_bytes`) has it set to a
        number, so the verify phase histogram captures every digest
        check the fetch ladder did for that read (a failover verifies at
        each tier); an unobserved check reads no clock."""
        stat = record.stat
        if not self.config.verify_reads or not stat.flags & FLAG_HAS_DIGEST:
            return True
        # one read of the accumulator: another thread's observed miss
        # may reset it to None at any moment
        verify_s = self._last_verify_s
        if verify_s is None:
            return blob_crc32(data) == stat.crc32
        t0 = time.perf_counter()
        ok = blob_crc32(data) == stat.crc32
        self._last_verify_s = verify_s + (time.perf_counter() - t0)
        return ok

    def _hashed_before(self, norm: str, data: Any, crc: int) -> bool:
        """True when ``data`` is the very object this rank last hashed
        clean for a peer's fetch of ``norm``, against the digest ``crc``."""
        seen = self._hashed.get(norm)
        return seen is not None and seen[0] is data and seen[1] == crc

    def _verified_local(
        self, norm: str, record: FileRecord | None = None, *, serve: bool = False
    ) -> bytes:
        """Local backend bytes, digest-checked; a corrupt copy is
        quarantined and self-repaired through the failover ladder.
        Raises :class:`DataIntegrityError` when unrepairable and
        :class:`FileNotFoundInStoreError` when simply absent.

        ``serve`` marks a peer's fetch, whose requester hashes the bytes
        again on arrival. There an object from a backend that
        :attr:`~repro.fanstore.backend.Backend.hands_out_stored` is
        hashed once and then trusted by identity: stored objects are
        immutable and every ``put`` installs a new one, so the same
        object under the same digest is the same content. A local read
        is the end-to-end check and hashes every time."""
        if record is None:
            try:
                record = self.metadata.get(norm)
            except FileNotFoundInStoreError:
                return self.backend.get(norm)
        try:
            data = self.backend.get(norm)
        except DataIntegrityError:
            # the backend itself flagged the bytes (torn partition file)
            return self.repair(norm, record)
        if serve and self._hashed_before(norm, data, record.stat.crc32):
            return data
        if self._blob_ok(record, data):
            if serve and self.backend.hands_out_stored:
                self._hashed[norm] = (data, record.stat.crc32)
            return data
        return self.repair(norm, record)

    def fetch_compressed(
        self, path: str, *, deadline: Deadline | None = None
    ) -> bytes:
        """Compressed bytes for ``path`` — locally, from the home rank
        (hedged at a replica when enabled), from a surviving replica, or
        (degraded mode) re-read off the shared FS (§IV-C2, Figure 2;
        failover ladder home → replicas → partition file). Every tier's
        bytes are digest-verified before they are accepted; a mismatch
        anywhere descends the ladder. One
        :class:`~repro.comm.deadline.Deadline` (the caller's, or a fresh
        one from ``config.request_deadline``) budgets the whole ladder:
        tiers spend from it rather than stacking timeouts, and a spent
        budget surfaces as :class:`DeadlineExpiredError`.

        The public entry for *direct* callers — ``normalize`` +
        :meth:`_fetch_ladder`, nothing more. Readers come through
        :meth:`open_file`, whose miss is the cache's one in-flight
        computation of its key and walks the ladder itself."""
        return self._fetch_ladder(normalize(path), deadline)

    def _fetch_ladder(
        self,
        norm: str,
        deadline: Deadline | None = None,
        record: FileRecord | None = None,
    ) -> bytes:
        """The failover ladder itself (``norm`` canonical): local copy,
        else the home rank, else — for exactly one recorded reason —
        the :meth:`_failover` walk. A cache-miss leader carries the
        ``record`` its open resolved."""
        if record is None:
            if deadline is None:
                deadline = self._budget()
            record = self._lookup(norm, deadline)
        if (
            record.home_rank == self.rank
            or self.comm is None
            or norm in self.backend  # replicated via an extra partition
        ):
            self.stats.local_opens += 1
            return self._verified_local(norm, record)
        # _budget() inlined: the lone remote read makes no call for it
        if deadline is None and self.config.request_deadline is not None:
            deadline = Deadline.after(self.config.request_deadline)
        home = record.home_rank
        # why the home is left: its own failure, or why it was skipped
        failure: Exception | None = None
        skipped = self._skip_reason(home)
        if skipped is not None:
            # straight to the failover tiers, not a single timeout spent
            # on the home (still a failover: the fetch did leave it)
            self.stats.breaker_skips += 1
            self.tracer.tag_current(skipped=skipped)
        else:
            try:
                # a plain retried request (batched when the destination
                # is busy), or — with ``hedge_reads`` on and a replica
                # to hedge at — a hedged one, never batched: a hedge is
                # a latency bet, and parking it behind a flush would
                # forfeit it
                replicas = (
                    self._replica_order(norm, record)
                    if self.config.hedge_reads else None
                )
                if replicas:
                    status, data = self.exchange.ask_hedged(
                        norm, record, replicas[0], deadline
                    )
                else:
                    status, data = self.exchange.ask_batched(
                        "fetch", norm, home, deadline=deadline
                    )
            except RetryExhaustedError as exc:
                self.health.force_open(home)  # the next read skips it
                failure = exc
            except ServerOverloadedError as exc:
                # overload is pressure, not death: don't poison routing
                failure = exc
            else:
                if status != Reply.OK:
                    # authoritative not-found from a live home: no failover
                    raise FileNotFoundInStoreError(norm)
                self.stats.remote_fetches += 1
                self.stats.remote_bytes += len(data)
                if self._blob_ok(record, data):
                    return data
                # the home rank served corrupt bytes (and could not
                # self-heal): same quarantine + walk as a corrupt local
                # copy, on what is left of this read's budget
                return self.repair(norm, record, deadline=deadline)
        self.stats.failovers += 1
        data = self._failover(norm, record, deadline)
        if data is None:
            raise failure or RetryExhaustedError(
                f"rank {self.rank}: fetch of {norm} skipped home rank "
                f"{home} ({skipped}, tag {TAG_DAEMON:#x}) and no replica "
                "or shared-FS copy answered",
                path=norm,
            )
        return data

    def repair(
        self,
        path: str,
        record: FileRecord | None = None,
        *,
        deadline: Deadline | None = None,
    ) -> bytes:
        """Quarantine a corrupt copy of ``path`` and re-fetch verified
        bytes: the home rank re-asked (when remote), then the
        :meth:`_failover` walk. On success the good bytes replace the
        corrupt copy in the backend and any cached plaintext is
        discarded; on failure the corruption is unrepairable and a typed
        :class:`DataIntegrityError` naming the path is raised. Counts
        ``corruption_detected`` / ``corruption_repaired``. Budgeted like
        any read: by the ``deadline`` of the ladder that found the
        corruption, else (corrupt local copy, scrubber) by a fresh
        ``config.request_deadline`` when one is set."""
        norm = normalize(path)
        # Re-resolve the record even when the caller supplied one: after
        # a membership repair the authoritative home may have *moved*,
        # and healing against the stale owner would race the
        # re-replication engine (the caller's copy is kept only for
        # paths that have since left the table).
        if deadline is None:
            deadline = self._budget()
        try:
            record = self._lookup(norm, deadline)
        except FileNotFoundInStoreError:
            if record is None:
                raise
        self.stats.corruption_detected += 1
        self.cache.discard(norm)
        with self.tracer.span("daemon.repair", path=norm) as span:
            data: bytes | None = None
            home = record.home_rank
            if (
                self.comm is not None
                and home != self.rank
                and not self._skip_reason(home)
            ):
                try:
                    data = self._peer_fetch(
                        norm, record, home, deadline=deadline
                    )
                except (DeadlineExpiredError, RankDeadError):
                    pass  # no budget (or no life) left for peers: walk on
            if data is None:
                data = self._failover(norm, record, deadline)
            if data is None:
                span.tag(repaired=False)
                raise DataIntegrityError(
                    norm,
                    "compressed payload failed digest verification and no "
                    "replica or shared-FS copy could repair it",
                )
            span.tag(repaired=True)
            self.stats.corruption_repaired += 1
            self._durable_put("repair", norm, data)
            return data

    def _replica_order(self, norm: str, record: FileRecord) -> list[int]:
        """Failover order over the announced replicas, each put to the
        gate once: healthy view-ALIVE ranks first (ascending), then
        SUSPECT ranks, then open-breaker ranks (slow is still better
        than nothing — replicas are the fallback tier, so they are
        deprioritized, not skipped); convicted ranks are skipped
        outright."""
        verdicts = {
            r: self._skip_reason(r)
            for r in self.metadata.replica_ranks(norm)
            if r not in (self.rank, record.home_rank)
        }
        view = self.current_view()
        return sorted(
            (r for r, why in verdicts.items() if why != "convicted"),
            key=lambda r: (
                verdicts[r] is not None,
                view is not None and view.state(r) == RankState.SUSPECT,
                r,
            ),
        )

    def _peer_fetch(
        self,
        norm: str,
        record: FileRecord,
        peer: int,
        *,
        attempts: int | None = None,
        deadline: Deadline | None = None,
    ) -> bytes | None:
        """One verified fetch of ``norm`` from ``peer`` — ask, type-check,
        digest-verify. ``None``: this peer cannot supply verified bytes
        (unreachable, shedding, no copy, corrupt copy) and the caller
        tries the next place. What a failing peer means, stated once
        for every tier that asks one:

        - retries exhausted, or shed → ``None``. Only an exhausted
          *full* budget (``attempts=None``) opens the peer's breaker on
          the spot; a bounded probe is one more strike at most, and so
          is overload (pressure, not death);
        - :class:`DeadlineExpiredError` propagates — the budget is gone
          for every peer, so the caller skips to its local-only floor;
        - :class:`RankDeadError` (this rank is the corpse) propagates: a
          read on a killed rank must raise it. Only the background
          callers — re-replication staging, the promotion gate,
          repair's home re-ask — swallow it.
        """
        try:
            status, data = self.exchange.ask(
                "fetch", norm, peer, attempts=attempts, deadline=deadline
            )
        except RetryExhaustedError:
            if attempts is None:
                self.health.force_open(peer)
            return None
        except ServerOverloadedError:
            return None
        if (
            status == Reply.OK
            and isinstance(data, (bytes, bytearray, memoryview))
            and self._blob_ok(record, data)
        ):
            return data
        return None

    def _failover(
        self, norm: str, record: FileRecord, deadline: Deadline | None
    ) -> bytes | None:
        """The one walk below the home rank, shared by a read that left
        its home and by :meth:`repair`: each announced replica in
        :meth:`_replica_order` (one attempt, spending from the shared
        ``deadline``), then the shared-FS floor — local-only, so it runs
        even on a spent budget. ``None``: no tier holds verified bytes,
        and the caller raises its own reason."""
        replicas = (
            self._replica_order(norm, record) if self.comm is not None else ()
        )
        try:
            for replica in replicas:
                if deadline is not None and deadline.expired():
                    break
                # one span per replica attempt: a failed tier shows up
                # as a sibling in the trace, not a silent gap
                with self.tracer.span("fetch.replica", rank=replica) as span:
                    data = self._peer_fetch(
                        norm, record, replica,
                        attempts=_FAILOVER_ATTEMPTS, deadline=deadline,
                    )
                    span.tag(verified=data is not None)
                if data is not None:
                    self.stats.remote_fetches += 1
                    self.stats.remote_bytes += len(data)
                    return data
        except DeadlineExpiredError:
            pass  # out of budget for peers; the floor needs none
        return self._degraded_read(norm, record)

    def _degraded_read(self, norm: str, record: FileRecord) -> bytes | None:
        """Floor of the ladder: the prepared partition files never left
        the shared FS, so when home and replicas are all gone the
        payload can be re-read at its recorded offset — slow (the exact
        contention §IV-C1 staged data to avoid) but correct. The copy is
        digest-checked (a corrupt partition file must not be promoted)
        and then promoted into the local backend so one outage costs one
        shared-FS round trip, not one per epoch."""
        if self._prepared is None or record.data_offset < 0:
            return None  # runtime output: bytes exist only on its writer
        with self.tracer.span("fetch.degraded", path=norm):
            paths = self._prepared.partition_paths()
            if record.partition_id < len(paths):
                part = paths[record.partition_id]
            elif record.is_broadcast:
                part = self._prepared.broadcast_path()
            else:
                return None
            if part is None or not part.exists():
                return None
            with open(part, "rb") as fh:
                fh.seek(record.data_offset)
                data = fh.read(record.compressed_size)
            if len(data) != record.compressed_size:
                return None
            if not self._blob_ok(record, data):
                return None
            self.stats.degraded_reads += 1
            self._durable_put("promote", norm, data)
            return data

    def _decompress(
        self, record: FileRecord, data: bytes, *, observed: bool = False
    ) -> bytes:
        """Decompress one payload. ``observed`` additionally times the
        decode and feeds the per-codec ``codec.<name>.*`` metrics (the
        online counterpart of the lzbench profiles — enough to rebuild a
        ratio/cost profile from production traffic; see
        :func:`repro.selection.profiling.profile_from_metrics`). The
        record's ``st_size`` goes down as the codec's size hint, so a
        zlib payload inflates into one buffer of its final size; the
        length check stays the gate, a hint never is."""
        try:
            compressor = self.registry.by_id[record.compressor_id]
        except KeyError:
            # an id this registry lacks: its typed error, from get()
            compressor = self.registry.get(record.compressor_id)
        size = record.stat.st_size
        if observed:
            t0 = time.perf_counter()
            plain = compressor.decompress(data, size)
            dt = time.perf_counter() - t0
            handles = self._codec_metrics.get(record.compressor_id)
            if handles is None:
                name = compressor.name
                handles = self._codec_metrics[record.compressor_id] = (
                    self.metrics.histogram(f"codec.{name}.decode_seconds"),
                    self.metrics.counter(f"codec.{name}.decode_bytes"),
                    self.metrics.counter(
                        f"codec.{name}.decode_compressed_bytes"
                    ),
                )
            seconds, plain_bytes, compressed_bytes = handles
            seconds.observe(dt)
            plain_bytes.inc(len(plain))
            compressed_bytes.inc(len(data))
        else:
            plain = compressor.decompress(data, size)
        self.stats.decompressions += 1
        self.stats.decompressed_bytes += len(plain)
        if len(plain) != size:
            raise FanStoreError(
                f"{record.path}: decompressed to {len(plain)} bytes, "
                f"stat says {size}"
            )
        return plain

    def open_file(self, path: str) -> bytes:
        """Figure 2's open(): cache hit or fetch+decompress+insert.
        Pins the cache entry; pair with :meth:`close_file`.

        Resolved once, carried down: a metadata key is canonical, so an
        exact-key probe that hits proves ``path`` canonical *and* yields
        the record — no ``normalize()``, no second lookup below. A probe
        miss (non-canonical spelling, runtime output not yet in this
        table, absent file) normalizes, which rejects a path escaping
        the store root, and leaves the record to the miss's
        :meth:`_lookup` with its hash-owner fallback.

        The miss pipeline runs as the cache's in-flight computation of
        the key (:meth:`DecompressedCache.get_or_compute`), so a miss
        storm on one file fetches and decompresses it exactly once —
        concurrent openers share the leader's installed entry, each
        taking its own pin.

        Misses take the *observed* branch — per-phase timing plus a
        possible trace root — on every ``metrics_every``-th miss, when
        trace sampling is enabled, or when this thread is already inside
        a trace (so one sampled read never loses its child spans to the
        fast path). Everything else runs the bare pipeline: a hot local
        read is ~10 µs and always-on timing would dominate it."""
        record = self.metadata.probe(path)
        if record is None:
            path = normalize(path)
        return self.cache.get_or_compute(
            path, partial(self._miss_bytes, path, record)
        )

    def read_file(self, path: str) -> bytes:
        """:meth:`open_file`, take the bytes, :meth:`close_file` — as
        one call that probes once and pins nothing
        (:meth:`DecompressedCache.read_once`): a resident entry is read
        in place, a miss runs the same :meth:`_miss_bytes` pipeline as
        the cache's in-flight computation of the key — joined by, or
        joining, any concurrent opener — and is never installed."""
        record = self.metadata.probe(path)
        if record is None:
            path = normalize(path)
        return self.cache.read_once(
            path, partial(self._miss_bytes, path, record)
        )

    def _miss_bytes(self, norm: str, record: FileRecord | None) -> bytes:
        """The cache-miss factory: fetch + verify + decompress, *not*
        inserted — :meth:`DecompressedCache.get_or_compute` installs and
        pins the result, :meth:`DecompressedCache.read_once` hands it
        over. Its caller leads that flight, so it is the only fetcher of
        ``norm`` and walks the ladder directly."""
        self._obs_tick = tick = self._obs_tick + 1
        every = self.config.metrics_every
        if (
            (every and tick % every == 0)
            or self._trace_opens
            or self.tracer.n_active
        ):
            return self._observed_miss_bytes(norm, record)
        deadline = None  # a lookup spends from the read's own budget
        if record is None:
            deadline = self._budget()
            record = self._lookup(norm, deadline)
        return self._decompress(
            record, self._fetch_ladder(norm, deadline, record)
        )

    def _observed_miss_bytes(
        self, norm: str, record: FileRecord | None
    ) -> bytes:
        """The sampled/traced miss: the stages of :meth:`_miss_bytes`
        and nothing more, a clock read between them, inside a
        ``client.read`` span (started or continued per
        :meth:`Tracer.maybe_root`); per-phase latencies go to the
        ``daemon.phase.*`` histograms. The metadata phase is ≈ 0 for a
        carried record, the fetch phase includes any remote hops, verify
        is broken out via ``_last_verify_s`` (see :meth:`_blob_ok`), which
        is a number only while this method runs."""
        with self.tracer.maybe_root("client.read", path=norm):
            t0 = time.perf_counter()
            deadline = None
            if record is None:
                deadline = self._budget()
                record = self._lookup(norm, deadline)
            t1 = time.perf_counter()
            self._last_verify_s = 0.0
            try:
                compressed = self._fetch_ladder(norm, deadline, record)
                # None if a concurrent observed miss finished first
                verify_s = self._last_verify_s or 0.0
            finally:
                self._last_verify_s = None
            t2 = time.perf_counter()
            plain = self._decompress(record, compressed, observed=True)
            t3 = time.perf_counter()
            self._h_meta.observe(t1 - t0)
            self._h_fetch.observe(t2 - t1)
            self._h_verify.observe(verify_s)
            self._h_decompress.observe(t3 - t2)
            self._h_open.observe(time.perf_counter() - t0)
            return plain

    def read_fetched(self, norm: str, record: FileRecord, blob: bytes) -> bytes:
        """:meth:`read_file` for a path whose verified blob
        :meth:`fetch_many` already holds: the decompress runs as the
        cache's in-flight computation of the key, pins nothing, and
        counts as a miss for the ``metrics_every`` decode sampling like
        any other."""
        def miss() -> bytes:
            self._obs_tick = tick = self._obs_tick + 1
            every = self.config.metrics_every
            return self._decompress(
                record, blob, observed=bool(every and tick % every == 0)
            )

        return self.cache.read_once(norm, miss)

    def close_file(self, path: str) -> None:
        """Figure 4's close(): unpin (and free at refcount zero). Like
        :meth:`open_file`, probes before it normalizes."""
        if self.metadata.probe(path) is None:
            path = normalize(path)
        self.cache.close(path)

    # -- write path ------------------------------------------------------------

    def _hash_owner(self, path: str) -> int:
        """Deterministic metadata owner for runtime-written paths (crc32
        rather than ``hash()``, which is salted per process)."""
        return zlib.crc32(path.encode("utf-8")) % self.size

    def _live_owner(self, path: str) -> int:
        """Hash owner, diverted around corpses: when the slot owner is
        DEAD in the current view, its ring successor among non-dead
        ranks takes over the metadata duty. Writer and reader divert
        identically (same view ⇒ same successor), so forwarded records
        stay discoverable across a death."""
        owner = self._hash_owner(path)
        view = self.current_view()
        if view is None or view.state(owner) != RankState.DEAD:
            return owner
        successor = ring_successor(owner, set(view.non_dead_ranks()), self.size)
        return successor if successor is not None else owner

    def store_output(self, path: str, data: bytes, record: FileRecord) -> None:
        """§V-D site 4: dump a closed output file to the backend and
        forward its metadata to the owning rank. The forward is
        acknowledged so that once ``close()`` returns, the metadata is
        globally discoverable — otherwise a peer racing a barrier could
        stat the path before the owner's daemon processed the insert."""
        norm = normalize(path)
        t0 = time.perf_counter()
        self._durable_put("write", norm, data, record=record)
        self.metadata.insert(record)
        self.stats.writes += 1
        self.stats.write_bytes += len(data)
        if self.comm is not None:
            owner = self._live_owner(norm)
            if owner != self.rank:
                # retried like any request/reply site; RetryExhaustedError
                # propagates — the caller must know the path is not yet
                # globally discoverable (bytes are safe on this rank).
                self.exchange.ask("write_meta", record, owner)
        self._h_write.observe(time.perf_counter() - t0)

    def stat_any(self, path: str) -> FileRecord | None:
        """Metadata lookup that falls back to the hash owner for paths
        written after the load-time allgather, on a fresh
        ``request_deadline`` budget."""
        norm = normalize(path)
        try:
            return self.metadata.get(norm)
        except FileNotFoundInStoreError:
            return self._stat_owner(norm, self._budget())

    def _stat_owner(
        self, norm: str, deadline: Deadline | None
    ) -> FileRecord | None:
        """``norm``'s record as its live hash owner knows it; None when
        this rank is the owner or the owner has none."""
        if self.comm is None:
            return None
        owner = self._live_owner(norm)
        if owner == self.rank:
            return None
        status, rec = self.exchange.ask_batched(
            "stat", norm, owner, deadline=deadline
        )
        return rec if status == Reply.OK else None
