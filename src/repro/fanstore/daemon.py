"""The FanStore daemon (§V-A, §V-D).

One daemon runs per node (here: per rank of the in-process world). It

1. runs restart recovery over its journal, if any, then stages its
   partitions and the global view through ``daemon.replication``
   (:mod:`repro.fanstore.replication`, also the membership reactions);
2. serves ``fetch`` requests from peers for compressed bytes it hosts
   (MPI send/recv in the paper; the communicator here);
3. decompresses on ``open()`` into the reference-counted cache and
   answers ``read()`` from it (Figures 2–4);
4. accepts the write path: an output file closed by the client is
   dumped to the backend and its metadata forwarded to the rank that
   owns the path's hash slot (§V-D site 4).

This module decides *what* to ask a peer and *whom* (the failover
ladder, ``fetch_many``'s grouping, the write/stat forwarding) and what
a peer's request is answered with (:meth:`FanStoreDaemon._answer`,
fencing included). *How* a peer is asked is
:class:`repro.fanstore.exchange.PeerExchange`; how a request is served
is :class:`repro.fanstore.serve.PeerServer`.
"""

from __future__ import annotations

import time
import weakref
import zlib
from dataclasses import dataclass
from functools import partial
from typing import TYPE_CHECKING, Any, Iterable

from repro.comm.communicator import Communicator
from repro.comm.deadline import Deadline
from repro.compressors.registry import CompressorRegistry, default_registry
from repro.errors import (
    DataIntegrityError,
    DeadlineExpiredError,
    FanStoreError,
    FileNotFoundInStoreError,
    RankDeadError,
    RetryExhaustedError,
    ServerOverloadedError,
    StorageFullError,
)
from repro.fanstore.backend import Backend, RamBackend
from repro.fanstore.cache import DecompressedCache
from repro.fanstore.exchange import (
    BATCH_MAX,
    BLOB_TYPES,
    FAILOVER_ATTEMPTS,
    TAG_DAEMON,
    PeerExchange,
)
from repro.fanstore.health import BreakerState, HealthTracker
from repro.fanstore.journal import Journal, JournalConfig, JournalStats
from repro.fanstore.layout import CRC32_FLOOR, FLAG_HAS_DIGEST, blob_crc32
from repro.fanstore.membership import (
    ClusterView,
    FailureDetector,
    RankState,
    ring_successor,
)
from repro.fanstore.metadata import FileRecord, MetadataTable, normalize
from repro.fanstore.replication import Replication
from repro.fanstore.serve import PeerServer
# decode_request stays a name of this module: the traced benchmark's
# ``wire.request_decode`` probe is keyed by it
from repro.fanstore.wire import Reply, decode_request  # noqa: F401
from repro.obs.metrics import SAMPLES_MAX, MetricsRegistry
from repro.obs.tracing import Tracer

if TYPE_CHECKING:  # prepare.py is also a script: see repro.fanstore
    from repro.fanstore.prepare import PreparedDataset


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

    #: the partition-era counters live under ``replication.<field>``,
    #: everything else under ``daemon.<field>``
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
    #: A local 1.2 KB read is ~6 µs, so always-on timing would dominate
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
    #: percentile of its recent per-item latencies, per item asked
    #: (``hedge_after_s`` until samples exist), send the same fetches —
    #: a lone read or a loader batch's envelope — to a replica and take
    #: the first verified reply per item. Off by default — the
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


def _count_breaker_open(stats: DaemonStats, peer: int) -> None:
    stats.breaker_opens += 1


def _count_breaker_probe(stats: DaemonStats, peer: int) -> None:
    stats.breaker_probes += 1


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
        # compressor id → its two fold plans (see _make_fold_plans)
        self._fold_plans: dict[int, tuple] = {}
        # sampled reads append their records here (the registry's own)
        self._samples = self.metrics.samples
        self._h_write = self.metrics.histogram("daemon.write_seconds")
        self._m_batch_fallbacks = self.metrics.counter("daemon.batch.fallbacks")
        self._trace_opens = self.config.trace_sample > 0.0
        # the prepared dataset staged here, for degraded shared-FS re-reads
        self._prepared: PreparedDataset | None = None
        #: per-peer latency quantiles + circuit breakers; the
        #: breaker transition/probe callbacks land in the stats bag so
        #: the drills assert on them like any other counter
        cfg = self.config
        self.health = HealthTracker(
            self.rank,
            slow_threshold=cfg.breaker_slow_threshold,
            reset_after=cfg.breaker_reset_after,
        )
        self.health.on_open = partial(_count_breaker_open, self.stats)
        self.health.on_probe = partial(_count_breaker_probe, self.stats)
        # The parts below call back into this daemon through a weak
        # proxy, never a bound method: a part holding the daemon would
        # close a cycle through it, and a dropped store would then live
        # until the cyclic GC ran. ``partial(FanStoreDaemon.method,
        # proxy)`` runs the method's own frame and no other.
        me = weakref.proxy(self)
        #: the request side: how a peer is asked (see exchange.py)
        self.exchange = PeerExchange(
            comm, cfg, self.stats, self.health, self.tracer, self.metrics,
            fence=partial(FanStoreDaemon._fence_token, me),
            verify=partial(FanStoreDaemon._blob_ok, me),
        )
        #: the serve side: how a peer's request is served (see serve.py)
        self.server = PeerServer(
            comm, cfg, self.stats, self.tracer, self.metrics,
            answer=partial(FanStoreDaemon._answer, me),
        )
        # path → (the backend object last hashed clean for a peer, the
        # digest it matched); see _verified_local. Each entry states a
        # fact that cannot go stale (an immutable object matched a
        # digest), so racing writers cost at most a re-hash: no lock.
        self._hashed: dict[str, tuple[Any, int]] = {}
        self._membership: FailureDetector | None = None
        #: with a journal directory, restart recovery runs here, before
        #: anything is staged or announced, and every local-store
        #: mutation is journalled (:meth:`_durable_put` /
        #: :meth:`_durable_discard`); none = fire-and-forget (RAM)
        self.journal: Journal | None = None
        self.jstats = JournalStats()
        self.jstats.bind(self.metrics)
        if journal_dir is not None:
            self.journal, outputs = Journal.recover(
                journal_dir, self.backend, config=journal_config,
                stats=self.jstats, tracer=self.tracer,
            )
            for rec in outputs:
                self.metadata.insert(rec)
        #: placement: staging, the ring copy and the membership
        #: reactions (see replication.py)
        self.replication = Replication(me)

    # -- membership view and the one gate -------------------------------------

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
        ``replication.on_rank_alive`` or a heal) or ``"breaker"`` (open, until
        the cool-off lets a probe through). Every asker calls this once
        per decision: a half-open breaker's yes is counted as the probe."""
        det = self._membership
        if det is not None and det.is_dead(peer):
            return "convicted"
        if not self.health.allow(peer):
            return "breaker"
        return None

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

    def _write_back(self, op: str, norm: str, data: bytes, span: Any) -> bool:
        """:meth:`_durable_put` of verified bytes a read already holds.
        A full disk or a browned-out journal refuses it: the read still
        returns the bytes (brownout is read-only, not unreadable), and
        ``span`` is tagged with the skipped write-back. True when
        installed."""
        try:
            self._durable_put(op, norm, data)
        except StorageFullError:
            span.tag(write_back="refused")
            return False
        return True

    def _durable_discard(self, norm: str) -> bool:
        """Drop this rank's copy of ``norm`` so a restart keeps it gone
        (:meth:`Journal.discard`). True when a copy was held."""
        self._hashed.pop(norm, None)
        if self.journal is None:
            return self.backend.discard(norm)
        return self.journal.discard(norm, epoch=self._view_epoch())

    # -- serving peers ------------------------------------------------------

    def start(self) -> None:
        """Start answering peer requests (no-op single-node)."""
        if self.journal is not None and self.journal.closed:
            # a restart after stop(): the closed journal's live state
            # is already consistent, nothing to recover
            self.journal = self.journal.reopen()
        self.server.start()

    def stop(self) -> None:
        """Stop answering peer requests (idempotent). The server stops
        first: a request served until then may still write back (a
        repair, a degraded-read promote) through the journal."""
        self.server.stop()
        if self.journal is not None:
            self.journal.close()

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

    # -- data path ------------------------------------------------------------

    def fetch_many(
        self, paths: Iterable[str]
    ) -> dict[str, tuple[FileRecord, bytes]]:
        """The caller-supplied batching feeder: ``paths`` grouped by
        home rank, one ``batch`` envelope per :data:`BATCH_MAX` of a
        healthy peer's paths — hedged at a replica with ``hedge_reads``
        on, and sampled as one ``client.read_files`` trace — every
        returned blob digest-checked against the record probed here.
        Returns ``{path: (record, verified blob)}`` for what the
        envelopes settled — possibly nothing. Everything else is the
        caller's to read one file at a time through :meth:`open_file`
        and its full ladder; why a doubtful item is simply left out is
        stated once in ``docs/daemon-pipeline.md`` §3."""
        if self.comm is None:
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
        if not by_home:
            return {}
        if self._trace_opens or self.tracer.n_active:
            with self.tracer.maybe_root("client.read_files"):
                return self._fetch_envelopes(by_home)
        return self._fetch_envelopes(by_home)

    def _fetch_envelopes(
        self, by_home: dict[int, dict[str, FileRecord]]
    ) -> dict[str, tuple[FileRecord, bytes]]:
        """:meth:`fetch_many`'s envelopes, one home at a time."""
        fetched: dict[str, tuple[FileRecord, bytes]] = {}
        cfg = self.config
        for home, wanted in by_home.items():
            paths, records = list(wanted), list(wanted.values())
            for start in range(0, len(paths), BATCH_MAX):
                group = paths[start : start + BATCH_MAX]
                if (
                    len(group) < 2  # a classic request with extra framing
                    or self._skip_reason(home)
                ):
                    break
                recs = records[start : start + BATCH_MAX]
                deadline = None  # _budget() inlined, as in _fetch_ladder
                if cfg.request_deadline is not None:
                    deadline = Deadline.after(cfg.request_deadline)
                replies = self.exchange.ask(
                    home, [("fetch", path, deadline) for path in group],
                    records=recs, hedge=(
                        partial(self._hedge_target, group[0], recs[0])
                        if cfg.hedge_reads else None
                    ),
                )
                unsettled = len(group)
                # ``ask`` hashed every blob it calls OK against its record
                for path, record, reply in zip(group, recs, replies):
                    if reply is not None and reply[0] == Reply.OK:
                        blob = reply[1]
                        self.stats.remote_fetches += 1
                        self.stats.remote_bytes += len(blob)
                        fetched[path] = (record, blob)
                        unsettled -= 1
                if unsettled:
                    self._m_batch_fallbacks.inc(unsettled)
                if replies.count(None) == len(group):
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
        # under the floor ``blob_crc32`` is zlib's: called straight, a
        # small read's digest runs no Python frame
        digest = zlib.crc32 if len(data) < CRC32_FLOOR else blob_crc32
        # one read of the accumulator: another thread's observed miss
        # may reset it to None at any moment
        verify_s = self._last_verify_s
        if verify_s is None:
            return digest(data) == stat.crc32
        t0 = time.perf_counter()
        ok = digest(data) == stat.crc32
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
                # is busy), or with ``hedge_reads`` on a hedged one,
                # never batched: a hedge is a latency bet, and parking
                # it behind a flush would forfeit it. A hedged ask
                # hashes the blob it returns itself (OK: it passed).
                hedged = self.config.hedge_reads
                if hedged:
                    status, data = self.exchange.ask(
                        home, [("fetch", norm, deadline)], records=(record,),
                        hedge=partial(self._hedge_target, norm, record),
                    )[0]
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
                if status == Reply.MISS:
                    # authoritative not-found from a live home: no failover
                    raise FileNotFoundInStoreError(norm)
                self.stats.remote_fetches += 1
                if isinstance(data, BLOB_TYPES):
                    self.stats.remote_bytes += len(data)
                    if status == Reply.OK if hedged else self._blob_ok(
                        record, data
                    ):
                        return data
                # the home rank served corrupt bytes, or no bytes at all
                # (and could not self-heal): same quarantine + walk as a
                # corrupt local copy, on what is left of this read's budget
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
        corrupt copy in the backend (unless a full disk refuses the
        write-back: the bytes are still returned, but the copy is not
        counted repaired) and any cached plaintext is discarded; on
        failure the corruption is unrepairable and a typed
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
            repaired = self._write_back("repair", norm, data, span)
            span.tag(repaired=repaired)
            if repaired:
                self.stats.corruption_repaired += 1
            return data

    def _replica_order(self, norm: str, record: FileRecord) -> list[int]:
        """Failover order over the announced replicas: healthy
        view-ALIVE ranks first (ascending), then SUSPECT ranks, then
        open-breaker ranks (slow is still better than nothing — replicas
        are the fallback tier, so they are deprioritized, not skipped).
        Ordering reads the breaker states and the view only, which count
        no probe: each replica is put to the gate by :meth:`_failover`
        just before it is asked, so a half-open breaker's probe is
        counted only for a rank that is then asked."""
        health, view = self.health, self.current_view()
        return sorted(
            (
                r for r in self.metadata.replica_ranks(norm)
                if r not in (self.rank, record.home_rank)
            ),
            key=lambda r: (
                health.state(r) is BreakerState.OPEN,
                view is not None and view.state(r) == RankState.SUSPECT,
                r,
            ),
        )

    def _hedge_target(self, norm: str, record: FileRecord) -> int | None:
        """Where a hedge of ``norm`` goes, decided when it fires: the
        lowest announced replica the gate lets through. Replicas are
        put to the gate one at a time and only until one says yes, so
        a half-open breaker's probe is counted only for the rank that
        is then asked. None: nobody to hedge at."""
        for replica in sorted(self.metadata.replica_ranks(norm)):
            if (
                replica not in (self.rank, record.home_rank)
                and self._skip_reason(replica) is None
            ):
                return replica
        return None

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
                peer, [("fetch", norm, deadline)], attempts=attempts
            )[0]
        except RetryExhaustedError:
            if attempts is None:
                self.health.force_open(peer)
            return None
        except ServerOverloadedError:
            return None
        if (
            status == Reply.OK
            and isinstance(data, BLOB_TYPES)
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
                # the gate, once, for the rank about to be asked: a
                # convicted one is skipped outright, an open breaker
                # only ordered last (its no is not a skip here)
                if self._skip_reason(replica) == "convicted":
                    continue
                # one span per replica attempt: a failed tier shows up
                # as a sibling in the trace, not a silent gap
                with self.tracer.span("fetch.replica", rank=replica) as span:
                    data = self._peer_fetch(
                        norm, record, replica,
                        attempts=FAILOVER_ATTEMPTS, deadline=deadline,
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
        with self.tracer.span("fetch.degraded", path=norm) as span:
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
            self._write_back("promote", norm, data, span)
            return data

    def _decompress(self, record: FileRecord, data: bytes) -> bytes:
        """Decompress one payload. The record's ``st_size`` goes down as
        the codec's size hint, so a zlib payload inflates into one
        buffer of its final size; the length check stays the gate, a
        hint never is."""
        try:
            compressor = self.registry.by_id[record.compressor_id]
        except KeyError:
            # an id this registry lacks: its typed error, from get()
            compressor = self.registry.get(record.compressor_id)
        size = record.stat.st_size
        plain = compressor.decompress(data, size)
        self.stats.decompressions += 1
        self.stats.decompressed_bytes += len(plain)
        if len(plain) != size:
            raise FanStoreError(
                f"{record.path}: decompressed to {len(plain)} bytes, "
                f"stat says {size}"
            )
        return plain

    def _make_fold_plans(self, compressor_id: int) -> tuple:
        """Make and keep the two fold plans of one compressor's sampled
        reads, at its first one (later ones find them in
        ``_fold_plans``): a sampled miss's record feeds the five
        phase histograms and the codec's ``codec.<name>.decode_seconds``
        histogram and ``decode_bytes`` / ``decode_compressed_bytes``
        counters; a sampled :meth:`read_fetched` feeds the codec's
        three. The codec's metrics are the online counterpart of the
        lzbench profiles, enough to rebuild a ratio/cost profile from
        production traffic
        (:func:`repro.selection.profiling.profile_from_metrics`). A
        plan's ``(metric, j, i)`` reads field ``j`` of the record, less
        field ``i`` (:meth:`MetricsRegistry.fold`)."""
        name = self.registry.get(compressor_id).name
        metrics = self.metrics
        decode_s = metrics.histogram(f"codec.{name}.decode_seconds")
        plain_bytes = metrics.counter(f"codec.{name}.decode_bytes")
        compressed_bytes = metrics.counter(
            f"codec.{name}.decode_compressed_bytes"
        )
        # a miss's record: t0 t1 t2 t3 verify_s plain compressed
        miss = (
            (self._h_meta, 1, 0),
            (self._h_fetch, 2, 1),
            (self._h_verify, 4, None),
            (self._h_decompress, 3, 2),
            (decode_s, 3, 2),
            (self._h_open, 3, 0),
            (plain_bytes, 5, None),
            (compressed_bytes, 6, None),
        )
        # a fetched blob's record: t0 t1 plain compressed
        fetched = (
            (decode_s, 1, 0), (plain_bytes, 2, None),
            (compressed_bytes, 3, None),
        )
        plans = self._fold_plans[compressor_id] = (miss, fetched)
        return plans

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

        Misses take the *observed* branch — per-phase timing — on every
        ``metrics_every``-th miss, and inside a possible trace root when
        trace sampling is enabled or this thread is already inside a
        trace (so one sampled read never loses its child spans to the
        fast path). Everything else runs the bare pipeline: a local
        1.2 KB read is ~6 µs and always-on timing would dominate it."""
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
        ``norm``: a record homed here goes straight to
        :meth:`_verified_local`, any other walks the ladder. A trace can
        exist only with trace sampling on or a span open somewhere; only
        then is :meth:`Tracer.maybe_root` asked for a ``client.read``
        span (an open one continued, or a sampled root)."""
        self._obs_tick = tick = self._obs_tick + 1
        if self._trace_opens or self.tracer.n_active:
            with self.tracer.maybe_root("client.read", path=norm):
                return self._observed_miss_bytes(norm, record)
        every = self.config.metrics_every
        if every and tick % every == 0:
            return self._observed_miss_bytes(norm, record)
        deadline = None  # a lookup spends from the read's own budget
        if record is None:
            deadline = self._budget()
            record = self._lookup(norm, deadline)
        if record.home_rank == self.rank or self.comm is None:
            self.stats.local_opens += 1
            data = self._verified_local(norm, record)
        else:
            data = self._fetch_ladder(norm, deadline, record)
        return self._decompress(record, data)

    def _observed_miss_bytes(
        self, norm: str, record: FileRecord | None
    ) -> bytes:
        """The sampled miss: the stages of :meth:`_miss_bytes` and
        nothing more, one clock read at each boundary between them. The
        metadata phase is ≈ 0 for a carried record, the fetch phase
        includes any remote hops, verify is broken out via
        ``_last_verify_s`` (see :meth:`_blob_ok`), which is a number
        only while this method runs. The decode's clock pair times both
        ``daemon.phase.decompress_seconds`` and the codec's
        ``decode_seconds``. What it took is recorded, not observed: one
        record of clock values and sizes appended to the registry's
        samples, which the registry folds into the six histograms and
        the codec's two byte counters in bulk
        (:meth:`MetricsRegistry.fold`)."""
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
        plain = self._decompress(record, compressed)
        t3 = time.perf_counter()
        samples = self._samples
        samples.append((
            (
                self._fold_plans.get(record.compressor_id)
                or self._make_fold_plans(record.compressor_id)
            )[0],
            t0, t1, t2, t3, verify_s, len(plain), len(compressed),
        ))
        if len(samples) >= SAMPLES_MAX:
            self.metrics.fold()
        return plain

    def read_fetched(self, norm: str, record: FileRecord, blob: bytes) -> bytes:
        """:meth:`read_file` for a path whose verified blob
        :meth:`fetch_many` already holds: the decompress runs as the
        cache's in-flight computation of the key, pins nothing, and
        counts as a miss for the ``metrics_every`` decode sampling like
        any other (a sampled one records for the codec's metrics only)."""
        def miss() -> bytes:
            self._obs_tick = tick = self._obs_tick + 1
            every = self.config.metrics_every
            if not (every and tick % every == 0):
                return self._decompress(record, blob)
            t0 = time.perf_counter()
            plain = self._decompress(record, blob)
            t1 = time.perf_counter()
            samples = self._samples
            samples.append((
                (
                    self._fold_plans.get(record.compressor_id)
                    or self._make_fold_plans(record.compressor_id)
                )[1],
                t0, t1, len(plain), len(blob),
            ))
            if len(samples) >= SAMPLES_MAX:
                self.metrics.fold()
            return plain

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
                self.exchange.ask(owner, [("write_meta", record, None)])
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
