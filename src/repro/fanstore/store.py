"""The FanStore facade (§V-A).

Ties the pieces together the way a user launches the real system:
prepare once, then on every node construct a ``FanStore`` with that
node's communicator — the constructor loads partitions, exchanges
metadata, and starts the daemon service; the object then exposes the
POSIX client plus lifecycle management.

Single-node usage needs no communicator::

    prepared = prepare_dataset("raw_data/", "packed/", compressor="lz4hc")
    with FanStore(prepared) as fs:
        names = fs.client.listdir("train")
        first = fs.client.read_file(f"train/{names[0]}")

Multi-node usage, inside :func:`repro.comm.run_parallel`::

    def node_main(comm):
        opts = FanStoreOptions(comm=comm)
        with FanStore(prepared, opts) as fs:
            ...  # every rank sees the identical namespace

Construction settings live on :class:`FanStoreOptions`, the two
non-default lifecycles included: ``membership`` turns the self-healing
layer on, and ``rejoin_peer`` relaunches a dead rank.

``shutdown`` (or context exit) is collective when a communicator is
present: a barrier guarantees no peer still needs this daemon's data
before the service loop stops. ``FanStore`` conforms to the shared
:class:`repro.util.service.Service` contract — the shutdown-ordering
rules for composing it with scrubbers and failure detectors live in
that module's docstring.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING

from repro.comm.communicator import Communicator
from repro.compressors.registry import CompressorRegistry
from repro.errors import FanStoreError
from repro.fanstore.backend import Backend, DiskBackend, RamBackend
from repro.fanstore.client import FanStoreClient
from repro.fanstore.daemon import DaemonConfig, FanStoreDaemon
from repro.fanstore.journal import JournalConfig
from repro.fanstore.membership import FailureDetector, MembershipConfig
from repro.fanstore.scrub import ScrubReport, Scrubber
from repro.obs.metrics import MetricsRegistry
from repro.obs.tracing import Tracer
from repro.util.service import ServiceMixin

if TYPE_CHECKING:  # prepare.py is also a script: see repro.fanstore
    from repro.fanstore.prepare import PreparedDataset

#: shutdown-barrier bound: generous (peers may still be draining
#: epochs), but finite — shutdown must never hang unbounded.
_SHUTDOWN_BARRIER_TIMEOUT = 60.0


@dataclass(frozen=True)
class FanStoreOptions:
    """Everything configurable about one :class:`FanStore` instance:
    one value that can be built once and shared across ranks/tests (it
    is frozen; derive variants with :func:`dataclasses.replace`). All
    fields default to the single-node, in-RAM, observability-quiet
    configuration.
    """

    #: communicator for the multi-node mesh (None = single node).
    comm: Communicator | None = None
    #: daemon tunables (:class:`DaemonConfig`); None = defaults.
    config: DaemonConfig | None = None
    #: node-local directory for a :class:`DiskBackend` (§IV-C1's SSD
    #: case): each staged partition is copied there whole and read by
    #: ``pread``, what the run writes is kept there as journalled blobs
    #: (the journal in ``journal/`` beside them); ignored when
    #: ``backend`` is given, None = in-RAM backend.
    local_dir: Path | str | None = None
    #: explicit storage backend instance (overrides ``local_dir``).
    backend: Backend | None = None
    #: compressor registry; None = the default suite.
    registry: CompressorRegistry | None = None
    #: POSIX mount prefix stripped by :meth:`FanStore.resolve`.
    mount_point: str = "/fanstore"
    #: opt into the self-healing layer — failure detection, dead-route
    #: avoidance, automatic re-replication: ``True`` for the default
    #: :class:`MembershipConfig`, or a config instance.
    membership: MembershipConfig | bool | None = None
    #: construct as a *relaunched* incarnation of a dead rank, syncing
    #: from this peer (needs ``comm``; implies ``membership``):
    #: partitions are re-staged off the shared FS (never a collective —
    #: the original cohort's collective sequence has moved on),
    #: metadata comes from the peer's join snapshot, and construction
    #: only returns after the peer verified a read against this store
    #: and promoted it back to ALIVE.
    rejoin_peer: int | None = None
    #: share an existing metrics registry (None = the daemon makes its
    #: own per-rank registry, reachable as :attr:`FanStore.metrics`).
    metrics: MetricsRegistry | None = None
    #: crash-consistent durability: with a disk-resident backend every
    #: local-store mutation is write-ahead journalled (intent → atomic
    #: apply → commit) and the constructor runs restart recovery before
    #: loading. On by default wherever it applies — it is a no-op for
    #: RAM backends (nothing survives the process there anyway).
    journal: bool = True
    #: journal tunables (:class:`~repro.fanstore.journal.JournalConfig`);
    #: None = defaults.
    journal_config: JournalConfig | None = None


class FanStore(ServiceMixin):
    """One node's view of the shared compressed object store."""

    def __init__(
        self,
        prepared: PreparedDataset | Path | str,
        options: FanStoreOptions | None = None,
    ) -> None:
        """See :class:`FanStoreOptions` for the knobs."""
        opts = options if options is not None else FanStoreOptions()
        self.options = opts
        if isinstance(prepared, (str, Path)):
            from repro.fanstore.prepare import PreparedDataset

            prepared = PreparedDataset.load(prepared)
        self.prepared = prepared
        self.mount_point = opts.mount_point.rstrip("/") or "/fanstore"
        backend = opts.backend
        if backend is None:
            backend = (
                DiskBackend(opts.local_dir)
                if opts.local_dir is not None else RamBackend()
            )
        comm = opts.comm
        journal_dir = None
        if isinstance(backend, DiskBackend):
            # the disk-only wiring, all of it (only the blob files a
            # run writes must survive a process, so only they get a
            # journal; the staged partitions are staged again)
            backend.rank = comm.rank if comm is not None else 0
            if opts.journal:
                journal_dir = backend.root / "journal"
        self.daemon = FanStoreDaemon(
            comm,
            config=opts.config,
            backend=backend,
            registry=opts.registry,
            metrics=opts.metrics,
            journal_dir=journal_dir,
            journal_config=opts.journal_config,
        )
        self.client = FanStoreClient(self.daemon)
        self.membership: FailureDetector | None = None
        self._active = False
        self._rejoined = opts.rejoin_peer is not None
        membership = opts.membership
        if self._rejoined and comm is None:
            raise FanStoreError("rejoin_peer requires a communicator")
        if self._rejoined:
            membership = membership or True
            self.daemon.replication.load_rejoin(prepared)
        else:
            self.daemon.replication.load(prepared)
        self.daemon.start()
        if membership and comm is not None:
            cfg = membership if isinstance(membership, MembershipConfig) else None
            self.membership = FailureDetector(
                comm, cfg, metrics=self.daemon.metrics
            )
            self.daemon.replication.attach_membership(self.membership)
        if self._rejoined:
            assert self.membership is not None and opts.rejoin_peer is not None
            snapshot = self.membership.request_join(opts.rejoin_peer)
            if snapshot is not None:
                self.daemon.replication.apply_membership_snapshot(snapshot)
            self.membership.request_promotion(opts.rejoin_peer)
        if self.membership is not None:
            self.membership.start()
        self._active = True

    # -- lifecycle ----------------------------------------------------------

    def start(self) -> None:
        """No-op while active (the constructor already started
        everything); after a :meth:`shutdown`, restarts the daemon
        service loop and the failure detector. Part of the
        :class:`~repro.util.service.Service` contract."""
        if self._active:
            return
        self.daemon.start()
        if self.membership is not None:
            self.membership.start()
        self._active = True

    def stop(self) -> None:
        """Alias of :meth:`shutdown` (the Service-contract spelling)."""
        self.shutdown()

    @property
    def running(self) -> bool:
        """Whether this store is serving (constructed and not shut
        down)."""
        return self._active

    def shutdown(self) -> None:
        """Collective teardown: barrier (everyone done reading), then
        stop the service loop. Safe to call twice.

        The barrier is skipped once membership history exists (a death,
        a rejoin, or this store *being* a rejoined incarnation):
        collectives need the full original cohort, which by definition
        no longer exists — callers in that regime sequence their own
        teardown (see the membership drill for the pairwise pattern)."""
        if not self._active:
            return
        self._active = False
        if self.membership is not None:
            self.membership.stop()
        view = self.daemon.current_view()
        collective_safe = not self._rejoined and (
            view is None or view.epoch == 0
        )
        if self.daemon.comm is not None and collective_safe:
            # explicit bound: a peer wedged mid-teardown must not hang
            # this rank forever (its daemon still answers until stop())
            self.daemon.comm.barrier(timeout=_SHUTDOWN_BARRIER_TIMEOUT)
        self.daemon.stop()

    # -- introspection ---------------------------------------------------------

    @property
    def rank(self) -> int:
        return self.daemon.rank

    @property
    def size(self) -> int:
        return self.daemon.size

    @property
    def num_files(self) -> int:
        return len(self.daemon.metadata)

    @property
    def metrics(self) -> MetricsRegistry:
        """This rank's unified metrics registry (``daemon.*``,
        ``cache.*``, ``codec.*``, ``membership.*``, ... — the catalogue
        is in ``docs/observability.md``)."""
        return self.daemon.metrics

    @property
    def health(self):
        """This rank's per-peer health tracker (latency quantiles +
        circuit breakers; :class:`repro.fanstore.health.HealthTracker`)."""
        return self.daemon.health

    @property
    def journal(self):
        """This rank's write-ahead journal
        (:class:`repro.fanstore.journal.Journal`), or None when the
        backend is not disk-resident / journalling was disabled."""
        return self.daemon.journal

    @property
    def tracer(self) -> Tracer:
        """This rank's request tracer; export its finished spans with
        :meth:`~repro.obs.tracing.Tracer.export_jsonl`."""
        return self.daemon.tracer

    @property
    def isolated(self) -> bool:
        """Whether this rank is on the minority side of a network
        partition (membership ISOLATED mode: convictions, re-replication
        and writer election frozen; reads keep serving degraded). Always
        False without a membership detector."""
        return self.membership is not None and self.membership.isolated

    def export_ownership(self) -> dict:
        """This rank's post-membership ownership map (view epoch,
        per-path home + replicas) — feed it to ``fanstore-inspect
        --ownership`` so offline repair consults the *current* owners."""
        return self.daemon.replication.export_ownership()

    def resolve(self, path: str) -> str:
        """Strip the mount point from an absolute path (§V-A: directory
        ``dir/cate1/file1`` is accessible as ``/fs/dir/cate1/file1``)."""
        if path.startswith(self.mount_point + "/"):
            return path[len(self.mount_point) + 1 :]
        if path == self.mount_point:
            return ""
        return path

    def verify_integrity(self, sample: int | None = None) -> int:
        """End-to-end read check: decompress (up to ``sample``) files
        through the full client path and compare sizes against their
        stat records; returns the number verified. Because the read path
        digest-checks every compressed payload (and self-repairs via the
        failover ladder), this also exercises verify-on-read. For a
        digest sweep that does *not* decompress — and that reports
        instead of raising — see :meth:`scrub`."""
        checked = 0
        for record in self.daemon.metadata.walk_files():
            if sample is not None and checked >= sample:
                break
            if record.home_rank != self.rank and self.daemon.comm is None:
                continue
            data = self.client.read_file(record.path)
            if len(data) != record.stat.st_size:
                raise FanStoreError(
                    f"{record.path}: integrity check failed "
                    f"({len(data)} != {record.stat.st_size})"
                )
            checked += 1
        return checked

    def scrubber(
        self,
        *,
        repair: bool = True,
        deep: bool = False,
        batch: int = 32,
        rate_limit_bytes_per_s: float | None = None,
        interval_s: float = 0.0,
    ) -> Scrubber:
        """A :class:`~repro.fanstore.scrub.Scrubber` over this rank's
        records — drive it incrementally (``step()``), in one pass
        (``run()``), or as a background thread (``start()``)."""
        return Scrubber(
            self.daemon,
            repair=repair,
            deep=deep,
            batch=batch,
            rate_limit_bytes_per_s=rate_limit_bytes_per_s,
            interval_s=interval_s,
        )

    def scrub(
        self,
        sample: int | None = None,
        *,
        repair: bool = True,
        deep: bool = False,
    ) -> ScrubReport:
        """One full digest sweep over the records staged on this rank,
        healing mismatches through the failover ladder when ``repair``
        is set; returns the :class:`~repro.fanstore.scrub.ScrubReport`."""
        return self.scrubber(repair=repair, deep=deep).run(sample)
