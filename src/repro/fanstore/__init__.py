"""FanStore: the distributed compressed object store (the paper's core).

Subsystems map one-to-one onto the paper's design sections:

- :mod:`~repro.fanstore.layout` — the compressed data representation (Table I)
- :mod:`~repro.fanstore.prepare` — the data-preparation tool (§V-B)
- :mod:`~repro.fanstore.metadata` — RAM metadata + global view (§IV-C1)
- :mod:`~repro.fanstore.cache` — refcounted FIFO decompressed cache (§IV-C3)
- :mod:`~repro.fanstore.backend` — RAM / local-disk compressed-object storage
- :mod:`~repro.fanstore.daemon` — the per-node service (§V-A, §V-D)
- :mod:`~repro.fanstore.client` — the POSIX-compliant interface (Listing 1)
- :mod:`~repro.fanstore.interception` — user-space call interposition (§V-C)
- :mod:`~repro.fanstore.store` — the per-node facade tying it together
- :mod:`~repro.fanstore.faults` — checkpoint/resume convention (§V-E)
- :mod:`~repro.fanstore.scrub` — background self-healing digest sweeps
- :mod:`~repro.fanstore.corruption` — deterministic storage-fault injection
- :mod:`~repro.fanstore.membership` — failure detection, re-replication,
  and live rank rejoin (the active layer over §IV-C2's replication)
- :mod:`~repro.fanstore.replication` — placement: staging, ring copies
  and the reactions to membership changes (§V-D)
- :mod:`~repro.fanstore.journal` — write-ahead journal, atomic store
  mutation, restart recovery
- :mod:`~repro.fanstore.crash` — deterministic crash-point and
  disk-fault injection
"""

from repro.fanstore.backend import DiskBackend, RamBackend
from repro.fanstore.cache import CacheStats, DecompressedCache
from repro.fanstore.client import (
    O_CREAT,
    O_RDONLY,
    O_WRONLY,
    FanStoreClient,
    FanStoreFile,
)
from repro.fanstore.corruption import (
    CorruptionEvent,
    StorageFaultPlan,
    corrupt_backend,
    corrupt_record,
)
from repro.fanstore.crash import (
    CRASH_POINTS,
    CrashPlan,
    DiskFaultInjector,
    SimulatedCrashError,
    crash_point,
)
from repro.fanstore.daemon import DaemonConfig, DaemonStats, FanStoreDaemon
from repro.fanstore.faults import Checkpoint, CheckpointManager
from repro.fanstore.interception import intercept
from repro.fanstore.journal import (
    Journal,
    JournalConfig,
    JournalStats,
    atomic_open,
    atomic_replace,
    fsync_dir,
    scan_journal,
)
from repro.fanstore.layout import (
    FLAG_BROADCAST,
    FLAG_HAS_DIGEST,
    FLAG_OUTPUT,
    FileStat,
    PartitionEntry,
    blob_crc32,
    entry_payload_ok,
    iter_partition,
    read_partition,
    write_partition,
)
from repro.fanstore.membership import (
    ClusterView,
    FailureDetector,
    MembershipConfig,
    MembershipStats,
    RankState,
    ring_successor,
)
from repro.fanstore.metadata import (
    FileRecord,
    MetadataTable,
    RereplicationStep,
    normalize,
)
from repro.fanstore.scrub import ScrubReport, Scrubber
from repro.fanstore.store import FanStore, FanStoreOptions

__all__ = [
    "FanStore",
    "FanStoreOptions",
    "FanStoreClient",
    "FanStoreFile",
    "FanStoreDaemon",
    "DaemonConfig",
    "DaemonStats",
    "DecompressedCache",
    "CacheStats",
    "RamBackend",
    "DiskBackend",
    "MetadataTable",
    "FileRecord",
    "normalize",
    "FileStat",
    "PartitionEntry",
    "write_partition",
    "read_partition",
    "iter_partition",
    "FLAG_BROADCAST",
    "FLAG_OUTPUT",
    "FLAG_HAS_DIGEST",
    "blob_crc32",
    "entry_payload_ok",
    "prepare_dataset",
    "PreparedDataset",
    "intercept",
    "CheckpointManager",
    "Checkpoint",
    "Scrubber",
    "ScrubReport",
    "ClusterView",
    "FailureDetector",
    "MembershipConfig",
    "MembershipStats",
    "RankState",
    "RereplicationStep",
    "ring_successor",
    "StorageFaultPlan",
    "CorruptionEvent",
    "corrupt_record",
    "corrupt_backend",
    "CRASH_POINTS",
    "CrashPlan",
    "DiskFaultInjector",
    "SimulatedCrashError",
    "crash_point",
    "Journal",
    "JournalConfig",
    "JournalStats",
    "atomic_open",
    "atomic_replace",
    "fsync_dir",
    "scan_journal",
    "O_RDONLY",
    "O_WRONLY",
    "O_CREAT",
]


def __getattr__(name: str):
    """``PreparedDataset`` and ``prepare_dataset``, imported on first
    use. ``prepare`` is also a script (``python -m
    repro.fanstore.prepare``), which runs a second copy of itself when
    the package already imported it: neither this package nor a module
    it imports may import ``prepare`` at import time."""
    if name in ("PreparedDataset", "prepare_dataset"):
        from repro.fanstore import prepare

        return getattr(prepare, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
