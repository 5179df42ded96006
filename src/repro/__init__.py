"""FanStore reproduction.

A from-scratch Python reproduction of *"Efficient I/O for Neural Network
Training with Compressed Data"* (Zhang, Huang, Pauloski, Foster — IPDPS
2020): a distributed compressed object store ("FanStore") for deep
learning training on supercomputers, plus every substrate the paper
depends on (compressor suite, MPI-like runtime, cluster/storage/network
performance models, DL training pipelines, and the baselines it is
evaluated against).

The top-level package re-exports the handful of entry points a typical
user needs; the subpackages carry the full API:

- :mod:`repro.compressors` — lossless codecs, filters and the lzbench-like
  evaluation driver (the paper's 180 compressor configurations).
- :mod:`repro.fanstore` — the core system: compressed partition format,
  data preparation, metadata service, cache, daemon, POSIX-style client,
  and user-space interception.
- :mod:`repro.selection` — the compressor-selection algorithm (Eqs. 1-3).
- :mod:`repro.comm` — thread-per-rank MPI-like communicator.
- :mod:`repro.simnet` — discrete-event storage/network performance model.
- :mod:`repro.cluster` — machine presets (GTX / V100 / CPU from the paper).
- :mod:`repro.training` — data-parallel trainer with sync/async I/O.
- :mod:`repro.datasets` — synthetic generators matching Table II.
- :mod:`repro.baselines` — TFRecord-like, Lustre-like, FUSE and chunked
  comparison systems.
- :mod:`repro.obs` — unified observability: metrics registry, request
  tracing, and the ``fanstore-top`` snapshot aggregator.
"""

from repro._version import __version__
from repro.compressors import get_compressor, list_compressors
from repro.fanstore import FanStore, FanStoreOptions
from repro.obs import MetricsRegistry
from repro.selection import CompressorSelector, SelectionInputs

__all__ = [
    "__version__",
    "get_compressor",
    "list_compressors",
    "FanStore",
    "FanStoreOptions",
    "prepare_dataset",
    "MetricsRegistry",
    "CompressorSelector",
    "SelectionInputs",
]


def __getattr__(name: str):
    """``prepare_dataset``, imported on first use (see
    :mod:`repro.fanstore`: ``prepare`` is also a script)."""
    if name == "prepare_dataset":
        from repro.fanstore.prepare import prepare_dataset

        return prepare_dataset
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
