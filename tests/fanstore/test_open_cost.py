"""The open path's deterministic cost vector (ROADMAP item 5).

What one uncontended read *executes* — counted with ``sys.setprofile``,
no clock involved, so the counts repeat exactly and are asserted as
counts. The single-pass open resolves a path once and carries the result
down: at most one ``normalize()``, two exact-key metadata probes (open,
close) and none inside the miss, one in-flight registration, and a
Python-call budget. The parent of the PR that added this file executed
6 ``normalize``, 2 lookups inside the miss, 2 registrations and 43 calls.
"""

from __future__ import annotations

import sys
from collections import Counter

import pytest

from repro.datasets.synthetic import generate_dataset
from repro.fanstore.daemon import DaemonConfig
from repro.fanstore.prepare import prepare_dataset
from repro.fanstore.store import FanStore, FanStoreOptions

N_FILES = 64


@pytest.fixture(scope="module")
def store(tmp_path_factory):
    """One rank, RAM backend, ~1.2 KB ``memcpy`` files, sampling off —
    the ``local_1k_memcpy`` shape."""
    root = tmp_path_factory.mktemp("open-cost")
    generate_dataset(
        "tokamak", root / "raw", num_files=N_FILES, avg_file_size=1200,
        num_dirs=2, seed=3,
    )
    prepared = prepare_dataset(
        root / "raw", root / "packed", num_partitions=1, compressor="memcpy"
    )
    options = FanStoreOptions(config=DaemonConfig(metrics_every=0))
    with FanStore(prepared, options) as fs:
        yield fs


def _cost_vector(operation, paths) -> Counter:
    """Per-call-site counts over ``operation(path)`` for every path.

    Only frames of ``src/repro`` count, without ``repro/analysis`` (the
    lockdep witness's lock proxies run under pytest, not in production).
    ``lookups_in_miss`` are metadata lookups between entering
    ``get_or_compute`` and reaching ``backend.get``: there the record
    must already be in hand.
    """
    counts: Counter = Counter()
    in_miss = False

    def profiler(frame, event, _arg):
        nonlocal in_miss
        if event != "call":
            return
        code = frame.f_code
        filename = code.co_filename
        if "/repro/" not in filename or "/repro/analysis/" in filename:
            return
        counts["python_calls"] += 1
        name = code.co_qualname
        if name == "normalize":
            counts["normalize"] += 1
        elif name.startswith("MetadataTable."):
            counts["lookups"] += 1
            counts["lookups_in_miss"] += in_miss
        elif name == "_Flight.__init__":
            counts["flights"] += 1
        elif name == "DecompressedCache.get_or_compute":
            in_miss = True
        elif name.endswith("Backend.get"):
            counts["backend_gets"] += 1
            in_miss = False

    sys.setprofile(profiler)
    try:
        for path in paths:
            operation(path)
    finally:
        sys.setprofile(None)
    return counts


def _paths(fs) -> list[str]:
    paths = [record.path for record in fs.daemon.metadata.walk_files()]
    assert len(paths) == N_FILES
    return paths


def test_read_file_cost_vector(store):
    client, paths = store.client, _paths(store)
    for path in paths:  # warm pass: lazy set-up is not the read's cost
        client.read_file(path)
    counts = _cost_vector(client.read_file, paths)
    n = len(paths)
    assert counts["backend_gets"] == n  # every read was a real miss
    assert counts["normalize"] <= 1 * n
    assert counts["lookups"] <= 2 * n
    assert counts["lookups_in_miss"] == 0  # the record is carried
    assert counts["flights"] == 1 * n
    assert counts["python_calls"] <= 30 * n
    # exact: the same reads execute the same calls
    assert _cost_vector(client.read_file, paths) == counts


def test_descriptor_path_cost_vector(store):
    client, paths = store.client, _paths(store)

    def open_read_close(path: str) -> None:
        fd = client.open(path)
        client.read(fd)
        client.close(fd)

    for path in paths:
        open_read_close(path)
    counts = _cost_vector(open_read_close, paths)
    n = len(paths)
    assert counts["backend_gets"] == n
    assert counts["normalize"] <= 1 * n
    # one record resolution per open (the other probe is close's
    # canonicality proof), none of them inside the miss
    assert counts["lookups"] <= 2 * n
    assert counts["lookups_in_miss"] == 0
    assert counts["flights"] == 1 * n
