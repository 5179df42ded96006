"""The payload digest is zlib's CRC-32, whichever library computes it.

``blob_crc32`` hands a ``bytes`` payload of at least ``CRC32_FLOOR``
bytes to the system libdeflate and everything else (a smaller payload,
any other buffer, every payload on a host without the library) to
``zlib.crc32``. The value is the same for every input, so no stored
digest and no partition depends on which one ran.

Every test runs twice: with the library bound, and with the layout
module's binding set to ``None`` (the path of a host without it). The
cases that need the library skip where it is absent.
"""

from __future__ import annotations

import random
import zlib
from collections import Counter
from types import SimpleNamespace

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import repro.fanstore.daemon as daemon_module
from repro.compressors import stdlib
from repro.fanstore import layout
from repro.fanstore.corruption import corrupt_backend
from repro.fanstore.layout import CRC32_FLOOR, blob_crc32, read_partition
from repro.fanstore.prepare import prepare_dataset
from repro.fanstore.store import FanStore, FanStoreOptions
from tests.compressors.test_libdeflate import CountingBinding

LIBDEFLATE_CRC32 = layout._LIBDEFLATE_CRC32

#: a small file (the ``local_1k_memcpy`` shape) and one past the floor
SMALL, LARGE = 1200, 16 * 1024


class DigestCalls:
    """Counts payload digest passes by what computed them, until the
    monkeypatch is undone: ``zlib`` (``zlib.crc32`` called by
    ``blob_crc32`` or by the daemon's check under the floor, the two
    places a payload meets it; the journal's line checksums are not
    payload digests) and ``libdeflate`` (calls of the layout module's
    binding). Every pass is exactly one of the two. (``list.append`` is
    atomic: every thread, both ranks' included, may count.)"""

    def __init__(self, monkeypatch) -> None:
        self.calls: list[str] = []
        counted = SimpleNamespace(crc32=self._counted("zlib", zlib.crc32))
        for module in (layout, daemon_module):
            monkeypatch.setattr(module, "zlib", counted)
        binding = layout._LIBDEFLATE_CRC32
        if binding is not None:
            monkeypatch.setattr(
                layout, "_LIBDEFLATE_CRC32", self._counted("libdeflate", binding)
            )

    def _counted(self, name: str, call):
        def counted(*args):
            self.calls.append(name)
            return call(*args)

        return counted

    def __len__(self) -> int:
        return len(self.calls)

    def counts(self) -> Counter:
        return Counter(self.calls)

    def during(self, operation, *args) -> Counter:
        """What ``operation(*args)`` computed its digests with."""
        before = len(self.calls)
        operation(*args)
        return Counter(self.calls[before:])


@pytest.fixture(params=["libdeflate", "zlib only"])
def digest(request, monkeypatch) -> str:
    """Which CRC-32 the store may run: the bound library, or none."""
    if request.param == "libdeflate":
        if LIBDEFLATE_CRC32 is None:
            pytest.skip("libdeflate.so.0 is not installed")
    else:
        monkeypatch.setattr(layout, "_LIBDEFLATE_CRC32", None)
    return request.param


def _payload(size: int, seed: int) -> bytes:
    return random.Random(seed).randbytes(size)


#: sizes straddling the floor, and anything up to three floors
sizes = st.one_of(
    st.sampled_from(
        [0, 1, CRC32_FLOOR - 1, CRC32_FLOOR, CRC32_FLOOR + 1, LARGE, 65537]
    ),
    st.integers(min_value=0, max_value=3 * CRC32_FLOOR),
)


@settings(
    max_examples=80,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(
    size=sizes,
    seed=st.integers(min_value=0, max_value=2**32),
    kind=st.sampled_from(["bytes", "bytearray", "memoryview", "slice"]),
)
def test_every_digest_is_zlibs(digest, size, seed, kind):
    """``blob_crc32`` answers what ``zlib.crc32`` answers, for empty
    input, for sizes on both sides of the floor, and for every buffer
    type a payload may arrive as. Kills a nonzero initial CRC and a
    length cut short (both change the value), and the library path
    taken for a buffer that is not ``bytes`` (the binding refuses one)."""
    data = _payload(size, seed)
    buffer = {
        "bytes": data,
        "bytearray": bytearray(data),
        "memoryview": memoryview(data),
        "slice": memoryview(b"\0" + data)[1:],
    }[kind]
    assert blob_crc32(buffer) == zlib.crc32(data)


def test_only_bytes_at_or_above_the_floor_reach_the_library(
    digest, monkeypatch
):
    """Each call runs exactly one CRC-32: the library's for ``bytes``
    of at least the floor (none without the library), zlib's for the
    rest. Kills the floor ignored and the library path taken for a
    ``bytearray`` or a view."""
    bound = digest == "libdeflate"
    at_floor = _payload(CRC32_FLOOR, 1)
    calls = DigestCalls(monkeypatch)
    for buffer, library in (
        (b"", False),
        (_payload(SMALL, 2), False),
        (at_floor[:-1], False),
        (at_floor, bound),
        (_payload(LARGE, 3), bound),
        (bytearray(at_floor), False),
        (memoryview(at_floor), False),
    ):
        assert calls.during(blob_crc32, buffer) == Counter(
            {"libdeflate" if library else "zlib": 1}
        ), (type(buffer), len(buffer))


@pytest.fixture(scope="module")
def raw_dir(tmp_path_factory):
    """Eight files past the floor and eight under it, random bytes (a
    ``memcpy`` payload is the file)."""
    root = tmp_path_factory.mktemp("digest-raw")
    for i in range(8):
        (root / f"large{i}.bin").write_bytes(_payload(LARGE + 97 * i, i))
        (root / f"small{i}.bin").write_bytes(_payload(SMALL, 100 + i))
    return root


@pytest.fixture(scope="module")
def packed(raw_dir, tmp_path_factory):
    return prepare_dataset(
        raw_dir, tmp_path_factory.mktemp("digest-packed"),
        num_partitions=1, compressor="memcpy", threads=1,
    )


def _paths(fs, prefix: str) -> list[str]:
    return sorted(
        r.path for r in fs.daemon.metadata.walk_files()
        if r.path.startswith(prefix)
    )


def test_a_read_runs_one_crc_and_a_small_one_no_foreign_call(
    digest, packed, monkeypatch
):
    """Clock-free: a local read of a payload past the floor makes
    exactly one ``libdeflate_crc32`` call and no ``zlib.crc32`` call
    (one ``zlib.crc32`` without the library); a 1.2 KB read makes one
    ``zlib.crc32`` call and no foreign call at all, the inflate
    binding's included."""
    with FanStore(packed) as fs:
        large, small = _paths(fs, "large"), _paths(fs, "small")
        assert len(large) == len(small) == 8
        for path in large + small:  # warm: lazy set-up is not the read's
            fs.client.read_file(path)
        inflate = CountingBinding(stdlib._LIBDEFLATE)
        monkeypatch.setattr(stdlib, "_LIBDEFLATE", inflate)
        calls = DigestCalls(monkeypatch)
        for path in large:
            assert calls.during(fs.client.read_file, path) == Counter(
                {"libdeflate" if digest == "libdeflate" else "zlib": 1}
            ), path
        for path in small:
            assert calls.during(fs.client.read_file, path) == Counter(
                zlib=1
            ), path
        assert sum(inflate.calls.values()) == 0


@pytest.mark.parametrize("backend", ["ram", "disk"])
def test_corruption_past_the_floor_is_caught_and_healed(
    digest, packed, tmp_path, monkeypatch, backend
):
    """A bit flipped in a staged payload past the floor, in RAM and in
    a ``DiskBackend`` blob: the read's digest catches it, the copy is
    replaced from the shared file system and the read returns the good
    bytes. Then the scrubber's deep pass catches a second one, under a
    pinned descriptor whose cached plaintext it quarantines. Where the
    library is bound, it computed every digest of a payload past the
    floor, both catches included."""
    local_dir = tmp_path / "local" if backend == "disk" else None
    with FanStore(packed, FanStoreOptions(local_dir=local_dir)) as fs:
        daemon = fs.daemon
        first, second = _paths(fs, "large")[:2]
        good = {p: daemon.backend.get(p) for p in (first, second)}
        assert min(len(g) for g in good.values()) >= CRC32_FLOOR
        assert all(type(g) is bytes for g in good.values())
        plain = {p: fs.client.read_file(p) for p in (first, second)}
        calls = DigestCalls(monkeypatch)

        corrupt_backend(daemon.backend, first, seed=1)
        used = calls.during(fs.client.read_file, first)
        assert (daemon.stats.corruption_detected,
                daemon.stats.corruption_repaired) == (1, 1)
        assert daemon.backend.get(first) == good[first]
        assert fs.client.read_file(first) == plain[first]
        # the corrupt copy's check and the shared-FS copy's, at least
        if digest == "libdeflate":
            assert used["libdeflate"] >= 2 and used["zlib"] == 0
        else:
            assert used["zlib"] >= 2

        fd = fs.client.open(second)  # pins its decompressed entry
        corrupt_backend(daemon.backend, second, seed=2)
        mark = len(calls)
        report = fs.scrub(deep=True)
        scrubbed = Counter(calls.calls[mark:])
        assert (report.corrupted, report.repaired) == (1, 1)
        # every record once, the eight past the floor on the library
        if digest == "libdeflate":
            assert scrubbed["libdeflate"] >= 8 and scrubbed["zlib"] == 8
        else:
            assert scrubbed["zlib"] >= 16
        assert report.verified == report.scanned - 1
        assert daemon.cache.stats.quarantined == 1
        assert daemon.backend.get(second) == good[second]
        fs.client.close(fd)
        assert fs.client.read_file(second) == plain[second]
        assert fs.scrub(deep=True).corrupted == 0


def _entries(prepared) -> list[tuple]:
    """Each packed entry's path, payload digest, compressor id and
    payload bytes, in pack order. ``FileStat`` also records the raw
    file's atime and ctime, which reading it for the pack moves."""
    return [
        (e.path, e.stat.crc32, e.stat.has_digest, e.compressor_id, e.data)
        for ppath in prepared.partition_paths()
        for e in read_partition(ppath)
    ]


@pytest.mark.parametrize("compressor", ["memcpy", "zlib-1"])
def test_the_same_files_pack_the_same_with_and_without_the_library(
    raw_dir, tmp_path, monkeypatch, compressor
):
    if LIBDEFLATE_CRC32 is None:
        pytest.skip("libdeflate.so.0 is not installed")
    bound = prepare_dataset(
        raw_dir, tmp_path / "bound", num_partitions=2,
        compressor=compressor, threads=2,
    )
    monkeypatch.setattr(layout, "_LIBDEFLATE_CRC32", None)
    hidden = prepare_dataset(
        raw_dir, tmp_path / "hidden", num_partitions=2,
        compressor=compressor, threads=2,
    )
    entries = _entries(bound)
    assert len(entries) == 16
    assert entries == _entries(hidden)
    assert all(
        has and crc == zlib.crc32(data) for _, crc, has, _, data in entries
    )
