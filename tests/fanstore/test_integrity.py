"""End-to-end data integrity: digests at prepare time, manifest
validation, verify-on-read with self-repair, and the typed EIO-style
error when repair is impossible."""

from __future__ import annotations

import dataclasses
import errno
import json
import shutil
import types

import pytest

from repro.errors import (
    CommError,
    DataIntegrityError,
    FanStoreError,
    FormatError,
    ManifestError,
)
from repro.fanstore.corruption import corrupt_backend, corrupt_record
from repro.fanstore.daemon import DaemonConfig, FanStoreDaemon
from repro.fanstore.layout import (
    FLAG_HAS_DIGEST,
    FileStat,
    PartitionEntry,
    blob_crc32,
    entry_payload_ok,
    read_partition,
)
from repro.fanstore.prepare import (
    MANIFEST_NAME,
    MANIFEST_VERSION,
    PreparedDataset,
)
from repro.fanstore.metadata import FileRecord
from repro.fanstore.store import FanStore, FanStoreOptions
from repro.fanstore.wire import Reply, decode_request
from repro.obs.tracing import NULL_SPAN


# -- digests recorded at prepare time -----------------------------------


class TestPreparedDigests:
    def test_every_record_carries_its_payload_digest(self, prepared_dataset):
        """The guard for the packer's one-shot stat: a record packed
        without ``FLAG_HAS_DIGEST`` still reads fine — ``_blob_ok``
        passes undigested records — so no read test and no benchmark
        notices the flag going missing. This test does; do not prune it
        as redundant (CI's ``tier1`` job names it too)."""
        paths = prepared_dataset.partition_paths()
        paths.append(prepared_dataset.broadcast_path())
        for ppath in paths:
            for e in read_partition(ppath, with_data=True):
                assert e.stat.has_digest
                assert e.stat.crc32 == blob_crc32(e.data)
                assert entry_payload_ok(e)

    def test_manifest_records_partition_digests(self, prepared_dataset):
        digests = prepared_dataset.partition_digests
        assert set(digests) == set(prepared_dataset.partitions) | {
            prepared_dataset.broadcast
        }
        assert all(len(d) == 64 for d in digests.values())
        assert prepared_dataset.verify_partition_digests() == []

    def test_manifest_version_bumped_and_self_digested(self, prepared_dataset):
        manifest = json.loads(
            (prepared_dataset.root / MANIFEST_NAME).read_text()
        )
        assert manifest["version"] == MANIFEST_VERSION == 2
        assert len(manifest["manifest_sha256"]) == 64

    def test_partition_digest_detects_drift(self, prepared_dataset, tmp_path):
        bad = tmp_path / "bad"
        shutil.copytree(prepared_dataset.root, bad)
        name = prepared_dataset.partitions[0]
        raw = bytearray((bad / name).read_bytes())
        raw[-1] ^= 0x01
        (bad / name).write_bytes(bytes(raw))
        assert PreparedDataset.load(bad).verify_partition_digests() == [name]

    def test_digest_survives_stat_pack_roundtrip(self):
        stat = FileStat(st_size=10).with_digest(0xDEADBEEF)
        packed = stat.pack()
        assert len(packed) == 144
        back = FileStat.unpack(packed)
        assert back.has_digest and back.crc32 == 0xDEADBEEF

    def test_pre_digest_records_still_pass(self):
        # a record without FLAG_HAS_DIGEST never fails verification,
        # even when crc32 happens to be 0 (old partitions decode to 0)
        stat = FileStat(st_size=3)
        assert not stat.has_digest
        entry = PartitionEntry(
            path="a", compressor_id=0, stat=stat, compressed_size=3,
            data=b"abc",
        )
        assert entry_payload_ok(entry)


# -- manifest schema/digest validation ----------------------------------


class TestManifestValidation:
    @pytest.fixture()
    def manifest_copy(self, prepared_dataset, tmp_path):
        root = tmp_path / "copy"
        shutil.copytree(prepared_dataset.root, root)
        return root

    def _edit(self, root, mutate):
        path = root / MANIFEST_NAME
        manifest = json.loads(path.read_text())
        mutate(manifest)
        path.write_text(json.dumps(manifest))
        return root

    def test_truncated_manifest_is_manifest_error(self, manifest_copy):
        path = manifest_copy / MANIFEST_NAME
        path.write_text(path.read_text()[: len(path.read_text()) // 2])
        with pytest.raises(ManifestError):
            PreparedDataset.load(manifest_copy)

    def test_missing_key_is_manifest_error_not_keyerror(self, manifest_copy):
        self._edit(manifest_copy, lambda m: m.pop("num_files"))
        with pytest.raises(ManifestError) as exc_info:
            PreparedDataset.load(manifest_copy)
        assert not isinstance(exc_info.value, KeyError)
        assert "num_files" in str(exc_info.value)

    def test_wrong_type_is_manifest_error(self, manifest_copy):
        self._edit(
            manifest_copy, lambda m: m.__setitem__("partitions", "oops")
        )
        with pytest.raises(ManifestError):
            PreparedDataset.load(manifest_copy)

    def test_hand_edited_value_breaks_self_digest(self, manifest_copy):
        self._edit(
            manifest_copy, lambda m: m.__setitem__("num_files", 9999)
        )
        with pytest.raises(ManifestError, match="digest mismatch"):
            PreparedDataset.load(manifest_copy)

    def test_non_object_manifest_rejected(self, manifest_copy):
        (manifest_copy / MANIFEST_NAME).write_text("[1, 2, 3]")
        with pytest.raises(ManifestError):
            PreparedDataset.load(manifest_copy)

    def test_version_1_manifest_still_loads(self, manifest_copy):
        # strip the v2 fields entirely: the pre-digest format
        path = manifest_copy / MANIFEST_NAME
        manifest = json.loads(path.read_text())
        manifest["version"] = 1
        del manifest["manifest_sha256"]
        del manifest["partition_digests"]
        path.write_text(json.dumps(manifest))
        prepared = PreparedDataset.load(manifest_copy)
        assert prepared.partition_digests == {}
        assert prepared.num_files == 15

    def test_manifest_error_is_both_fanstore_and_format_error(self):
        assert issubclass(ManifestError, FanStoreError)
        assert issubclass(ManifestError, FormatError)


# -- verify-on-read + self-repair ---------------------------------------


class TestVerifyOnRead:
    def test_corrupt_staged_copy_heals_from_shared_fs(self, single_store):
        fs = single_store
        victim = sorted(r.path for r in fs.daemon.metadata.records())[0]
        good = fs.client.read_file(victim)
        corrupt_backend(fs.daemon.backend, victim, seed=1)
        assert fs.client.read_file(victim) == good
        assert fs.daemon.stats.corruption_detected == 1
        assert fs.daemon.stats.corruption_repaired == 1
        assert fs.daemon.stats.degraded_reads == 1
        # the healed copy is promoted: the next read is clean and local
        assert fs.client.read_file(victim) == good
        assert fs.daemon.stats.corruption_detected == 1

    def test_cached_plaintext_is_quarantined_on_repair(self, single_store):
        fs = single_store
        victim = sorted(r.path for r in fs.daemon.metadata.records())[0]
        fd = fs.client.open(victim)  # pins the decompressed entry
        corrupt_backend(fs.daemon.backend, victim, seed=2)
        fs.daemon.repair(victim)
        assert fs.daemon.cache.stats.quarantined == 1
        fs.client.close(fd)

    def test_verify_reads_off_serves_bytes_unchecked(self, prepared_dataset):
        config = DaemonConfig(verify_reads=False)
        with FanStore(prepared_dataset, FanStoreOptions(config=config)) as fs:
            victim = sorted(r.path for r in fs.daemon.metadata.records())[0]
            bad = corrupt_backend(fs.daemon.backend, victim, seed=3)
            assert fs.daemon.fetch_compressed(victim) == bad
            assert fs.daemon.stats.corruption_detected == 0

    def test_unrepairable_raises_typed_eio_naming_path(
        self, prepared_dataset, tmp_path
    ):
        bad_root = tmp_path / "bad"
        shutil.copytree(prepared_dataset.root, bad_root)
        prepared = PreparedDataset.load(bad_root)
        victim = read_partition(
            prepared.partition_paths()[0], with_data=False
        )[0].path
        # corrupt the payload inside the partition file *before* load:
        # the staged copy and the shared-FS floor are both bad
        corrupt_record(prepared, victim, seed=7)
        with FanStore(prepared) as fs:
            with pytest.raises(DataIntegrityError) as exc_info:
                fs.client.read_file(victim)
        err = exc_info.value
        assert isinstance(err, OSError)
        assert err.errno == errno.EIO
        assert err.filename == victim
        assert victim in str(err)

    def test_output_files_get_digests(self, single_store):
        fs = single_store
        fs.client.write_file("out/log.txt", b"epoch 0 done\n")
        record = fs.daemon.metadata.get("out/log.txt")
        assert record.has_digest
        # and the write-path digest is enforced on the read path
        corrupt_backend(fs.daemon.backend, "out/log.txt", seed=4)
        with pytest.raises(DataIntegrityError):
            # runtime outputs have no shared-FS floor to repair from
            fs.client.read_file("out/log.txt")


# -- a home hashes a resident object once; a requester every blob -------

PAYLOAD = b"a staged payload " * 16
OFFSET = 9  # where the floor's copy sits in its "partition file"


class _Loopback:
    """Rank 0's communicator wired straight into ``home``'s serve branch
    (``FanStoreDaemon._answer``, shared by a classic request and a batch
    item): each fetch is answered as it is sent, with no thread and no
    clock. The home's silence (a copy it could not repair) is a lost
    reply."""

    rank, size = 0, 2

    def __init__(self, home) -> None:
        self.home = home
        self._replies: dict[int, tuple | None] = {}

    def send(self, payload, dest, tag) -> None:
        kind, body = payload
        request = decode_request(body)
        self._replies[request.reply_tag] = self.home._answer(
            kind, request.subject, request.epoch, NULL_SPAN
        )

    def recv(self, source, tag, timeout=None):
        reply = self._replies.pop(tag)
        if reply is None:
            raise CommError(f"recv from rank {source} timed out")
        return reply


def _home_and_requester(tmp_path):
    """A RAM home (rank 1) of ``data/x`` with a shared-FS floor to heal
    from, and a requester (rank 0) with neither a replica nor a floor:
    whatever it reads came through the home's serve branch."""
    part = tmp_path / "part-0"
    part.write_bytes(b"\0" * OFFSET + PAYLOAD)
    record = FileRecord(
        path="data/x",
        stat=FileStat(st_size=len(PAYLOAD)).with_digest(blob_crc32(PAYLOAD)),
        compressor_id=1,
        compressed_size=len(PAYLOAD),
        home_rank=1,
        partition_id=0,
        data_offset=OFFSET,
    )
    home = FanStoreDaemon()
    home.metadata.insert(record)
    home.backend.put(record.path, PAYLOAD)
    home._prepared = types.SimpleNamespace(
        partition_paths=lambda: [part], broadcast_path=lambda: None
    )
    requester = FanStoreDaemon(
        _Loopback(home), config=DaemonConfig(max_retries=0)
    )
    requester.metadata.insert(record)
    return home, requester


class TestAHomeTrustsAnObjectNotAPath:
    def test_a_rotted_object_is_caught_and_repaired_at_its_home(
        self, tmp_path
    ):
        """Mutant (a), trust by path. The home trusts the object it
        hashed, not the path: once ``corrupt_backend`` swaps the object
        under a path it has served, its next serve hashes, detects and
        repairs, and the requester gets clean bytes with no repair of
        its own. A home that trusts the path serves the corrupt bytes,
        and only the requester's own check stops them."""
        home, requester = _home_and_requester(tmp_path)
        assert requester.fetch_compressed("data/x") == PAYLOAD
        corrupt_backend(home.backend, "data/x", seed=5)
        assert requester.fetch_compressed("data/x") == PAYLOAD
        assert (
            home.stats.corruption_detected, home.stats.corruption_repaired
        ) == (1, 1)
        assert requester.stats.corruption_detected == 0

        home, mutant = _home_and_requester(tmp_path)
        home._hashed_before = lambda norm, data, crc: norm in home._hashed
        assert mutant.fetch_compressed("data/x") == PAYLOAD
        corrupt_backend(home.backend, "data/x", seed=5)
        with pytest.raises(DataIntegrityError):
            mutant.fetch_compressed("data/x")  # no floor of its own
        assert home.stats.corruption_detected == 0
        assert mutant.stats.corruption_detected == 1

    def test_a_new_digest_over_the_same_object_is_hashed_again(
        self, tmp_path
    ):
        """Mutant (b), digest dropped from the trust key. A record whose
        digest changed over an unchanged backend object is hashed again:
        here the object no longer matches, and nothing below matches
        either, so the home falls silent rather than serve it. A trust
        key without the digest serves the stale object."""
        home, _ = _home_and_requester(tmp_path)
        assert self._serve_under_a_new_digest(home) is None
        assert home.stats.corruption_detected == 1

        home, _ = _home_and_requester(tmp_path)
        home._hashed_before = lambda norm, data, crc: (
            home._hashed.get(norm, (None,))[0] is data
        )
        assert self._serve_under_a_new_digest(home) == (Reply.OK, PAYLOAD)
        assert home.stats.corruption_detected == 0

    @staticmethod
    def _serve_under_a_new_digest(home):
        """Serve ``data/x`` once, give its record a new digest over the
        same backend object, and return the second serve's answer."""
        assert home._answer("fetch", "data/x", None, NULL_SPAN) == (
            Reply.OK, PAYLOAD
        )
        record = home.metadata.get("data/x")
        home.metadata.insert(dataclasses.replace(
            record, stat=record.stat.with_digest(blob_crc32(b"other"))
        ))
        return home._answer("fetch", "data/x", None, NULL_SPAN)


# -- every registered compressor refuses corrupt payloads ---------------


def _store_roundtrip_must_not_lie(daemon, name, payload):
    """Stage payload under compressor ``name`` with a digest, corrupt
    the staged bytes two ways, and require the read path to raise."""
    from repro.fanstore.metadata import FileRecord

    compressor = daemon.registry.get(name)
    packed = compressor.compress(payload)
    for variant, mangle in (
        ("bitflip", lambda b: bytes([b[0] ^ 0x10]) + b[1:]),
        ("truncated", lambda b: b[:-1] or b"\x00"),
    ):
        path = f"{name}/{variant}"
        stat = FileStat(st_size=len(payload)).with_digest(blob_crc32(packed))
        daemon.metadata.insert(FileRecord(
            path=path,
            stat=stat,
            compressor_id=compressor.compressor_id,
            compressed_size=len(packed),
            home_rank=0,
            partition_id=0,
        ))
        daemon.backend.put(path, mangle(packed))
        with pytest.raises(DataIntegrityError):
            daemon.open_file(path)


def test_all_registered_compressors_raise_on_corrupt_bytes(registry):
    """Corrupt compressed bytes must raise — never decompress into
    wrong plaintext — for every one of the registered configurations.
    The digest layer guarantees this uniformly: the check happens
    before any codec sees the bytes."""
    from repro.fanstore.daemon import FanStoreDaemon

    payload = (b"integrity is codec-independent. " * 64)
    daemon = FanStoreDaemon(registry=registry)
    for name in registry.names():
        _store_roundtrip_must_not_lie(daemon, name, payload)


def test_an_absurd_size_ends_in_the_length_check(single_store):
    """A record's ``st_size`` is only the decoder's size hint. A zlib
    record that claims 2**40 bytes decodes into a buffer capped at
    deflate's 1032:1 bound (an uncapped hint raises ``MemoryError``)
    and fails the length check as the typed error; every other record
    still reads."""
    daemon = single_store.daemon
    metadata = daemon.metadata
    records = sorted(metadata.walk_files(), key=lambda r: r.path)
    victim = records[0]
    assert daemon.registry.get(victim.compressor_id).name == "zlib-1"
    metadata.insert(dataclasses.replace(
        victim, stat=dataclasses.replace(victim.stat, st_size=2**40)
    ))
    with pytest.raises(FanStoreError, match=f"stat says {2**40}"):
        single_store.client.read_file(victim.path)
    for record in records[1:]:
        data = single_store.client.read_file(record.path)
        assert len(data) == record.stat.st_size
