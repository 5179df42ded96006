"""The data-preparation tool (§V-B): partitioning, manifest, CLI."""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro.fanstore.prepare as prepare_module
from repro.errors import FormatError
from repro.fanstore.layout import blob_crc32, iter_partition, read_partition
from repro.fanstore.prepare import (
    MANIFEST_NAME,
    PreparedDataset,
    main,
    prepare_dataset,
)


@pytest.fixture()
def raw_dir(tmp_path):
    d = tmp_path / "raw"
    for sub, n in (("cat", 4), ("dog", 3)):
        (d / sub).mkdir(parents=True)
        for i in range(n):
            (d / sub / f"{sub}{i}.bin").write_bytes(
                f"{sub}-{i}-".encode() * 50
            )
    return d


class TestPrepare:
    def test_round_robin_partitioning(self, raw_dir, tmp_path):
        prep = prepare_dataset(raw_dir, tmp_path / "out", num_partitions=3,
                               threads=1)
        assert prep.num_files == 7
        assert len(prep.partitions) == 3
        counts = [
            len(read_partition(p)) for p in prep.partition_paths()
        ]
        assert counts == [3, 2, 2]  # 7 files round-robin over 3

    def test_paths_are_relative_to_data_dir(self, raw_dir, tmp_path):
        prep = prepare_dataset(raw_dir, tmp_path / "out", threads=1)
        entries = read_partition(prep.partition_paths()[0])
        assert all(
            e.path.startswith(("cat/", "dog/")) for e in entries
        )

    def test_compression_applied_and_recorded(self, raw_dir, tmp_path):
        prep = prepare_dataset(
            raw_dir, tmp_path / "out", compressor="zlib-6", threads=1
        )
        assert prep.ratio > 2.0  # repetitive content compresses
        entries = read_partition(prep.partition_paths()[0])
        assert all(e.compressor_id != 0 for e in entries)
        assert all(e.compressed_size < e.stat.st_size for e in entries)

    def test_incompressible_files_stored_raw(self, tmp_path):
        d = tmp_path / "rand"
        d.mkdir()
        (d / "noise.bin").write_bytes(os.urandom(4096))
        prep = prepare_dataset(d, tmp_path / "out", compressor="zlib-9",
                               threads=1)
        entry = read_partition(prep.partition_paths()[0])[0]
        assert entry.compressor_id == 0  # RAW_ID: compression didn't pay
        assert entry.compressed_size == entry.stat.st_size

    def test_original_size_in_stat(self, raw_dir, tmp_path):
        prep = prepare_dataset(raw_dir, tmp_path / "out", threads=1)
        for p in prep.partition_paths():
            for e in read_partition(p):
                assert e.stat.st_size > 0

    def test_broadcast_partition_flagged(self, raw_dir, tmp_path):
        val = tmp_path / "val"
        val.mkdir()
        (val / "v0.bin").write_bytes(b"validation" * 20)
        prep = prepare_dataset(
            raw_dir, tmp_path / "out", broadcast_dir=val, threads=1
        )
        assert prep.broadcast is not None
        bentries = read_partition(prep.broadcast_path())
        assert all(e.stat.is_broadcast for e in bentries)
        assert bentries[0].path.startswith("val/")

    def test_multithreaded_matches_single(self, raw_dir, tmp_path, monkeypatch):
        """Byte-identical output, from one pool per call (not one per
        partition)."""
        pools = []

        class CountedPool(prepare_module.ThreadPoolExecutor):
            def __init__(self, *args, **kwargs):
                pools.append(self)
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(prepare_module, "ThreadPoolExecutor", CountedPool)
        val = tmp_path / "val"
        val.mkdir()
        (val / "v0.bin").write_bytes(b"validation" * 20)
        p1 = prepare_dataset(raw_dir, tmp_path / "o1", num_partitions=3,
                             broadcast_dir=val, threads=1)
        assert pools == []
        p4 = prepare_dataset(raw_dir, tmp_path / "o4", num_partitions=3,
                             broadcast_dir=val, threads=4)
        assert len(pools) == 1
        assert p1.partition_digests == p4.partition_digests
        for name in [*p1.partitions, p1.broadcast]:
            assert (p1.root / name).read_bytes() == (p4.root / name).read_bytes()

    def test_unknown_compressor_fails_fast(self, raw_dir, tmp_path):
        from repro.errors import UnknownCompressorError

        with pytest.raises(UnknownCompressorError):
            prepare_dataset(raw_dir, tmp_path / "out", compressor="nope")

    def test_empty_dir_rejected(self, tmp_path):
        empty = tmp_path / "empty"
        empty.mkdir()
        with pytest.raises(FormatError):
            prepare_dataset(empty, tmp_path / "out")

    def test_bad_partition_count_rejected(self, raw_dir, tmp_path):
        with pytest.raises(FormatError):
            prepare_dataset(raw_dir, tmp_path / "out", num_partitions=0)


def _packed(prep) -> list:
    """Every scattered entry, partition by partition."""
    return [e for p in prep.partition_paths() for e in read_partition(p)]


class TestEnumeration:
    """What is packed, under which name, in which order — pinned,
    because the round-robin assignment and every manifest digest follow
    from it."""

    def test_order_is_component_wise_not_string_wise(self, tmp_path):
        """The order sorting ``Path`` objects gives: ``a/x`` before
        ``a-b/y`` although ``"a-b/y" < "a/x"`` as strings."""
        d = tmp_path / "raw"
        names = ["a/x.bin", "a/b/z.bin", "a-b/y.bin", "a.b/w.bin", "A/v.bin",
                 "a.bin", "b.bin"]
        for name in names:
            (d / name).parent.mkdir(parents=True, exist_ok=True)
            (d / name).write_bytes(name.encode())
        prep = prepare_dataset(d, tmp_path / "out", threads=1)
        listed = [e.path for e in _packed(prep)]
        assert listed == [
            "A/v.bin", "a/b/z.bin", "a/x.bin", "a-b/y.bin", "a.b/w.bin",
            "a.bin", "b.bin",
        ]
        by_path_objects = sorted(p for p in d.rglob("*") if p.is_file())
        assert listed == [str(p.relative_to(d)) for p in by_path_objects]
        assert listed != sorted(listed)  # a plain string sort differs

    def test_symlinked_file_is_packed_symlinked_dir_is_not(self, tmp_path):
        d = tmp_path / "raw"
        (d / "real").mkdir(parents=True)
        (d / "real" / "f.bin").write_bytes(b"payload")
        outside = tmp_path / "outside"
        outside.mkdir()
        (outside / "g.bin").write_bytes(b"elsewhere")
        (d / "link.bin").symlink_to(d / "real" / "f.bin")
        (d / "linked_dir").symlink_to(outside, target_is_directory=True)
        (d / "dangling").symlink_to(tmp_path / "nowhere")
        prep = prepare_dataset(d, tmp_path / "out", threads=1)
        entries = {e.path: e for e in _packed(prep)}
        assert sorted(entries) == ["link.bin", "real/f.bin"]
        assert entries["link.bin"].stat.st_size == len(b"payload")

    def test_nested_out_dir_is_not_packed_again(self, tmp_path):
        """``out_dir`` inside ``data_dir``: the second run must not
        pack the first run's manifest and partitions as training data."""
        d = tmp_path / "raw"
        d.mkdir()
        (d / "one.bin").write_bytes(b"1" * 100)
        (d / "two.bin").write_bytes(b"2" * 200)
        runs = [
            prepare_dataset(d, d / "packed", threads=1) for _ in range(3)
        ]
        assert [r.num_files for r in runs] == [2, 2, 2]
        assert [r.original_bytes for r in runs] == [300, 300, 300]
        assert [e.path for e in _packed(runs[-1])] == ["one.bin", "two.bin"]

    def test_overlong_name_fails_before_anything_is_written(self, tmp_path):
        """255 bytes of path is the layout's limit; a longer name fails
        at enumeration — not after its partition was compressed."""
        d = tmp_path / "raw"
        deep = d / ("d" * 100) / ("e" * 100)
        deep.mkdir(parents=True)
        (d / "fine.bin").write_bytes(b"ok")
        (deep / ("f" * 60)).write_bytes(b"too deep")
        out = tmp_path / "out"
        with pytest.raises(FormatError, match="path exceeds 255 bytes"):
            prepare_dataset(d, out, threads=1)
        assert not out.exists()
        val = tmp_path / ("v" * 200)
        val.mkdir()
        (val / ("w" * 60)).write_bytes(b"broadcast name too long")
        (deep / ("f" * 60)).unlink()
        with pytest.raises(FormatError, match="path exceeds 255 bytes"):
            prepare_dataset(d, out, broadcast_dir=val, threads=1)
        assert not out.exists()


class TestPackedRecord:
    def test_stat_fields_are_what_the_file_system_says(self, raw_dir, tmp_path):
        prep = prepare_dataset(raw_dir, tmp_path / "out", num_partitions=2,
                               threads=1)
        for pid, ppath in enumerate(prep.partition_paths()):
            for e in read_partition(ppath):
                st = os.stat(raw_dir / e.path)
                assert e.stat.st_size == st.st_size
                assert e.stat.st_blocks == (st.st_size + 511) // 512
                assert e.stat.st_mtime_ns == st.st_mtime_ns
                assert e.stat.st_ctime_ns == st.st_ctime_ns
                # the fstat came after the pack's read: whatever that
                # read did to the atime is recorded
                assert e.stat.st_atime_ns == st.st_atime_ns
                assert (e.stat.st_uid, e.stat.st_gid) == (st.st_uid, st.st_gid)
                assert e.stat.partition_id == pid
                assert e.stat.home_rank == -1  # stamped at load, not here
                assert not e.stat.is_broadcast
                assert e.stat.has_digest
                assert e.stat.crc32 == blob_crc32(e.data)

    def test_every_file_size_packs_whole(self, tmp_path):
        """A file is read by one ``os.read`` when it is smaller than the
        first read asks for, and again, whole, when it is not: both
        sides of that edge, and an empty file, pack byte for byte."""
        first = prepare_module._FIRST_READ
        raw = tmp_path / "raw"
        raw.mkdir()
        sizes = (0, 1, first - 1, first, first + 1, 3 * first + 7)
        for size in sizes:
            (raw / f"f{size:07d}").write_bytes(os.urandom(size))
        prep = prepare_dataset(raw, tmp_path / "out", compressor="memcpy",
                               threads=1)
        entries = read_partition(prep.partition_paths()[0])
        assert [e.stat.st_size for e in entries] == list(sizes)
        for e in entries:
            assert e.data == (raw / e.path).read_bytes()

    def test_partition_roundtrips_through_every_reader(self, raw_dir, tmp_path):
        """The whole-partition parse (every data read, the RAM ingest's
        included) and the streaming reader agree entry by entry, field
        by field, and every payload the parse returns is ``bytes`` of
        its own: what the digest hands libdeflate by address."""
        prep = prepare_dataset(raw_dir, tmp_path / "out", threads=1)
        ppath = prep.partition_paths()[0]
        parsed = read_partition(ppath)
        with open(ppath, "rb") as fh:
            iterated = list(iter_partition(fh))
        with open(ppath, "rb") as fh:
            from_stream = read_partition(fh)
        # every field: path, compressor id, stat, size, payload, offset
        assert parsed and iterated == parsed and from_stream == parsed
        assert {type(e.data) for e in parsed} == {bytes}
        scanned = read_partition(ppath, with_data=False)
        assert [(e.path, e.stat, e.data) for e in scanned] == [
            (e.path, e.stat, None) for e in parsed
        ]


class TestManifest:
    def test_manifest_written_and_loadable(self, raw_dir, tmp_path):
        out = tmp_path / "out"
        prep = prepare_dataset(raw_dir, out, num_partitions=2, threads=1)
        loaded = PreparedDataset.load(out)
        assert loaded.partitions == prep.partitions
        assert loaded.num_files == prep.num_files
        assert loaded.compressor == prep.compressor
        assert loaded.ratio == pytest.approx(prep.ratio)

    def test_missing_manifest_raises(self, tmp_path):
        with pytest.raises(FormatError):
            PreparedDataset.load(tmp_path)

    def test_version_check(self, raw_dir, tmp_path):
        out = tmp_path / "out"
        prepare_dataset(raw_dir, out, threads=1)
        manifest = json.loads((out / MANIFEST_NAME).read_text())
        manifest["version"] = 999
        (out / MANIFEST_NAME).write_text(json.dumps(manifest))
        with pytest.raises(FormatError):
            PreparedDataset.load(out)


class TestCli:
    def test_main(self, raw_dir, tmp_path, capsys):
        rc = main(
            [
                str(raw_dir),
                str(tmp_path / "out"),
                "-p",
                "2",
                "-c",
                "zlib-1",
                "-t",
                "2",
            ]
        )
        assert rc == 0
        assert "packed 7 files" in capsys.readouterr().out
        assert (tmp_path / "out" / MANIFEST_NAME).exists()

    def test_run_as_a_module_it_executes_once(self, raw_dir, tmp_path):
        """``python -m repro.fanstore.prepare``: importing the packages
        above it must not import the module itself, or runpy runs a
        second copy as ``__main__`` and warns — an error here."""
        env = dict(os.environ)
        env["PYTHONPATH"] = str(Path(prepare_module.__file__).parents[2])
        result = subprocess.run(
            [sys.executable, "-W", "error::RuntimeWarning", "-m",
             "repro.fanstore.prepare", str(raw_dir), str(tmp_path / "out"),
             "-p", "2", "-c", "memcpy"],
            env=env, capture_output=True, text=True, timeout=120,
        )
        assert result.returncode == 0, result.stderr
        assert "packed 7 files" in result.stdout


class TestAutoSelection:
    def test_auto_picks_per_file(self, tmp_path):
        d = tmp_path / "mixed"
        d.mkdir()
        (d / "text.txt").write_bytes(b"the same words again and again " * 200)
        (d / "noise.bin").write_bytes(os.urandom(3000))
        prep = prepare_dataset(d, tmp_path / "out", compressor="auto",
                               threads=1)
        entries = read_partition(prep.partition_paths()[0])
        by_name = {e.path: e for e in entries}
        assert by_name["noise.bin"].compressor_id == 0  # stored raw
        assert by_name["text.txt"].compressor_id != 0
        assert by_name["text.txt"].compressed_size < 600

    def test_auto_never_worse_than_single_codec(self, raw_dir, tmp_path):
        auto = prepare_dataset(raw_dir, tmp_path / "auto",
                               compressor="auto", threads=1)
        fixed = prepare_dataset(raw_dir, tmp_path / "fixed",
                                compressor="zlib-6", threads=1)
        assert auto.compressed_bytes <= fixed.compressed_bytes

    def test_auto_roundtrips_through_store(self, raw_dir, tmp_path):
        from repro.fanstore.store import FanStore

        prep = prepare_dataset(raw_dir, tmp_path / "out",
                               compressor="auto", threads=2)
        with FanStore(prep) as fs:
            assert fs.verify_integrity() == prep.num_files
