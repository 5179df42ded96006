"""The fanstore-inspect tool."""

from __future__ import annotations

import shutil

import pytest

from repro.fanstore.corruption import corrupt_record
from repro.fanstore.inspect import (
    list_partition,
    main,
    rebuild_manifest,
    repair_dataset,
    summarize_dataset,
    verify_dataset,
)
from repro.fanstore.layout import read_partition
from repro.fanstore.prepare import MANIFEST_NAME, PreparedDataset


@pytest.fixture()
def dataset_copy(prepared_dataset, tmp_path):
    root = tmp_path / "copy"
    shutil.copytree(prepared_dataset.root, root)
    return PreparedDataset.load(root)


def read_first_record(prepared) -> str:
    return read_partition(prepared.partition_paths()[0], with_data=False)[0].path


class TestSummarize:
    def test_summary_fields(self, prepared_dataset):
        out = summarize_dataset(prepared_dataset.root)
        assert "files:       15" in out
        assert "partitions:  3 + broadcast" in out
        assert "ratio:" in out


class TestList:
    def test_lists_entries_with_compressor(self, prepared_dataset):
        path = prepared_dataset.partition_paths()[0]
        out = list_partition(path)
        assert "entries" in out
        assert "->" in out

    def test_limit_truncates(self, prepared_dataset):
        path = prepared_dataset.partition_paths()[0]
        out = list_partition(path, limit=1)
        assert "more" in out


class TestVerify:
    def test_clean_dataset_verifies(self, prepared_dataset):
        verified, problems = verify_dataset(prepared_dataset.root)
        assert verified == 15
        assert problems == []

    def test_corruption_detected(self, prepared_dataset, tmp_path):
        import shutil

        bad = tmp_path / "bad"
        shutil.copytree(prepared_dataset.root, bad)
        victim = bad / prepared_dataset.partitions[0]
        raw = bytearray(victim.read_bytes())
        raw[-10] ^= 0xFF  # corrupt the last entry's payload
        victim.write_bytes(bytes(raw))
        verified, problems = verify_dataset(bad)
        assert problems
        assert verified < 15


class TestVerifyDigests:
    def test_payload_digest_problem_reported(self, dataset_copy):
        victim = read_first_record(dataset_copy)
        corrupt_record(dataset_copy, victim, seed=3)
        verified, problems = verify_dataset(dataset_copy.root)
        assert f"{victim}: payload digest mismatch" in problems
        assert any("partition digest mismatch" in p for p in problems)

    def test_sample_bounds_work(self, prepared_dataset):
        verified, problems = verify_dataset(prepared_dataset.root, sample=4)
        assert verified == 4
        assert problems == []


class TestRepair:
    def test_rebuild_manifest_from_partitions(self, dataset_copy):
        (dataset_copy.root / MANIFEST_NAME).unlink()
        rebuilt = rebuild_manifest(dataset_copy.root)
        assert rebuilt.num_files == 15
        reloaded = PreparedDataset.load(dataset_copy.root)
        assert reloaded.partitions == dataset_copy.partitions
        assert verify_dataset(dataset_copy.root) == (15, [])

    def test_rebuild_records_no_digest_for_a_torn_partition(
        self, dataset_copy
    ):
        """A partition cut inside its last payload scans to no end: the
        rebuilt manifest gives it no digest (a digest would bless the
        torn bytes), counts none of its files, and repair still reports
        it unreadable."""
        torn = dataset_copy.partition_paths()[-1]
        last = read_partition(torn, with_data=False)[-1]
        torn.write_bytes(torn.read_bytes()[:-3])
        (dataset_copy.root / MANIFEST_NAME).unlink()
        rebuilt = rebuild_manifest(dataset_copy.root)
        assert torn.name in rebuilt.partitions
        assert torn.name not in rebuilt.partition_digests
        assert set(rebuilt.partition_digests) == (
            set(dataset_copy.partition_digests) - {torn.name}
        )
        assert rebuilt.num_files < 15
        _, problems = repair_dataset(dataset_copy.root)
        assert [p for p in problems if p.startswith(torn.name)] == [
            f"{torn.name}: unreadable (truncated partition: expected "
            f"{last.compressed_size} bytes of data); "
            "re-prepare from source"
        ]

    def test_repair_rebuilds_corrupt_manifest(self, dataset_copy):
        (dataset_copy.root / MANIFEST_NAME).write_text("{ not json")
        repaired, problems = repair_dataset(dataset_copy.root)
        assert any("manifest.json: rebuilt" in r for r in repaired)
        assert problems == []
        assert verify_dataset(dataset_copy.root) == (15, [])

    def test_repair_recompresses_record_from_source(
        self, dataset_copy, raw_dataset_dir
    ):
        victim = read_first_record(dataset_copy)
        corrupt_record(dataset_copy, victim, seed=5)
        repaired, problems = repair_dataset(
            dataset_copy.root, source=raw_dataset_dir / "train"
        )
        assert f"{victim}: re-compressed from source" in repaired
        assert problems == []
        assert verify_dataset(dataset_copy.root) == (15, [])

    def test_repair_without_source_reports_unrepaired(self, dataset_copy):
        victim = read_first_record(dataset_copy)
        corrupt_record(dataset_copy, victim, seed=5)
        repaired, problems = repair_dataset(dataset_copy.root)
        assert f"{victim}: unrepaired (no good source)" in problems


class TestCli:
    def test_main_summary(self, prepared_dataset, capsys):
        assert main([str(prepared_dataset.root)]) == 0
        assert "ratio" in capsys.readouterr().out

    def test_main_verify_ok(self, prepared_dataset, capsys):
        assert main([str(prepared_dataset.root), "--verify"]) == 0
        assert "verified 15 entries" in capsys.readouterr().out

    def test_main_list(self, prepared_dataset, capsys):
        assert main([str(prepared_dataset.root), "--list", "--limit", "2"]) == 0
        out = capsys.readouterr().out
        assert "part-00000.fst" in out

    def test_main_verify_corrupt_exits_nonzero(self, prepared_dataset,
                                               tmp_path, capsys):
        import shutil

        bad = tmp_path / "bad"
        shutil.copytree(prepared_dataset.root, bad)
        victim = bad / prepared_dataset.partitions[1]
        raw = bytearray(victim.read_bytes())
        raw[-5] ^= 0x55
        victim.write_bytes(bytes(raw))
        assert main([str(bad), "--verify"]) == 1
        assert "PROBLEM" in capsys.readouterr().out

    def test_main_verify_sample(self, prepared_dataset, capsys):
        assert main([str(prepared_dataset.root), "--verify",
                     "--sample", "4"]) == 0
        assert "verified 4 entries" in capsys.readouterr().out

    def test_main_repair_with_source_exits_zero(
        self, dataset_copy, raw_dataset_dir, capsys
    ):
        victim = read_first_record(dataset_copy)
        corrupt_record(dataset_copy, victim, seed=9)
        argv = [str(dataset_copy.root), "--verify", "--repair",
                "--source", str(raw_dataset_dir / "train")]
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert f"REPAIRED: {victim}: re-compressed from source" in out
        assert "verified 15 entries" in out

    def test_main_repair_without_source_exits_nonzero(
        self, dataset_copy, capsys
    ):
        victim = read_first_record(dataset_copy)
        corrupt_record(dataset_copy, victim, seed=9)
        assert main([str(dataset_copy.root), "--verify", "--repair"]) == 1
        assert "unrepaired" in capsys.readouterr().out

    def test_main_corrupt_manifest_summary_is_loud(self, dataset_copy,
                                                   capsys):
        (dataset_copy.root / MANIFEST_NAME).write_text("{ not json")
        assert main([str(dataset_copy.root)]) == 1
        out = capsys.readouterr().out
        assert "PROBLEM" in out
        assert "--repair" in out  # the hint
