"""Partition/dataset inspection tool: ``fanstore-inspect``.

Operational tooling the original system ships alongside the preparation
tool: inspect a packed dataset (manifest summary, per-partition entry
listings, compressor histogram), verify integrity offline — per-record
payload digests, whole-partition sha256 digests, and full decompression
against stat records — and repair what verification finds:

- ``--verify`` checks everything (``--sample N`` spot-checks the first
  N records instead); the exit code is non-zero while any problem is
  unrepaired, so the command slots into cron/CI as a scrub drill;
- ``--repair`` rebuilds a missing or corrupt ``manifest.json`` from the
  partition files themselves, and — given ``--source DATA_DIR`` —
  re-compresses damaged records from the original files and rewrites
  their partitions;
- ``--ownership FILE`` consumes a runtime ownership map (the JSON from
  ``FanStore.export_ownership()``) so every reported problem names the
  record's *current* home and replicas — after the membership layer
  re-replicates a dead rank's records, offline repair must talk about
  the new owners, not the original layout, or the two repair paths race
  each other.
"""

from __future__ import annotations

import argparse
import json
import sys
from collections import Counter
from pathlib import Path
from typing import Sequence

from repro.compressors.registry import default_registry
from repro.errors import FormatError, ManifestError
from repro.fanstore.journal import atomic_open
from repro.fanstore.layout import (
    blob_crc32,
    entry_payload_ok,
    read_partition,
    write_partition,
)
from repro.fanstore.prepare import (
    BROADCAST_NAME,
    PreparedDataset,
    sha256_file,
)
from repro.util.units import format_bytes


def summarize_dataset(root: Path) -> str:
    """Manifest-level summary of a prepared dataset."""
    prepared = PreparedDataset.load(root)
    lines = [
        f"prepared dataset at {root}",
        f"  files:       {prepared.num_files}",
        f"  partitions:  {len(prepared.partitions)}"
        + (" + broadcast" if prepared.broadcast else ""),
        f"  compressor:  {prepared.compressor}",
        f"  original:    {format_bytes(prepared.original_bytes)}",
        f"  packed:      {format_bytes(prepared.compressed_bytes)}",
        f"  ratio:       {prepared.ratio:.2f}x",
    ]
    return "\n".join(lines)


def list_partition(path: Path, *, limit: int | None = None) -> str:
    """Entry listing of one partition file."""
    entries = read_partition(path, with_data=False)
    lines = [f"{path.name}: {len(entries)} entries"]
    registry = default_registry()
    comp_hist: Counter = Counter()
    for e in entries[: limit or len(entries)]:
        comp = registry.get(e.compressor_id).name
        comp_hist[comp] += 1
        lines.append(
            f"  {e.path:<40} {e.stat.st_size:>10} -> "
            f"{e.compressed_size:>10}  [{comp}]"
        )
    if limit is not None and len(entries) > limit:
        lines.append(f"  ... {len(entries) - limit} more")
    return "\n".join(lines)


def load_ownership(path: Path) -> dict:
    """Load an ownership map exported by ``FanStore.export_ownership()``
    (view epoch + per-path home/replica ranks)."""
    with open(path, encoding="utf-8") as fh:
        ownership = json.load(fh)
    if "files" not in ownership:
        raise FormatError(f"{path}: not an ownership export (no 'files' key)")
    return ownership


def _owner_note(path: str, ownership: dict | None) -> str:
    """`` [owner: rank N, replicas ...]`` suffix for problem lines, so
    operators act against the record's current home — which, after a
    re-replication, is not the rank the original layout suggests."""
    if ownership is None:
        return ""
    entry = ownership.get("files", {}).get(path)
    if entry is None:
        return " [owner: unknown to the exported view]"
    replicas = ",".join(str(r) for r in entry.get("replicas", [])) or "none"
    return (
        f" [owner: rank {entry.get('home')}, replicas {replicas}, "
        f"view epoch {ownership.get('epoch', 0)}]"
    )


def verify_dataset(
    root: Path, *, sample: int | None = None, ownership: dict | None = None
) -> tuple[int, list[str]]:
    """Offline integrity check of a prepared dataset.

    Three layers, cheapest problem wins per record: the whole-partition
    sha256 recorded in the manifest (skipped when sampling), the
    per-record payload crc32, and a full decompression against the stat
    record. ``sample`` bounds the number of records checked; an
    ``ownership`` export annotates each per-record problem with its
    current home/replicas.

    Returns ``(verified_count, problems)``.
    """
    prepared = PreparedDataset.load(root)
    registry = default_registry()
    problems: list[str] = []
    verified = 0
    checked = 0
    if sample is None:
        for name in prepared.verify_partition_digests():
            problems.append(f"{name}: partition digest mismatch")
    paths = prepared.partition_paths()
    if prepared.broadcast:
        paths.append(prepared.broadcast_path())
    for ppath in paths:
        if sample is not None and checked >= sample:
            break
        try:
            entries = read_partition(ppath, with_data=True)
        except FormatError as exc:
            problems.append(f"{ppath.name}: unreadable ({exc})")
            continue
        for e in entries:
            if sample is not None and checked >= sample:
                break
            checked += 1
            note = _owner_note(e.path, ownership)
            if not entry_payload_ok(e):
                problems.append(f"{e.path}: payload digest mismatch{note}")
                continue
            try:
                plain = registry.get(e.compressor_id).decompress(
                    e.data, e.stat.st_size
                )
            except Exception as exc:  # noqa: BLE001 - reported, not raised
                problems.append(f"{e.path}: decompression failed ({exc}){note}")
                continue
            if len(plain) != e.stat.st_size:
                problems.append(
                    f"{e.path}: size mismatch "
                    f"({len(plain)} != {e.stat.st_size}){note}"
                )
            else:
                verified += 1
    return verified, problems


def rebuild_manifest(root: Path) -> PreparedDataset:
    """Reconstruct ``manifest.json`` from the partition files themselves
    (counts, sizes, dominant compressor, fresh digests) — the manifest
    is derived state, so losing it must never lose the dataset. A
    partition that does not scan to its end (torn) stays listed but
    gets no digest and adds no files: a digest of the torn bytes would
    make them look prepared, and :func:`repair_dataset` reports it."""
    root = Path(root)
    part_names = sorted(p.name for p in root.glob("part-*.fst"))
    if not part_names:
        raise ManifestError(f"{root}: no partition files to rebuild from")
    broadcast = BROADCAST_NAME if (root / BROADCAST_NAME).exists() else None
    registry = default_registry()
    comp_hist: Counter = Counter()
    num_files = original = compressed = 0
    digests: dict[str, str] = {}
    for name in part_names + ([broadcast] if broadcast else []):
        try:
            entries = read_partition(root / name, with_data=False)
        except FormatError:
            continue
        for e in entries:
            comp_hist[registry.get(e.compressor_id).name] += 1
            num_files += 1
            original += e.stat.st_size
            compressed += e.compressed_size
        digests[name] = sha256_file(root / name)
    prepared = PreparedDataset(
        root=root,
        partitions=part_names,
        broadcast=broadcast,
        compressor=comp_hist.most_common(1)[0][0] if comp_hist else "raw",
        num_files=num_files,
        original_bytes=original,
        compressed_bytes=compressed,
        partition_digests=digests,
    )
    prepared.save_manifest()
    return prepared


def repair_dataset(
    root: Path, *, source: Path | None = None, ownership: dict | None = None
) -> tuple[list[str], list[str]]:
    """Repair what offline verification can find.

    Returns ``(repaired, problems)`` — human-readable action lines and
    the damage that remains. A corrupt/missing manifest is rebuilt from
    the partitions; a record whose payload fails its digest (or
    decompression) is re-compressed from ``source`` and its partition
    rewritten; a partition whose sha256 drifted while every record
    verifies (e.g. a flip in dead header padding) is rewritten in
    canonical form. Truncated partitions are unrepairable offline — the
    torn-off records' membership is unknown — and are reported.
    """
    root = Path(root)
    repaired: list[str] = []
    problems: list[str] = []
    registry = default_registry()
    try:
        prepared = PreparedDataset.load(root)
    except (ManifestError, FormatError):
        prepared = rebuild_manifest(root)
        repaired.append("manifest.json: rebuilt from partition files")
    paths = prepared.partition_paths()
    if prepared.broadcast:
        paths.append(prepared.broadcast_path())
    manifest_dirty = False
    for ppath in paths:
        if not ppath.exists():
            problems.append(f"{ppath.name}: missing")
            continue
        try:
            entries = read_partition(ppath, with_data=True)
        except FormatError as exc:
            problems.append(
                f"{ppath.name}: unreadable ({exc}); re-prepare from source"
            )
            continue
        rewrite = False
        fixed: list[tuple[str, int, object, bytes]] = []
        for e in entries:
            data = e.data
            assert data is not None
            bad = not entry_payload_ok(e)
            if not bad:
                try:
                    plain = registry.get(e.compressor_id).decompress(
                        data, e.stat.st_size
                    )
                    bad = len(plain) != e.stat.st_size
                except Exception:  # noqa: BLE001 - becomes a repair target
                    bad = True
            if bad:
                fresh = _recompress(e, source, registry)
                if fresh is None:
                    problems.append(
                        f"{e.path}: unrepaired (no good source)"
                        f"{_owner_note(e.path, ownership)}"
                    )
                else:
                    data = fresh
                    rewrite = True
                    repaired.append(f"{e.path}: re-compressed from source")
            fixed.append((e.path, e.compressor_id, e.stat, data))
        recorded = prepared.partition_digests.get(ppath.name)
        if not rewrite and recorded is not None and sha256_file(ppath) != recorded:
            rewrite = True  # damage confined to dead bytes: canonicalize
            repaired.append(f"{ppath.name}: rewritten in canonical form")
        if rewrite:
            with atomic_open(ppath) as fh:
                write_partition(fixed, fh)  # type: ignore[arg-type]
            prepared.partition_digests[ppath.name] = sha256_file(ppath)
            manifest_dirty = True
    if manifest_dirty:
        prepared.save_manifest()
    return repaired, problems


def _recompress(entry, source: Path | None, registry) -> bytes | None:
    """Re-create one record's compressed payload from the original file;
    None when the source is unavailable or no longer byte-identical."""
    if source is None:
        return None
    original = Path(source) / entry.path
    if not original.is_file():
        return None
    compressor = registry.get(entry.compressor_id)
    packed = compressor.compress(original.read_bytes())
    if entry.stat.has_digest and blob_crc32(packed) != entry.stat.crc32:
        return None  # the source file changed since prepare time
    return packed


def main(argv: Sequence[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="fanstore-inspect",
        description="Inspect, verify, and repair FanStore prepared datasets.",
    )
    parser.add_argument("root", type=Path, help="prepared dataset directory")
    parser.add_argument(
        "--list", action="store_true", help="list every partition's entries"
    )
    parser.add_argument(
        "--verify", action="store_true",
        help="check digests and decompress everything against stat records",
    )
    parser.add_argument(
        "--sample", type=int, default=None, metavar="N",
        help="with --verify: spot-check only the first N records",
    )
    parser.add_argument(
        "--repair", action="store_true",
        help="rebuild a bad manifest; with --source, re-compress bad records",
    )
    parser.add_argument(
        "--source", type=Path, default=None, metavar="DIR",
        help="original dataset directory to repair payloads from",
    )
    parser.add_argument(
        "--ownership", type=Path, default=None, metavar="FILE",
        help="runtime ownership export (FanStore.export_ownership JSON); "
        "problems are annotated with each record's current home/replicas",
    )
    parser.add_argument("--limit", type=int, default=20,
                        help="max entries listed per partition")
    args = parser.parse_args(argv)

    ownership = None
    if args.ownership is not None:
        try:
            ownership = load_ownership(args.ownership)
        except (OSError, ValueError, FormatError) as exc:
            print(f"PROBLEM: {exc}")
            return 1

    if args.repair:
        repaired, problems = repair_dataset(
            args.root, source=args.source, ownership=ownership
        )
        for r in repaired:
            print(f"REPAIRED: {r}")
        for p in problems:
            print(f"PROBLEM: {p}")

    try:
        print(summarize_dataset(args.root))
    except FormatError as exc:  # ManifestError included
        print(f"PROBLEM: {exc}")
        print("hint: --repair rebuilds the manifest from partition files")
        return 1
    if args.list:
        prepared = PreparedDataset.load(args.root)
        for name in prepared.partitions + (
            [prepared.broadcast] if prepared.broadcast else []
        ):
            print()
            print(list_partition(args.root / name, limit=args.limit))
    if args.verify:
        verified, problems = verify_dataset(
            args.root, sample=args.sample, ownership=ownership
        )
        print(f"\nverified {verified} entries")
        for p in problems:
            print(f"  PROBLEM: {p}")
        if problems:
            return 1
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
