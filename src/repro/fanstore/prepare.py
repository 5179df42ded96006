"""The data-preparation tool (§V-B).

A standalone, multi-threaded packager: it enumerates a dataset
directory, splits the file list into *partitions*, compresses every
file with the chosen compressor, and concatenates them in the Table I
representation. A directory can instead be marked *broadcast* — its
partition is replicated to every node at load time (the paper uses this
for validation data every node reads in full).

Output directory layout::

    <out>/manifest.json      # partition names, counts, compressor, sizes
    <out>/part-00000.fst     # scattered partitions, round-robin file split
    <out>/broadcast.fst      # optional replicated partition

Preparation happens once per dataset (the partitions live on the shared
file system and are reused across training runs).
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import operator
import os
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Iterable, Sequence

from repro.compressors.registry import CompressorRegistry, default_registry
from repro.errors import FormatError, ManifestError
from repro.fanstore.layout import (
    FLAG_BROADCAST,
    FLAG_HAS_DIGEST,
    MAGIC_PATH_LEN,
    FileStat,
    blob_crc32,
    write_partition,
)
from repro.fanstore.journal import atomic_open, atomic_replace
from repro.fanstore.metadata import normalize

MANIFEST_NAME = "manifest.json"
PARTITION_PATTERN = "part-{:05d}.fst"
BROADCAST_NAME = "broadcast.fst"
#: version 2 added integrity metadata (per-partition sha256 digests and
#: the manifest's self-digest); version-1 manifests still load.
MANIFEST_VERSION = 2
_SUPPORTED_VERSIONS = (1, MANIFEST_VERSION)

#: required manifest keys → accepted value types (None means the JSON
#: null is allowed, used by the optional broadcast partition).
_MANIFEST_SCHEMA: dict[str, tuple] = {
    "version": (int,),
    "partitions": (list,),
    "broadcast": (str, type(None)),
    "compressor": (str,),
    "num_files": (int,),
    "original_bytes": (int,),
    "compressed_bytes": (int,),
}


def sha256_file(path: Path, *, chunk_size: int = 1 << 20) -> str:
    """Streaming sha256 of a file (the whole-partition digest)."""
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        while True:
            chunk = fh.read(chunk_size)
            if not chunk:
                break
            digest.update(chunk)
    return digest.hexdigest()


def manifest_digest(manifest: dict) -> str:
    """Canonical content digest of a manifest dict, excluding the digest
    field itself (sorted keys, so formatting edits don't matter but any
    value edit does)."""
    content = {k: v for k, v in manifest.items() if k != "manifest_sha256"}
    canon = json.dumps(content, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode("utf-8")).hexdigest()


@dataclass(frozen=True)
class PreparedDataset:
    """Handle to a packaged dataset on the shared file system."""

    root: Path
    partitions: list[str]
    broadcast: str | None
    compressor: str
    num_files: int
    original_bytes: int
    compressed_bytes: int
    #: partition file name → sha256 of the whole file (empty for
    #: datasets prepared before manifest version 2)
    partition_digests: dict[str, str] = field(default_factory=dict)

    @property
    def ratio(self) -> float:
        """Whole-dataset compression ratio (original / packed payload)."""
        if self.compressed_bytes == 0:
            return 1.0
        return self.original_bytes / self.compressed_bytes

    def partition_paths(self) -> list[Path]:
        return [self.root / name for name in self.partitions]

    def broadcast_path(self) -> Path | None:
        return self.root / self.broadcast if self.broadcast else None

    def save_manifest(self) -> None:
        manifest = {
            "version": MANIFEST_VERSION,
            "partitions": self.partitions,
            "broadcast": self.broadcast,
            "compressor": self.compressor,
            "num_files": self.num_files,
            "original_bytes": self.original_bytes,
            "compressed_bytes": self.compressed_bytes,
            "partition_digests": self.partition_digests,
        }
        manifest["manifest_sha256"] = manifest_digest(manifest)
        atomic_replace(
            self.root / MANIFEST_NAME, json.dumps(manifest, indent=2)
        )

    @classmethod
    def load(cls, root: Path | str) -> "PreparedDataset":
        """Load and *validate* a manifest: schema, version, and (when
        recorded) the manifest's own digest. Every failure mode — a
        truncated file, a hand-edited value, a missing key — raises
        :class:`~repro.errors.ManifestError`, never ``KeyError``."""
        root = Path(root)
        manifest_path = root / MANIFEST_NAME
        if not manifest_path.exists():
            raise FormatError(f"no {MANIFEST_NAME} under {root}")
        try:
            manifest = json.loads(manifest_path.read_text())
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            raise ManifestError(
                f"{manifest_path}: truncated or corrupt manifest ({exc})"
            ) from exc
        if not isinstance(manifest, dict):
            raise ManifestError(
                f"{manifest_path}: manifest must be a JSON object, "
                f"got {type(manifest).__name__}"
            )
        version = manifest.get("version")
        if version not in _SUPPORTED_VERSIONS:
            raise ManifestError(
                f"unsupported manifest version {version!r} "
                f"(supported: {_SUPPORTED_VERSIONS})"
            )
        for key, types in _MANIFEST_SCHEMA.items():
            if key not in manifest:
                raise ManifestError(
                    f"{manifest_path}: missing manifest key {key!r}"
                )
            if not isinstance(manifest[key], types):
                raise ManifestError(
                    f"{manifest_path}: manifest key {key!r} has type "
                    f"{type(manifest[key]).__name__}, expected "
                    f"{'/'.join(t.__name__ for t in types)}"
                )
        if not all(isinstance(p, str) for p in manifest["partitions"]):
            raise ManifestError(
                f"{manifest_path}: partition names must be strings"
            )
        recorded = manifest.get("manifest_sha256")
        if recorded is not None and recorded != manifest_digest(manifest):
            raise ManifestError(
                f"{manifest_path}: manifest digest mismatch — the file "
                "was hand-edited or torn mid-write"
            )
        return cls(
            root=root,
            partitions=list(manifest["partitions"]),
            broadcast=manifest["broadcast"],
            compressor=manifest["compressor"],
            num_files=manifest["num_files"],
            original_bytes=manifest["original_bytes"],
            compressed_bytes=manifest["compressed_bytes"],
            partition_digests=dict(manifest.get("partition_digests") or {}),
        )

    def verify_partition_digests(self) -> list[str]:
        """Names of partition files whose current sha256 no longer
        matches the digest recorded at prepare time (files without a
        recorded digest are skipped, missing files are reported)."""
        mismatched = []
        for name, recorded in self.partition_digests.items():
            path = self.root / name
            if not path.exists() or sha256_file(path) != recorded:
                mismatched.append(name)
        return mismatched


_ENTRY_NAME = operator.attrgetter("name")


def _enumerate_files(
    root: Path, prefix: str = "", skip: Path | None = None
) -> list[tuple[str, str]]:
    """Deterministic recursive listing of the regular files under
    ``root`` as ``(path on disk, store-relative name)`` pairs; a name
    is ``prefix`` plus the path below ``root``.

    The order is the one sorting ``Path`` objects gives — component by
    component (``a/x`` before ``a-b/y``, which a plain string sort
    reverses), so the round-robin partition assignment does not depend
    on how the listing is produced. Symlinks to files are packed;
    symlinked directories are not descended. The directory ``skip``
    (a previous run's output) is left out with everything below it.
    Every name is checked against the layout's path field here, before
    any file is read.
    """
    try:
        skipped = os.stat(skip) if skip is not None else None
    except FileNotFoundError:
        skipped = None  # nothing was written there yet
    files: list[tuple[str, str]] = []

    def _walk(directory: str, stem: str) -> None:
        with os.scandir(directory) as it:
            entries = sorted(it, key=_ENTRY_NAME)
        for entry in entries:
            if entry.is_dir(follow_symlinks=False):
                if skipped is None or not os.path.samestat(
                    entry.stat(follow_symlinks=False), skipped
                ):
                    _walk(entry.path, f"{stem}{entry.name}/")
            elif entry.is_file():
                name = normalize(stem + entry.name)
                if len(name.encode("utf-8")) >= MAGIC_PATH_LEN:
                    raise FormatError(
                        f"path exceeds {MAGIC_PATH_LEN - 1} bytes: {name!r}"
                    )
                files.append((entry.path, name))

    _walk(os.fspath(root), prefix)
    if not files:
        raise FormatError(f"no files under {root}")
    return files


#: candidate set for per-file "auto" selection: a fast/dense spread of
#: C-backed codecs (pure-Python members excluded on speed grounds).
AUTO_CANDIDATES = ("zlib-1", "zlib-6", "bz2-9", "lzma-0")


def _compress_files(
    files: Sequence[tuple[str, str]],
    compressor_name: str,
    registry: CompressorRegistry,
    run_map: Callable[..., Iterable],
    partition_id: int,
    flags: int = 0,
) -> list[tuple[str, int, FileStat, bytes]]:
    """Compress a chunk of :func:`_enumerate_files` pairs, preserving
    input order in the output; ``run_map`` is ``map`` or a thread pool's
    (§V-B round-robin worker model).

    ``compressor_name="auto"`` picks the smallest output per file from
    :data:`AUTO_CANDIDATES` — the 2-byte per-file compressor id of the
    Table I layout is what makes heterogeneous packing free.
    """
    if compressor_name == "auto":
        candidates = [registry.get(n) for n in AUTO_CANDIDATES]
    else:
        candidates = [registry.get(compressor_name)]
    flags |= FLAG_HAS_DIGEST

    def _one(item: tuple[str, str]) -> tuple[str, int, FileStat, bytes]:
        path, name = item
        with open(path, "rb") as fh:
            raw = fh.read()
            # after the read, as the recorded atime has always been
            st = os.fstat(fh.fileno())
        packed = raw
        comp_id = 0  # RAW_ID: store raw when compression does not pay
        for compressor in candidates:
            attempt = compressor.compress(raw)
            if len(attempt) < len(packed):
                packed = attempt
                comp_id = compressor.compressor_id
        size = len(raw)
        stat = FileStat(
            st_uid=st.st_uid,
            st_gid=st.st_gid,
            st_size=size,
            st_blocks=(size + 511) // 512,
            st_atime_ns=st.st_atime_ns,
            st_mtime_ns=st.st_mtime_ns,
            st_ctime_ns=st.st_ctime_ns,
            partition_id=partition_id,
            flags=flags,
            crc32=blob_crc32(packed),
        )
        return name, comp_id, stat, packed

    return list(run_map(_one, files))


def prepare_dataset(
    data_dir: Path | str,
    out_dir: Path | str,
    *,
    num_partitions: int = 1,
    compressor: str = "zlib-1",
    broadcast_dir: Path | str | None = None,
    threads: int = 4,
    registry: CompressorRegistry | None = None,
) -> PreparedDataset:
    """Package ``data_dir`` into ``num_partitions`` compressed partitions.

    Files are assigned round-robin over the sorted listing (§V-B), so
    partitions are balanced in file count and — for homogeneous datasets
    — in bytes. ``broadcast_dir`` (optional, may live outside
    ``data_dir``) is packaged into a separate partition that every node
    loads in full. ``out_dir`` may lie inside either directory: what a
    previous run wrote there is not training data and is not packed.
    """
    data_dir = Path(data_dir)
    out_dir = Path(out_dir)
    if num_partitions < 1:
        raise FormatError(f"num_partitions must be >= 1, got {num_partitions}")
    registry = registry or default_registry()
    if compressor != "auto":
        registry.get(compressor)  # fail fast on unknown names

    # every listing first: a name the layout cannot hold fails the run
    # before a byte is compressed or written
    files = _enumerate_files(data_dir, skip=out_dir)
    partition_names = [
        PARTITION_PATTERN.format(pid) for pid in range(num_partitions)
    ]
    # (partition file, its files, partition id, stat flags); the files
    # are dealt round-robin over the sorted listing
    jobs = [
        (name, files[pid::num_partitions], pid, 0)
        for pid, name in enumerate(partition_names)
    ]
    if broadcast_dir is not None:
        broadcast_dir = Path(broadcast_dir)
        # named relative to its parent: the directory's own name stays
        bfiles = _enumerate_files(
            broadcast_dir, f"{broadcast_dir.name}/", skip=out_dir
        )
        jobs.append((BROADCAST_NAME, bfiles, num_partitions, FLAG_BROADCAST))

    out_dir.mkdir(parents=True, exist_ok=True)
    partition_digests: dict[str, str] = {}
    total_original = 0
    total_compressed = 0
    num_files = 0
    with contextlib.ExitStack() as stack:
        run_map: Callable[..., Iterable] = map
        if threads > 1:  # one pool per call, not one per partition
            run_map = stack.enter_context(
                ThreadPoolExecutor(max_workers=threads)
            ).map
        for name, chunk, pid, flags in jobs:
            entries = _compress_files(
                chunk, compressor, registry, run_map, pid, flags
            )
            with atomic_open(out_dir / name) as fh:
                write_partition(entries, fh)
            partition_digests[name] = sha256_file(out_dir / name)
            num_files += len(entries)
            total_original += sum(e[2].st_size for e in entries)
            total_compressed += sum(len(e[3]) for e in entries)

    prepared = PreparedDataset(
        root=out_dir,
        partitions=partition_names,
        broadcast=BROADCAST_NAME if broadcast_dir is not None else None,
        compressor=compressor,
        num_files=num_files,
        original_bytes=total_original,
        compressed_bytes=total_compressed,
        partition_digests=partition_digests,
    )
    prepared.save_manifest()
    return prepared


def main(argv: Sequence[str] | None = None) -> int:
    """CLI: ``fanstore-prepare DATA OUT -p N -c zlib-6 [--broadcast DIR]``."""
    parser = argparse.ArgumentParser(
        prog="fanstore-prepare",
        description="Package a dataset into FanStore compressed partitions.",
    )
    parser.add_argument("data", type=Path, help="dataset directory")
    parser.add_argument("out", type=Path, help="output directory")
    parser.add_argument(
        "-p", "--partitions", type=int, default=1, help="partition count"
    )
    parser.add_argument(
        "-c", "--compressor", default="zlib-1", help="compressor name"
    )
    parser.add_argument(
        "--broadcast", type=Path, default=None,
        help="directory replicated to every node (validation data)",
    )
    parser.add_argument("-t", "--threads", type=int, default=os.cpu_count() or 4)
    args = parser.parse_args(argv)
    prepared = prepare_dataset(
        args.data,
        args.out,
        num_partitions=args.partitions,
        compressor=args.compressor,
        broadcast_dir=args.broadcast,
        threads=args.threads,
    )
    print(
        f"packed {prepared.num_files} files into {len(prepared.partitions)} "
        f"partition(s); ratio {prepared.ratio:.2f}"
    )
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
