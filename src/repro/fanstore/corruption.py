"""Deterministic storage-fault injection — the disk analog of
:mod:`repro.comm.chaos`.

The chaos layer breaks the *wire* (drops, delays, dead ranks); this
module breaks the *bytes at rest*: partition files on the shared FS,
manifests, checkpoint payloads, and staged backend copies. The rule API
deliberately mirrors :class:`~repro.comm.chaos.FaultPlan` — seeded,
chainable, occurrence-bounded, first match wins — so a corruption drill
reads like a chaos drill:

    plan = (StorageFaultPlan(seed=11)
            .bit_flip(pattern="part-*.fst", times=2)
            .truncate(pattern="manifest.json"))
    events = plan.apply_dataset(prepared)

Four fault shapes cover the real-world failure modes the digest layer
must catch:

- **bit_flip** — silent media/DMA corruption: one bit, anywhere;
- **truncate** — a file cut short (interrupted copy, full disk);
- **zero_page** — a page-sized hole of zeros (lost page write);
- **torn_write** — a write that only partially hit disk: the prefix is
  intact, a partial garbage tail follows, the rest is gone.

Determinism: which files match, which offsets are hit, and which bits
flip depend only on the seed and rule order, so a failing integrity
test replays byte-for-byte. Every mutation is recorded as a
:class:`CorruptionEvent` for assertions.

Two targeted helpers bypass the rule engine for tests that need to
corrupt *one specific record*: :func:`corrupt_record` (the payload
bytes inside a partition file on the shared FS) and
:func:`corrupt_backend` (a daemon's staged copy — the shared-FS
original stays good, so the repair ladder can heal it).
"""

from __future__ import annotations

import os
import random
import threading
from dataclasses import dataclass, field
from fnmatch import fnmatch
from pathlib import Path
from typing import TYPE_CHECKING, Iterable

from repro.errors import FanStoreError, FileNotFoundInStoreError
from repro.fanstore.layout import read_partition
from repro.fanstore.metadata import normalize

if TYPE_CHECKING:  # prepare.py is also a script: see repro.fanstore
    from repro.fanstore.prepare import PreparedDataset

#: sentinel actions a rule can take on a matched file.
BIT_FLIP = "bit_flip"
TRUNCATE = "truncate"
ZERO_PAGE = "zero_page"
TORN_WRITE = "torn_write"

_PAGE = 4096


@dataclass
class CorruptionStats:
    """What the plan actually did, for test assertions."""

    bit_flips: int = 0
    truncations: int = 0
    zero_pages: int = 0
    torn_writes: int = 0
    skipped: int = 0  # matched files too small to mutate (empty)

    @property
    def total(self) -> int:
        return (self.bit_flips + self.truncations
                + self.zero_pages + self.torn_writes)


@dataclass(frozen=True)
class CorruptionEvent:
    """One applied mutation: enough to reproduce or undo it by hand."""

    action: str
    path: Path
    offset: int  # first mutated byte (truncate: new length)
    length: int  # mutated span (truncate: bytes removed)


@dataclass
class _Rule:
    """One fault rule: filename predicate + action + occurrence budget."""

    action: str
    pattern: str = "*"
    times: int | None = 1  # matches to consume; None = unlimited
    probability: float = 1.0
    offset: int | None = None  # None = seeded-random position
    length: int = 1  # bit_flip: bits to flip; zero_page: page size
    used: int = field(default=0, compare=False)

    def matches(self, name: str, rng: random.Random) -> bool:
        if self.times is not None and self.used >= self.times:
            return False
        if not fnmatch(name, self.pattern):
            return False
        if self.probability < 1.0 and rng.random() >= self.probability:
            return False
        self.used += 1
        return True


class StorageFaultPlan:
    """A seeded, replayable schedule of at-rest storage faults.

    Rules are consulted in registration order for every file offered to
    :meth:`apply`; the first match wins (one mutation per file per
    pass, like one fault per message in the chaos layer). All mutation
    is behind one lock so concurrent callers observe one consistent
    counter/RNG stream.
    """

    def __init__(self, seed: int = 0) -> None:
        self.seed = seed
        self._rng = random.Random(seed)
        self._rules: list[_Rule] = []
        self._lock = threading.Lock()
        self.stats = CorruptionStats()
        self.events: list[CorruptionEvent] = []

    # -- rule registration (chainable) ------------------------------------

    def bit_flip(
        self,
        *,
        pattern: str = "*",
        times: int | None = 1,
        probability: float = 1.0,
        offset: int | None = None,
        flips: int = 1,
    ) -> "StorageFaultPlan":
        """Flip ``flips`` bits (silent media corruption)."""
        if flips < 1:
            raise ValueError(f"flips must be >= 1, got {flips}")
        self._rules.append(_Rule(BIT_FLIP, pattern, times, probability,
                                 offset, flips))
        return self

    def truncate(
        self,
        *,
        pattern: str = "*",
        times: int | None = 1,
        probability: float = 1.0,
        keep_bytes: int | None = None,
    ) -> "StorageFaultPlan":
        """Cut the file short (interrupted copy / full disk); by default
        at a seeded-random point, or to exactly ``keep_bytes``."""
        self._rules.append(_Rule(TRUNCATE, pattern, times, probability,
                                 keep_bytes))
        return self

    def zero_page(
        self,
        *,
        pattern: str = "*",
        times: int | None = 1,
        probability: float = 1.0,
        offset: int | None = None,
        page_size: int = _PAGE,
    ) -> "StorageFaultPlan":
        """Zero one page-aligned page (lost page write)."""
        if page_size < 1:
            raise ValueError(f"page_size must be >= 1, got {page_size}")
        self._rules.append(_Rule(ZERO_PAGE, pattern, times, probability,
                                 offset, page_size))
        return self

    def torn_write(
        self,
        *,
        pattern: str = "*",
        times: int | None = 1,
        probability: float = 1.0,
        offset: int | None = None,
    ) -> "StorageFaultPlan":
        """Partial write: intact prefix, garbage tail fragment, rest
        gone — the crash-mid-write shape atomic renames exist for."""
        self._rules.append(_Rule(TORN_WRITE, pattern, times, probability,
                                 offset))
        return self

    # -- application ------------------------------------------------------

    def apply(self, paths: Iterable[Path | str]) -> list[CorruptionEvent]:
        """Offer each file to the rules (first match mutates it);
        returns the events of this pass."""
        applied: list[CorruptionEvent] = []
        for p in paths:
            event = self.apply_to(Path(p))
            if event is not None:
                applied.append(event)
        return applied

    def apply_dataset(
        self, prepared: PreparedDataset, *, include_manifest: bool = True
    ) -> list[CorruptionEvent]:
        """Offer every file of a prepared dataset: scattered partitions,
        the broadcast partition, and (optionally) the manifest."""
        targets: list[Path] = list(prepared.partition_paths())
        bcast = prepared.broadcast_path()
        if bcast is not None:
            targets.append(bcast)
        if include_manifest:
            from repro.fanstore.prepare import MANIFEST_NAME

            targets.append(prepared.root / MANIFEST_NAME)
        return self.apply(targets)

    def apply_to(self, path: Path) -> CorruptionEvent | None:
        """Offer one file; mutates it in place when a rule matches."""
        with self._lock:
            rule = self._decide(path.name)
            if rule is None or not path.exists():
                return None
            # lint: allow[blocking-under-lock,durable-write] fault injector tears bytes on purpose — atomicity here would defeat the drill; the lock keeps seeded RNG draws and file mutation atomic so drills replay
            data = bytearray(path.read_bytes())
            event = self._mutate(rule, path, data)
            if event is None:
                self.stats.skipped += 1
                return None
            self.events.append(event)
            return event

    def _decide(self, name: str) -> _Rule | None:
        for rule in self._rules:
            if rule.matches(name, self._rng):
                return rule
        return None

    def _mutate(
        self, rule: _Rule, path: Path, data: bytearray
    ) -> CorruptionEvent | None:
        if not data:
            return None  # nothing to corrupt in an empty file
        rng = self._rng
        if rule.action == BIT_FLIP:
            first = len(data)
            for _ in range(max(1, rule.length)):
                pos = rule.offset if rule.offset is not None else rng.randrange(len(data))
                pos = min(pos, len(data) - 1)
                data[pos] ^= 1 << rng.randrange(8)
                first = min(first, pos)
            # lint: allow[blocking-under-lock,durable-write] fault injector tears bytes on purpose — atomicity here would defeat the drill; the lock keeps seeded RNG draws and file mutation atomic so drills replay
            path.write_bytes(bytes(data))
            self.stats.bit_flips += 1
            return CorruptionEvent(BIT_FLIP, path, first, max(1, rule.length))
        if rule.action == TRUNCATE:
            keep = rule.offset if rule.offset is not None else rng.randrange(len(data))
            keep = max(0, min(keep, len(data) - 1))
            # lint: allow[blocking-under-lock,durable-write] fault injector tears bytes on purpose — atomicity here would defeat the drill; the lock keeps seeded RNG draws and file mutation atomic so drills replay
            path.write_bytes(bytes(data[:keep]))
            self.stats.truncations += 1
            return CorruptionEvent(TRUNCATE, path, keep, len(data) - keep)
        if rule.action == ZERO_PAGE:
            page = max(1, rule.length)
            pos = rule.offset if rule.offset is not None else rng.randrange(len(data))
            start = (min(pos, len(data) - 1) // page) * page
            end = min(start + page, len(data))
            data[start:end] = bytes(end - start)
            # lint: allow[blocking-under-lock,durable-write] fault injector tears bytes on purpose — atomicity here would defeat the drill; the lock keeps seeded RNG draws and file mutation atomic so drills replay
            path.write_bytes(bytes(data))
            self.stats.zero_pages += 1
            return CorruptionEvent(ZERO_PAGE, path, start, end - start)
        # TORN_WRITE: keep a prefix, follow it with a short garbage
        # fragment (the blocks that hit disk out of order), drop the rest
        split = rule.offset if rule.offset is not None else rng.randrange(len(data))
        split = max(0, min(split, len(data) - 1))
        lost = len(data) - split
        fragment = rng.randbytes(rng.randrange(lost)) if lost > 1 else b""
        # lint: allow[blocking-under-lock,durable-write] fault injector tears bytes on purpose — atomicity here would defeat the drill; the lock keeps seeded RNG draws and file mutation atomic so drills replay
        path.write_bytes(bytes(data[:split]) + fragment)
        self.stats.torn_writes += 1
        return CorruptionEvent(TORN_WRITE, path, split, lost)


# -- targeted helpers ------------------------------------------------------


def corrupt_record(
    prepared: PreparedDataset, path: str, *, seed: int = 0
) -> CorruptionEvent:
    """Flip one payload bit of one record *inside its partition file* on
    the shared FS — the surgical strike integrity tests need: exactly
    this record's digest breaks, every other record stays verifiable.

    Mutates the dataset in place; corrupt a **copy** of the prepared
    directory when other tests share it.
    """
    norm = normalize(path)
    rng = random.Random(seed)
    targets = list(prepared.partition_paths())
    bcast = prepared.broadcast_path()
    if bcast is not None:
        targets.append(bcast)
    for part in targets:
        if not part.exists():
            continue
        for entry in read_partition(part, with_data=False):
            if entry.path != norm:
                continue
            if entry.compressed_size <= 0:
                raise FanStoreError(
                    f"{norm}: empty payload has no bits to flip"
                )
            offset = entry.data_offset + rng.randrange(entry.compressed_size)
            # lint: allow[durable-write] surgical in-place bit flip IS the fault being injected; an atomic rewrite would change every byte's identity
            with open(part, "r+b") as fh:
                fh.seek(offset)
                byte = fh.read(1)[0]
                fh.seek(offset)
                fh.write(bytes([byte ^ (1 << rng.randrange(8))]))
                fh.flush()
                os.fsync(fh.fileno())
            return CorruptionEvent(BIT_FLIP, part, offset, 1)
    raise FileNotFoundInStoreError(norm)


def corrupt_backend(backend, path: str, *, seed: int = 0) -> bytes:
    """Flip one bit of a daemon's *staged* copy of ``path`` (node-local
    corruption). The shared-FS partition file is untouched, so the
    verify-on-read repair ladder has a good copy to heal from. Returns
    the corrupted bytes as stored.
    """
    norm = normalize(path)
    data = bytearray(backend.get(norm))
    if not data:
        raise FanStoreError(f"{norm}: empty payload has no bits to flip")
    rng = random.Random(seed)
    data[rng.randrange(len(data))] ^= 1 << rng.randrange(8)
    corrupted = bytes(data)
    backend.put(norm, corrupted)
    return corrupted
