"""Checkpoint/resume support (§V-E).

FanStore does not replicate for fault tolerance: batch-size-sensitive
training cannot transparently absorb a lost node anyway, so the paper's
answer is the DL-standard one — epoch-numbered checkpoints on the
*shared* file system, resumable after relaunching at the same scale.
This module implements that convention: checkpoint naming, atomic
writes, latest-checkpoint discovery, and pruning.
"""

from __future__ import annotations

import hashlib
import json
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Any

from repro.errors import DataIntegrityError, FanStoreError
from repro.fanstore.journal import atomic_replace, fsync_dir

_CKPT_RE = re.compile(r"^checkpoint-(\d{6})\.ckpt$")
_CKPT_TMP_RE = re.compile(r"^checkpoint-\d{6}\.ckpt\.\d+\.[0-9a-f]{32}\.tmp$")


def _payload_digest(epoch: int, payload: dict[str, Any]) -> str:
    """Canonical sha256 of a checkpoint's content (epoch + state), so a
    bit flip anywhere in the saved state is caught at load time."""
    canon = json.dumps(
        {"epoch": epoch, "state": payload},
        sort_keys=True,
        separators=(",", ":"),
    )
    return hashlib.sha256(canon.encode("utf-8")).hexdigest()


@dataclass(frozen=True)
class Checkpoint:
    """One saved training state."""

    epoch: int
    path: Path
    payload: dict[str, Any]


class CheckpointManager:
    """Epoch-numbered checkpoints in a shared directory.

    Payloads are JSON dicts (model/optimizer state supplied by the
    trainer as lists). Writes are atomic (tmp + rename) so a node crash
    mid-write never corrupts the resume point.
    """

    def __init__(self, directory: Path | str, *, keep_last: int | None = None) -> None:
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        if keep_last is not None and keep_last < 1:
            raise FanStoreError(f"keep_last must be >= 1, got {keep_last}")
        self.keep_last = keep_last

    def _path_for(self, epoch: int) -> Path:
        if epoch < 0 or epoch > 999_999:
            raise FanStoreError(f"epoch out of range: {epoch}")
        return self.directory / f"checkpoint-{epoch:06d}.ckpt"

    def save(self, epoch: int, payload: dict[str, Any]) -> Path:
        """Atomically persist ``payload`` as the epoch's checkpoint.

        Delegates to the store-wide atomic-apply helper
        (:func:`~repro.fanstore.journal.atomic_replace`): the tmp name
        carries a pid+uuid suffix so two writers racing on the same
        epoch (every rank of a relaunched job, say) never clobber each
        other's half-written file, the payload is fsynced before the
        rename, and the parent directory is fsynced after it — a crash
        right after ``save`` returns still finds complete bytes behind
        the final name, and the rename itself survives power loss. The
        §V-E resume point must survive exactly those crashes.
        """
        final = self._path_for(epoch)
        atomic_replace(final, json.dumps({
            "epoch": epoch,
            "state": payload,
            "sha256": _payload_digest(epoch, payload),
        }))
        if self.keep_last is not None:
            self._prune()
        return final

    def gc_orphans(self) -> int:
        """Remove ``*.tmp`` leftovers of savers that crashed between
        opening their tmp file and renaming it — the one state the
        atomic write can leak. Safe against live concurrent savers up
        to the (already accepted) pid+uuid collision odds; call it on
        restart, before resuming. Returns the number removed."""
        removed = 0
        for entry in self.directory.iterdir():
            if _CKPT_TMP_RE.match(entry.name):
                entry.unlink(missing_ok=True)
                removed += 1
        if removed:
            fsync_dir(self.directory)
        return removed

    def epochs(self) -> list[int]:
        """Checkpointed epochs, ascending."""
        found = []
        for entry in self.directory.iterdir():
            m = _CKPT_RE.match(entry.name)
            if m:
                found.append(int(m.group(1)))
        return sorted(found)

    def load(self, epoch: int) -> Checkpoint:
        """Load and *verify* one checkpoint: unparsable or structurally
        wrong files raise :class:`~repro.errors.FanStoreError`; a parsed
        file whose recorded payload digest no longer matches raises
        :class:`~repro.errors.DataIntegrityError` naming the path.
        Checkpoints saved before digests existed still load."""
        path = self._path_for(epoch)
        if not path.exists():
            raise FanStoreError(f"no checkpoint for epoch {epoch}")
        try:
            blob = json.loads(path.read_text())
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            raise FanStoreError(
                f"checkpoint {path.name} is truncated or corrupt ({exc})"
            ) from exc
        if not isinstance(blob, dict) or "state" not in blob:
            raise FanStoreError(
                f"checkpoint {path.name} has no state payload"
            )
        if blob.get("epoch") != epoch:
            raise FanStoreError(
                f"checkpoint {path.name} claims epoch {blob.get('epoch')}"
            )
        recorded = blob.get("sha256")
        if recorded is not None and recorded != _payload_digest(
            epoch, blob["state"]
        ):
            raise DataIntegrityError(
                str(path), "checkpoint payload digest mismatch"
            )
        return Checkpoint(epoch=epoch, path=path, payload=blob["state"])

    def latest(self) -> Checkpoint | None:
        """The resume point after a failure (§V-E), or None if fresh.

        A corrupt newest checkpoint (the likeliest casualty — it was
        being written when the node died) falls back to the previous
        epoch rather than killing the resume; only when *every*
        checkpoint fails verification does the error propagate, because
        silently restarting from scratch would discard the run."""
        epochs = self.epochs()
        if not epochs:
            return None
        last_error: FanStoreError | None = None
        for epoch in reversed(epochs):
            try:
                return self.load(epoch)
            except FanStoreError as exc:  # includes DataIntegrityError
                last_error = exc
        assert last_error is not None
        raise last_error

    def _prune(self) -> None:
        assert self.keep_last is not None
        epochs = self.epochs()
        doomed = epochs[: -self.keep_last]
        for epoch in doomed:
            self._path_for(epoch).unlink(missing_ok=True)
        if doomed:
            # the unlinks are directory mutations too: without this a
            # crash can resurrect a pruned epoch as the "latest"
            fsync_dir(self.directory)
