"""I/O trace recording and model-based replay.

The paper's analysis of DL I/O (§II-B) rests on workload
characterization — the Darshan-style methodology of its citations
[17–19]. This module provides that instrument for FanStore itself:

- :class:`TraceRecorder` wraps a :class:`FanStoreClient` and records
  every ``open``/``read``/``stat``/``listdir``/``write`` with payload
  size and measured wall-clock duration;
- :class:`IoTrace` serializes to/from JSONL and summarizes (op mix,
  byte histograms, measured rates);
- :func:`replay` re-costs a recorded trace against any
  :class:`~repro.simnet.devices.StorageModel` — "what would this exact
  workload have cost on raw SSD / FUSE / Lustre?", which is how the
  measured and modeled halves of the reproduction are cross-validated.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, Iterable

from repro.errors import ReproError
from repro.simnet.devices import StorageModel
from repro.util.stats import summarize

if TYPE_CHECKING:  # import kept type-only to avoid a package cycle
    from repro.fanstore.client import FanStoreClient

#: operations a trace may contain.
OPS = ("open", "read", "close", "stat", "listdir", "write")


@dataclass(frozen=True)
class TraceEvent:
    """One recorded I/O operation."""

    op: str
    path: str
    nbytes: int
    duration: float  # measured seconds
    timestamp: float  # seconds since trace start

    def to_json(self) -> str:
        return json.dumps(
            {
                "op": self.op,
                "path": self.path,
                "nbytes": self.nbytes,
                "duration": self.duration,
                "timestamp": self.timestamp,
            }
        )

    @classmethod
    def from_json(cls, line: str) -> "TraceEvent":
        data = json.loads(line)
        if data.get("op") not in OPS:
            raise ReproError(f"unknown trace op {data.get('op')!r}")
        return cls(
            op=data["op"],
            path=data["path"],
            nbytes=int(data["nbytes"]),
            duration=float(data["duration"]),
            timestamp=float(data["timestamp"]),
        )


@dataclass
class IoTrace:
    """An ordered sequence of trace events plus summary accessors."""

    events: list[TraceEvent] = field(default_factory=list)

    def append(self, event: TraceEvent) -> None:
        self.events.append(event)

    def __len__(self) -> int:
        return len(self.events)

    def __iter__(self):
        return iter(self.events)

    # -- persistence ------------------------------------------------------

    def save(self, path: Path | str) -> None:
        with open(path, "w") as fh:
            for e in self.events:
                fh.write(e.to_json() + "\n")

    @classmethod
    def load(cls, path: Path | str) -> "IoTrace":
        trace = cls()
        with open(path) as fh:
            for line in fh:
                line = line.strip()
                if line:
                    trace.append(TraceEvent.from_json(line))
        return trace

    # -- analysis ----------------------------------------------------------

    def op_counts(self) -> dict[str, int]:
        counts = {op: 0 for op in OPS}
        for e in self.events:
            counts[e.op] += 1
        return counts

    def total_bytes(self, op: str = "read") -> int:
        return sum(e.nbytes for e in self.events if e.op == op)

    def measured_seconds(self) -> float:
        return sum(e.duration for e in self.events)

    def summary(self) -> str:
        counts = self.op_counts()
        lines = [f"trace: {len(self.events)} events, "
                 f"{self.measured_seconds() * 1e3:.2f} ms measured"]
        for op, n in counts.items():
            if not n:
                continue
            durations = [e.duration for e in self.events if e.op == op]
            s = summarize(durations)
            lines.append(
                f"  {op:<8} x{n:<6} mean {s.mean * 1e6:8.1f} µs   "
                f"p95 {s.p95 * 1e6:8.1f} µs   "
                f"bytes {self.total_bytes(op)}"
            )
        return "\n".join(lines)


class TraceRecorder:
    """Client wrapper that records every call it forwards.

    Exposes the same convenience surface the loaders use (``read_file``,
    ``read_files``, ``stat``, ``listdir``, ``write_file``), so a loader pointed at the
    recorder produces a complete trace of a training epoch.
    """

    def __init__(self, client: "FanStoreClient") -> None:
        self.client = client
        self.trace = IoTrace()
        self._start = time.perf_counter()

    def _record(self, op: str, path: str, nbytes: int, began: float) -> None:
        now = time.perf_counter()
        self.trace.append(
            TraceEvent(
                op=op,
                path=path,
                nbytes=nbytes,
                duration=now - began,
                timestamp=began - self._start,
            )
        )

    def read_file(self, path: str) -> bytes:
        began = time.perf_counter()
        fd = self.client.open(path)
        self._record("open", path, 0, began)
        began = time.perf_counter()
        data = self.client.read(fd)
        self._record("read", path, len(data), began)
        began = time.perf_counter()
        self.client.close(fd)
        self._record("close", path, 0, began)
        return data

    def read_files(self, paths: Iterable[str]) -> list[bytes]:
        # per file on purpose: the replay models cost open/read/close
        return [self.read_file(path) for path in paths]

    def stat(self, path: str):
        began = time.perf_counter()
        result = self.client.stat(path)
        self._record("stat", path, 0, began)
        return result

    def listdir(self, path: str = ""):
        began = time.perf_counter()
        result = self.client.listdir(path)
        self._record("listdir", path, 0, began)
        return result

    def write_file(self, path: str, data: bytes) -> None:
        began = time.perf_counter()
        self.client.write_file(path, data)
        self._record("write", path, len(data), began)

    # loaders access .daemon for metadata walks
    @property
    def daemon(self):
        return self.client.daemon


def replay(trace: IoTrace | Iterable[TraceEvent], model: StorageModel) -> float:
    """Modeled seconds for the traced workload on ``model``.

    open+read pairs cost one ``read_time`` (the model's per-op term
    covers the open); stats and listdirs cost ``stat_time``; writes cost
    ``write_time``.
    """
    total = 0.0
    for e in trace:
        if e.op == "read":
            total += model.read_time(e.nbytes)
        elif e.op == "write":
            total += model.write_time(e.nbytes)
        elif e.op in ("stat", "listdir"):
            total += model.stat_time()
        # open/close are folded into read_time's per-op term
    return total
