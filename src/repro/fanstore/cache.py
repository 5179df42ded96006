"""The decompressed-file cache (§IV-C3, Figures 2–4).

FanStore decompresses a file on ``open()`` into a shared cache region
and serves ``read()`` from it. Because DL training touches every file
with equal probability each epoch, retention buys little; the paper's
policy is therefore *minimum RAM*: a FIFO variant where an entry is
pinned while any I/O thread has the file open (a per-entry reference
count incremented on open, decremented on close) and released once its
count returns to zero.

This module implements that policy exactly (``retain_unpinned=False``),
plus a capacity-bounded retention mode (``retain_unpinned=True``) used
by the cache-policy ablation benchmark: entries whose count hits zero
stay cached FIFO-ordered until capacity pressure evicts them, and a
reopened file becomes a cache hit.

How the paper's verbs map here:

- ``open()`` of a file (Figure 2) is :meth:`DecompressedCache.get_or_compute`
  — a hit pins the resident entry, a miss decompresses once per miss
  storm and installs the entry pinned; :meth:`~DecompressedCache.open` /
  :meth:`~DecompressedCache.insert` are the same two steps, unfused.
- ``read()`` (Figure 3) copies out of the pinned entry; the cache is not
  involved.
- ``close()`` (Figure 4) is :meth:`DecompressedCache.close` — unpin, and
  free at refcount zero.
- A whole-file read — ``open``, ``read`` everything, ``close`` with
  nothing in between — is :meth:`DecompressedCache.read_once`. Under the
  paper's policy the entry such a read would install is freed by its
  own close before anyone else could see it, so ``read_once`` skips
  the residency altogether: a resident entry is read without a pin, a
  miss joins or leads the key's in-flight computation and hands back
  its bytes without installing, pinning, unpinning or evicting
  anything. What other readers observe is unchanged — a descriptor
  opened during the read still shares the one in-flight computation.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Callable

from repro.errors import FanStoreError


@dataclass
class CacheStats:
    """Counters for the ablation benchmarks."""

    opens: int = 0
    hits: int = 0
    misses: int = 0
    evictions: int = 0
    rejected: int = 0  # entries larger than the whole cache
    quarantined: int = 0  # entries discarded after integrity failures
    singleflight_leaders: int = 0  # misses that ran the factory
    singleflight_followers: int = 0  # concurrent misses that shared a flight

    @property
    def hit_rate(self) -> float:
        return self.hits / self.opens if self.opens else 0.0


@dataclass
class _Entry:
    data: bytes
    refcount: int = 0
    doomed: bool = False  # quarantined while pinned; never served again


class _Flight:
    """One in-flight miss computation. ``done`` stays None until the
    first follower attaches (under the cache lock) and parks on it.

    The leader leaves its bytes in ``data`` for every follower.
    ``installed`` says whether they are resident already: a
    :meth:`DecompressedCache.get_or_compute` leader installs them itself,
    after a :meth:`DecompressedCache.read_once` leader the first pinning
    follower does — so a flight's bytes are installed at most once.

    The fields start as class-level defaults and an assignment shadows
    them per instance, so building a flight runs no Python ``__init__``
    (every miss builds one)."""

    done: threading.Event | None = None
    error: BaseException | None = None
    data: bytes | None = None
    installed: bool = False


class DecompressedCache:
    """Reference-counted FIFO cache of decompressed file bytes.

    ``capacity_bytes`` bounds resident bytes. Pinned entries (refcount
    > 0) are never evicted; if an insert cannot fit even after evicting
    everything unpinned, the insert still succeeds but is flagged in the
    stats (the shared-memory pool would grow — the paper sizes the pool
    for the largest working set).
    """

    def __init__(
        self, capacity_bytes: int = 1 << 30, *, retain_unpinned: bool = False
    ) -> None:
        if capacity_bytes <= 0:
            raise FanStoreError("cache capacity must be positive")
        self.capacity_bytes = capacity_bytes
        self.retain_unpinned = retain_unpinned
        self._lock = threading.Lock()
        self._entries: "OrderedDict[str, _Entry]" = OrderedDict()
        self._resident = 0
        self.stats = CacheStats()
        # path → the miss being computed for it, guarded by _lock
        self._flights: dict[str, _Flight] = {}

    # -- core protocol ----------------------------------------------------

    def open(self, path: str) -> bytes | None:
        """Pin and return the cached bytes, or None on a miss.

        Mirrors Figure 2's fast path: a second thread opening the same
        file while the first still has it open shares the entry.
        """
        with self._lock:
            return self._pin(path)

    def _pin(self, path: str) -> bytes | None:
        """:meth:`open` with ``_lock`` already held."""
        self.stats.opens += 1
        entry = self._entries.get(path)
        if entry is None or entry.doomed:
            # a doomed entry's bytes came from data that later
            # failed verification: force a re-fetch + re-verify
            self.stats.misses += 1
            return None
        self.stats.hits += 1
        entry.refcount += 1
        return entry.data

    def insert(self, path: str, data: bytes) -> bytes:
        """Install decompressed bytes for an open miss; pins the entry.

        If another thread raced the decompression and inserted first,
        its copy wins and is returned (both threads then share it).
        """
        with self._lock:
            return self._install(path, data)

    def _install(self, path: str, data: bytes) -> bytes:
        """:meth:`insert` with ``_lock`` already held."""
        entry = self._entries.get(path)
        if entry is not None:
            if entry.doomed:
                # replace the quarantined bytes in place: readers
                # already holding the old object keep their (bad)
                # reference, but the path serves only fresh,
                # re-verified bytes from here on — and refcounts
                # stay consistent for every outstanding close().
                # The old bytes leave residency here, so this counts
                # as an eviction; without it, quarantine-then-reload
                # traffic undercounts evictions and the hit-ratio
                # accounting drifts.
                self.stats.evictions += 1
                self._resident += len(data) - len(entry.data)
                entry.data = data
                entry.doomed = False
            entry.refcount += 1
            return entry.data
        self._make_room(len(data))
        self._entries[path] = _Entry(data=data, refcount=1)
        self._resident += len(data)
        if len(data) > self.capacity_bytes:
            self.stats.rejected += 1
        return data

    def get_or_compute(
        self, path: str, factory: Callable[[], bytes]
    ) -> bytes:
        """Pinned bytes for ``path``, computing on a miss — at most one
        ``factory()`` execution per miss storm.

        A plain ``open() → factory() → insert()`` sequence lets N
        threads missing the same key decompress N times (the raced
        :meth:`insert` keeps one copy, but the CPU is already burned).
        Here a miss and its in-flight registration are *one* critical
        section: whoever misses with no flight registered for the key
        leads — runs ``factory`` outside the lock, then installs the
        entry (its own pin) and retires the flight in a second one — so
        nobody can miss, lose the CPU and recompute an entry installed
        meanwhile. A concurrent misser joins the flight, waits, and
        re-opens for its own pin (one miss, then one hit; evicted again
        already — rare — it leads the next flight). When the flight's
        leader was a :meth:`read_once`, which installs nothing, the
        first follower to wake installs the leader's bytes and pins them
        instead (one miss, no second open). A leader failure reaches
        that round's followers as the same exception instance; the next
        caller starts afresh. The waiter ``Event`` is built by the first
        follower, so an uncontended miss has none. Always returns pinned
        bytes; pair with :meth:`close`.
        """
        while True:
            with self._lock:
                data = self._pin(path)
                if data is not None:
                    return data
                flight = self._flights.get(path)
                if flight is None:
                    flight = self._flights[path] = _Flight()
                    break
                self.stats.singleflight_followers += 1
                done = flight.done
                if done is None:
                    done = flight.done = threading.Event()
            done.wait()
            if flight.error is not None:
                raise flight.error
            if not flight.installed:
                with self._lock:
                    if not flight.installed:
                        flight.installed = True
                        return self._install(path, flight.data)
        try:
            data = factory()
            with self._lock:
                data = flight.data = self._install(path, data)
                flight.installed = True
                self.stats.singleflight_leaders += 1
                del self._flights[path]
            return data
        except BaseException as exc:
            flight.error = exc
            with self._lock:
                self._flights.pop(path, None)
            raise
        finally:
            # the flight left the table under the lock: no follower can
            # attach any more, so ``done`` is stable to read here
            if flight.done is not None:
                flight.done.set()

    def read_once(self, path: str, factory: Callable[[], bytes]) -> bytes:
        """``get_or_compute`` + ``close`` with nothing in between, minus
        the residency nobody could observe: the bytes of ``path``,
        never pinned.

        A resident entry that is not doomed is a hit, read without
        touching its refcount. Otherwise this is a miss of the same
        in-flight table :meth:`get_or_compute` uses: with a flight
        registered for the key it follows and returns the leader's
        bytes (whichever kind the leader was); with none it leads — runs
        ``factory`` outside the lock, hands the bytes to its followers
        and retires the flight, installing nothing. Every call counts an
        open and a hit or a miss (and a leader or follower) exactly as
        :meth:`get_or_compute` would; no call counts an eviction. In the
        ``retain_unpinned`` ablation mode a reread must hit, so there it
        *is* ``get_or_compute`` + ``close``.
        """
        if self.retain_unpinned:
            data = self.get_or_compute(path, factory)
            self.close(path)
            return data
        with self._lock:
            self.stats.opens += 1
            entry = self._entries.get(path)
            if entry is not None and not entry.doomed:
                self.stats.hits += 1
                return entry.data
            self.stats.misses += 1
            flight = self._flights.get(path)
            if flight is not None:
                self.stats.singleflight_followers += 1
                done = flight.done
                if done is None:
                    done = flight.done = threading.Event()
            else:
                flight = self._flights[path] = _Flight()
                done = None
        if done is not None:
            done.wait()
            if flight.error is not None:
                raise flight.error
            return flight.data
        try:
            data = flight.data = factory()
            with self._lock:
                self.stats.singleflight_leaders += 1
                del self._flights[path]
            return data
        except BaseException as exc:
            flight.error = exc
            with self._lock:
                self._flights.pop(path, None)
            raise
        finally:
            if flight.done is not None:
                flight.done.set()

    def close(self, path: str) -> None:
        """Unpin; with the paper's policy a zero count frees the entry
        immediately (Figure 4)."""
        with self._lock:
            entry = self._entries.get(path)
            if entry is None or entry.refcount <= 0:
                raise FanStoreError(f"close of non-open cache entry {path!r}")
            entry.refcount -= 1
            if entry.refcount == 0 and (entry.doomed or not self.retain_unpinned):
                self._evict(path)

    def discard(self, path: str) -> bool:
        """Quarantine a path whose source bytes failed verification:
        an unpinned entry is evicted immediately; a pinned one is
        doomed — never served to a new open, freed at its last close.
        Returns True if an entry was present."""
        with self._lock:
            entry = self._entries.get(path)
            if entry is None:
                return False
            self.stats.quarantined += 1
            if entry.refcount == 0:
                self._evict(path)
            else:
                entry.doomed = True
            return True

    # -- internals ----------------------------------------------------------

    def _evict(self, path: str) -> None:
        entry = self._entries.pop(path)
        self._resident -= len(entry.data)
        self.stats.evictions += 1

    def _make_room(self, incoming: int) -> None:
        if self._resident + incoming <= self.capacity_bytes:
            return
        # FIFO order, skipping pinned entries (the paper's exception).
        for path in list(self._entries):
            if self._resident + incoming <= self.capacity_bytes:
                break
            if self._entries[path].refcount == 0:
                self._evict(path)

    # -- observability ------------------------------------------------------

    def bind_metrics(self, metrics) -> None:
        """Register this cache's live counters with a
        :class:`repro.obs.metrics.MetricsRegistry` as ``cache.*``.

        The registry reads *through* to :class:`CacheStats` — the
        dataclass fields stay the storage, so the hot path keeps its
        plain ``+=`` and snapshots still see every update.
        """
        for name in (
            "opens", "hits", "misses", "evictions", "rejected", "quarantined"
        ):
            metrics.bind_counter(f"cache.{name}", self.stats, name)
        metrics.bind_counter(
            "cache.singleflight.leaders", self.stats, "singleflight_leaders"
        )
        metrics.bind_counter(
            "cache.singleflight.followers", self.stats,
            "singleflight_followers",
        )
        metrics.bind_gauge("cache.hit_ratio", fn=lambda: self.stats.hit_rate)
        metrics.bind_gauge("cache.resident_bytes", fn=lambda: self._resident)

    # -- introspection ------------------------------------------------------

    @property
    def resident_bytes(self) -> int:
        with self._lock:
            return self._resident

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def __contains__(self, path: str) -> bool:
        # lock-free: one key test reads no entry, and sees the table
        # from just before or just after a concurrent install or evict
        # (the argument of MetadataTable's docstring)
        return path in self._entries

    def refcount(self, path: str) -> int:
        with self._lock:
            entry = self._entries.get(path)
            return entry.refcount if entry else 0
