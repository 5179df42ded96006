"""Scheduler primitives for the pipelined daemon core.

The paper's throughput argument (Eq. 2) assumes fetch and decompress
*overlap*; PR 9 makes the daemon actually do that. This module holds the
two building blocks that are independent of the daemon itself:

- :class:`PipelineConfig` — the coherent knob group (worker pool width,
  in-flight bound, batching limits) promoted into
  :class:`~repro.fanstore.daemon.DaemonConfig` /
  :class:`~repro.fanstore.store.FanStoreOptions`;
- :class:`SingleFlight` — a keyed in-flight table: concurrent callers of
  the same key share one execution of the underlying work (one upstream
  fetch for a miss storm, one decompression for a cache-miss race); a
  flight nobody joins costs a dict insert and a pop, no waiter object.

Everything here is stdlib-only and takes no fanstore locks of its own
beyond the table mutex, which is never held across the coalesced work.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Any, Callable, Hashable

from repro.errors import FanStoreError


@dataclass(frozen=True)
class PipelineConfig:
    """Tunables of the daemon's pipelined scheduler.

    ``pipeline_workers`` is the serve-side stage pool: admitted requests
    are dispatched to this many worker threads so the serve loop never
    blocks on digest-verify or codec work. ``0`` restores the legacy
    inline loop (requests served one at a time on the service thread) —
    the blocking baseline the saturation benchmark measures against.

    ``max_inflight`` bounds how many admitted requests may be in flight
    across the worker pool at once; the serve loop stops dispatching
    (but keeps draining + shedding its mailbox) when the bound is hit,
    so admission control stays live under a stalled pool.

    ``batch_max`` caps how many parked client requests one flush may
    coalesce into a single batched envelope per destination; ``1``
    disables client-side batching entirely. ``batch_linger`` is the
    extra wait (seconds) an elected flush leader spends letting the
    batch fill before flushing. The default is ``0`` — *opportunistic*
    batching: a flush packs whatever already parked behind the busy
    destination and sends immediately, trading no latency at all for
    its round-trip savings (backlog, not waiting, is what fills
    batches). A nonzero linger buys bigger batches at the price of
    added latency on every flush that is not already full — keep it
    well below typical request latency.

    ``coalesce`` turns single-flight fetch coalescing off: concurrent
    fetches of the same key each run their own failover ladder, as the
    pre-pipelining daemon did. Coalescing shares *outcomes* — a
    follower observes the leader's error as its own — so callers that
    need per-request error independence (or a true blocking baseline,
    as the saturation benchmark does) can opt out.
    """

    pipeline_workers: int = 4
    max_inflight: int = 32
    batch_max: int = 16
    batch_linger: float = 0.0
    coalesce: bool = True

    def __post_init__(self) -> None:
        if self.pipeline_workers < 0:
            raise FanStoreError(
                f"pipeline_workers must be >= 0, got {self.pipeline_workers}"
            )
        if self.max_inflight < 1:
            raise FanStoreError(
                f"max_inflight must be >= 1, got {self.max_inflight}"
            )
        if self.batch_max < 1:
            raise FanStoreError(
                f"batch_max must be >= 1, got {self.batch_max}"
            )
        if self.batch_linger < 0:
            raise FanStoreError(
                f"batch_linger must be >= 0, got {self.batch_linger}"
            )


class _Flight:
    """One in-flight execution. ``done`` stays None until the first
    follower attaches (under the table lock) and parks on it."""

    __slots__ = ("done", "value", "error")

    def __init__(self) -> None:
        self.done: threading.Event | None = None
        self.value: Any = None
        self.error: BaseException | None = None


class SingleFlight:
    """Keyed single-flight coalescing.

    The first caller of :meth:`run` for a key becomes the *leader* and
    executes ``fn`` (outside the table lock); every concurrent caller of
    the same key becomes a *follower* and waits for the leader's result
    instead of duplicating the work. The leader's exception propagates
    to that round's followers (the same instance — callers must treat it
    as shared). The flight leaves the table before followers wake, so a
    later caller starts a fresh flight rather than reading a stale one.

    The waiter (a ``threading.Event``) is built by the first follower,
    not by the leader: an uncontended flight — nearly every one on the
    read path, which runs two per open — allocates and signals nothing.
    No wake-up is lost, because followers attach only while the flight
    is in the table and the leader reads ``flight.done`` under the same
    lock that removes it.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._flights: dict[Hashable, _Flight] = {}

    def run(
        self,
        key: Hashable,
        fn: Callable[[], Any],
        *,
        timeout: float | None = None,
    ) -> tuple[Any, bool]:
        """Coalesced execution of ``fn`` under ``key``.

        Returns ``(value, led)`` where ``led`` tells the caller whether
        it ran the work itself (leaders may hold resources — e.g. a
        cache pin — that followers must acquire for themselves). A
        follower whose ``timeout`` lapses before the leader finishes
        raises :class:`TimeoutError`; the flight itself keeps running.
        """
        with self._lock:
            flight = self._flights.get(key)
            led = flight is None
            if led:
                flight = _Flight()
                self._flights[key] = flight
            else:
                done = flight.done
                if done is None:
                    done = flight.done = threading.Event()
        if led:
            try:
                flight.value = fn()
            except BaseException as exc:
                flight.error = exc
                raise
            finally:
                # pop before waking followers: anyone arriving after the
                # wake starts a fresh flight instead of joining a dead one
                with self._lock:
                    self._flights.pop(key, None)
                    done = flight.done
                if done is not None:
                    done.set()
            return flight.value, True
        if not done.wait(timeout):
            raise TimeoutError(f"single-flight wait for {key!r} timed out")
        if flight.error is not None:
            raise flight.error
        return flight.value, False
