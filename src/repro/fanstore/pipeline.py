"""Scheduler primitives for the pipelined daemon core.

The paper's throughput argument (Eq. 2) assumes fetch and decompress
*overlap*; the daemon's pipelined scheduler makes that so. This module
holds what is independent of the daemon itself:

- the three sizes of that scheduler (:data:`PIPELINE_WORKERS`,
  :data:`MAX_INFLIGHT`, :data:`BATCH_MAX`) — constants, not options:
  no workload in this repository has ever needed a second value;
- :class:`SingleFlight` — a keyed in-flight table: concurrent callers of
  the same key share one execution of the underlying work (one upstream
  fetch for a storm of direct ``fetch_compressed`` calls); a flight
  nobody joins costs a dict insert and a pop, no waiter object. An
  ``open()`` miss never enters it: the cache registers that flight
  itself, under its own lock.

Everything here is stdlib-only and takes no fanstore locks of its own
beyond the table mutex, which is never held across the coalesced work.
"""

from __future__ import annotations

import threading
from typing import Any, Callable, Hashable

#: width of the serve-side worker pool: admitted requests that find the
#: daemon busy are served on this many threads, so the serve loop never
#: blocks on digest-verify or codec work.
PIPELINE_WORKERS = 4

#: bound on admitted requests in flight across the worker pool; at the
#: bound the serve loop stops dispatching but keeps draining and
#: shedding its mailbox, so admission control stays live under a
#: stalled pool.
MAX_INFLIGHT = 32

#: most parked client requests one flush packs into a single batched
#: envelope per destination. Batching is opportunistic: a flush packs
#: whatever already parked behind the busy destination and sends at
#: once (backlog, not waiting, is what fills batches).
BATCH_MAX = 16


class _Flight:
    """One in-flight execution. ``done`` stays None until the first
    follower attaches (under its table's lock) and parks on it."""

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
    not by the leader: an uncontended flight allocates and signals
    nothing.
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
