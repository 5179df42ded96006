"""Per-peer health scoring and circuit breakers.

The membership layer (:mod:`repro.fanstore.membership`) handles ranks
that *die* — heartbeats stop, the detector convicts, routing heals. A
*gray* failure is worse precisely because none of that fires: a rank
mid-GC-pause or behind a saturated NIC keeps heartbeating while every
fetch it serves limps at the tail. This module gives the daemon the
two mechanisms that close the gap:

- :class:`CircuitBreaker` — the classic closed → open → half-open
  machine, tripped by consecutive hard failures (timeouts, overload
  sheds) *or* consecutive slow signals (hedges that fired), so the
  failover ladder routes around a merely-slow rank long before the
  detector would mark it SUSPECT;
- :class:`HealthTracker` — one breaker plus a bounded latency sample
  window per peer, thread-safe: the daemon's only memory of a
  misbehaving peer (a DEAD conviction or an exhausted
  exchange force-opens, a rejoin half-opens so the first fetch is a
  probe, a failed probe costs one attempt).

Everything takes an injectable monotonic clock so the unit tests step
time by hand instead of sleeping.
"""

from __future__ import annotations

import enum
import threading
import time
from collections import deque
from typing import Any, Callable

Clock = Callable[[], float]

#: latency samples kept per peer for :meth:`HealthTracker.quantile`
WINDOW = 128


class BreakerState(enum.Enum):
    """Where a peer's breaker is in the closed → open → half-open
    cycle."""

    CLOSED = "closed"  # healthy: requests flow
    OPEN = "open"  # tripped: skip this peer, go straight to failover
    HALF_OPEN = "half_open"  # cooling off: let probes through


class CircuitBreaker:
    """One peer's breaker. Not thread-safe on its own —
    :class:`HealthTracker` serializes access; direct use is for unit
    tests."""

    def __init__(
        self,
        *,
        failure_threshold: int = 3,
        slow_threshold: int = 3,
        reset_after: float = 1.0,
        clock: Clock = time.monotonic,
    ) -> None:
        if failure_threshold < 1:
            raise ValueError(
                f"failure_threshold must be >= 1, got {failure_threshold}"
            )
        if slow_threshold < 1:
            raise ValueError(
                f"slow_threshold must be >= 1, got {slow_threshold}"
            )
        if reset_after < 0:
            raise ValueError(f"reset_after must be >= 0, got {reset_after}")
        self.failure_threshold = failure_threshold
        self.slow_threshold = slow_threshold
        self.reset_after = reset_after
        self._clock = clock
        self._state = BreakerState.CLOSED
        self._failures = 0
        self._slow = 0
        self._opened_at = 0.0
        self.opens = 0  # transitions into OPEN (for the metrics)
        self.probes = 0  # half-open requests let through

    def _trip(self) -> None:
        self._state = BreakerState.OPEN
        self._opened_at = self._clock()
        self._failures = 0
        self._slow = 0
        self.opens += 1

    @property
    def state(self) -> BreakerState:
        """Current state; an OPEN breaker whose cool-off elapsed reads
        as HALF_OPEN (the transition is time-driven, not event-driven)."""
        if (
            self._state is BreakerState.OPEN
            and self._clock() - self._opened_at >= self.reset_after
        ):
            self._state = BreakerState.HALF_OPEN
        return self._state

    def allow(self) -> bool:
        """May a request go to this peer right now? A half-open breaker
        says yes and counts the request as a probe."""
        state = self.state
        if state is BreakerState.OPEN:
            return False
        if state is BreakerState.HALF_OPEN:
            self.probes += 1
        return True

    def record_success(self) -> None:
        """A completed, timely exchange: closes a half-open breaker
        (the probe passed) and clears the strike counters."""
        self._failures = 0
        self._slow = 0
        self._state = BreakerState.CLOSED

    def record_failure(self) -> bool:
        """A hard failure (timeout, overload shed). A failed half-open
        probe re-trips immediately (and returns True: a probe is one
        attempt, do not retry); closed accumulates strikes."""
        state = self.state
        if state is not BreakerState.CLOSED:
            self._trip()
            return state is BreakerState.HALF_OPEN
        self._failures += 1
        if self._failures >= self.failure_threshold:
            self._trip()
        return False

    def record_slow(self) -> None:
        """A soft failure: the peer answered, but only after a hedge
        fired. Enough
        consecutive ones trip the breaker — this is the gray-failure
        path, where nothing ever *fails*."""
        if self.state is not BreakerState.CLOSED:
            self._trip()
            return
        self._slow += 1
        if self._slow >= self.slow_threshold:
            self._trip()

    def force_open(self) -> None:
        """External verdict (membership DEAD conviction, exhausted
        full-budget exchange): open unconditionally. Idempotent — an
        already-open breaker just has its cool-off restarted."""
        already_open = self._state is BreakerState.OPEN
        self._trip()
        if already_open:
            self.opens -= 1  # restarted, not a new transition

    def half_open(self) -> None:
        """External good news (membership re-admission): skip the rest
        of the cool-off so the next request probes immediately."""
        if self._state is BreakerState.OPEN:
            self._state = BreakerState.HALF_OPEN


class HealthTracker:
    """Latency samples plus one :class:`CircuitBreaker` per peer.

    All signal sinks (:meth:`observe`, :meth:`failure`,
    :meth:`note_slow`) and the routing gate (:meth:`allow`) are
    thread-safe; the internal lock is a leaf — nothing blocking runs
    under it. ``on_open`` / ``on_probe`` callbacks (if set) fire under
    the lock and must stay trivial (the daemon binds them to counter
    increments).
    """

    def __init__(
        self,
        rank: int = 0,
        *,
        failure_threshold: int = 3,
        slow_threshold: int = 3,
        reset_after: float = 1.0,
        clock: Clock = time.monotonic,
    ) -> None:
        self.rank = rank
        self._clock = clock
        self._mk_breaker = lambda: CircuitBreaker(
            failure_threshold=failure_threshold,
            slow_threshold=slow_threshold,
            reset_after=reset_after,
            clock=clock,
        )
        self._lock = threading.Lock()
        self._breakers: dict[int, CircuitBreaker] = {}
        self._samples: dict[int, deque[float]] = {}
        self.on_open: Callable[[int], None] | None = None
        self.on_probe: Callable[[int], None] | None = None

    def _breaker(self, peer: int) -> CircuitBreaker:
        # the hot sinks read the dict themselves and call this only to
        # create a peer's breaker
        br = self._breakers.get(peer)
        if br is None:
            br = self._breakers[peer] = self._mk_breaker()
        return br

    def _signal(
        self, peer: int, record: Callable[[CircuitBreaker], Any]
    ) -> Any:
        """Apply one breaker transition to ``peer``'s breaker (looked up
        once), reporting a transition into OPEN to ``on_open``."""
        br = self._breaker(peer)
        opens_before = br.opens
        outcome = record(br)
        if br.opens > opens_before and self.on_open is not None:
            self.on_open(peer)
        return outcome

    # -- signal sinks ------------------------------------------------------

    def observe(self, peer: int, seconds: float) -> None:
        """A completed exchange took ``seconds`` per item it carried:
        feeds the quantile window and counts as a success (slow strikes come from
        :meth:`note_slow`, when a hedge fires). A success never opens a
        breaker, so there is no transition to report.

        A success against a CLOSED breaker with no strikes changes
        nothing but the window, and takes no lock: ``deque.append`` is
        atomic, and so is :meth:`quantile`'s copy of the window (one C
        call). The strikes are read before the state, and a transition
        writes the state before it clears the strikes, so the reads see
        no strikes and CLOSED only at a moment when the breaker was
        clean and CLOSED — this success then ordered just before
        whatever transition follows, as if taken under the lock."""
        samples = self._samples.get(peer)
        br = self._breakers.get(peer)
        if (
            samples is not None
            and br is not None
            and not br._failures
            and not br._slow
            and br._state is BreakerState.CLOSED
        ):
            samples.append(seconds)
            return
        with self._lock:
            samples = self._samples.get(peer)
            if samples is None:
                samples = self._samples[peer] = deque(maxlen=WINDOW)
            samples.append(seconds)
            br = self._breakers.get(peer) or self._breaker(peer)
            br.record_success()

    def failure(self, peer: int) -> bool:
        """A hard failure against ``peer`` (timeout, overload shed);
        True when it was a half-open probe that failed."""
        with self._lock:
            return self._signal(peer, CircuitBreaker.record_failure)

    def note_slow(self, peer: int) -> None:
        """``peer`` missed the hedge delay — the request was answered
        (or will be) by someone else first."""
        with self._lock:
            self._signal(peer, CircuitBreaker.record_slow)

    # -- routing gates -----------------------------------------------------

    def allow(self, peer: int) -> bool:
        """Routing gate: False means skip ``peer`` (breaker open).

        A CLOSED breaker is answered without the lock. That is safe:
        ``_state`` is written only under the lock, so the read sees
        either the state before a concurrent transition or the one
        after it, exactly as if this call had run just before or just
        after that transition under the lock; and a CLOSED answer has
        no side effect to serialize (no probe, no time-driven
        transition). OPEN and HALF_OPEN take the locked path, which
        turns an elapsed cool-off into HALF_OPEN and counts the probe."""
        br = self._breakers.get(peer)
        if br is not None and br._state is BreakerState.CLOSED:
            return True
        with self._lock:
            br = self._breaker(peer)
            probes_before = br.probes
            allowed = br.allow()
            if br.probes > probes_before and self.on_probe is not None:
                self.on_probe(peer)
            return allowed

    def state(self, peer: int) -> BreakerState:
        """Current breaker state (no probe accounting — use for
        ordering decisions, not admission)."""
        with self._lock:
            return self._breaker(peer).state

    def force_open(self, peer: int) -> None:
        """Membership DEAD verdict, or a full-budget exchange was
        exhausted: stop routing to ``peer`` at once."""
        with self._lock:
            self._signal(peer, CircuitBreaker.force_open)

    def half_open(self, peer: int) -> None:
        """Membership re-admission: the next request probes ``peer``."""
        with self._lock:
            self._breaker(peer).half_open()

    # -- statistics --------------------------------------------------------

    def quantile(self, peer: int, q: float, default: float) -> float:
        """The ``q``-quantile of the peer's recent latencies, or
        ``default`` before any samples exist (nearest-rank on the
        bounded window — an estimate, not a full history)."""
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile {q} outside [0, 1]")
        with self._lock:
            samples = self._samples.get(peer)
            if not samples:
                return default
            ordered = sorted(samples)
            return ordered[int(q * (len(ordered) - 1))]

    def open_peers(self) -> list[int]:
        """Peers currently skipped (state OPEN), for observability."""
        with self._lock:
            return sorted(
                peer for peer, br in self._breakers.items()
                if br.state is BreakerState.OPEN
            )
