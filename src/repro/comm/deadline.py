"""Absolute deadlines for request budgeting.

The retry ladder used to stack timeouts: ``max_retries ×
request_timeout`` per tier, tier after tier, so a read could outlive
the trainer's ``comm_timeout`` by a wide margin. A :class:`Deadline`
inverts that: the caller fixes one absolute point in time, every
blocking step caps its own timeout by :meth:`remaining`, and whatever
work is left when the budget hits zero is abandoned with
:class:`~repro.errors.DeadlineExpiredError` instead of started.

Deadlines also ride the wire. Daemon request bodies carry the absolute
``at`` value as an optional fourth element (see
:mod:`repro.fanstore.daemon`), so a serving rank can drop work whose
requester has already given up rather than reply into the void. The
value is a ``time.monotonic()`` reading — meaningful across "ranks"
here because every rank is a thread of one process sharing one clock;
a cross-host port would swap in a bounded-skew wall clock.

The clock is injectable so unit tests can step time by hand.
"""

from __future__ import annotations

import math
import time
from typing import Callable

from repro.errors import DeadlineExpiredError

Clock = Callable[[], float]


class Deadline:
    """An absolute point on the monotonic clock that work must not
    outlive."""

    __slots__ = ("at", "_clock")

    def __init__(self, at: float, *, clock: Clock = time.monotonic) -> None:
        self.at = float(at)
        self._clock = clock

    @classmethod
    def after(
        cls, seconds: float, *, clock: Clock = time.monotonic
    ) -> "Deadline":
        """The deadline ``seconds`` from now."""
        if seconds < 0:
            raise ValueError(f"deadline budget must be >= 0, got {seconds}")
        return cls(clock() + seconds, clock=clock)

    def remaining(self) -> float:
        """Seconds left; never negative."""
        return max(0.0, self.at - self._clock())

    def expired(self) -> bool:
        return self._clock() >= self.at

    def cap(self, timeout: float | None) -> float:
        """``timeout`` clipped to the remaining budget (``None`` means
        "no per-step preference": the whole remainder)."""
        remaining = self.remaining()
        if timeout is None:
            return remaining
        return min(float(timeout), remaining)

    def check(self, detail: str, path: str | None = None) -> None:
        """Raise :class:`DeadlineExpiredError` if the budget is spent."""
        if self.expired():
            raise DeadlineExpiredError(detail, path)

    def __repr__(self) -> str:
        return f"Deadline(at={self.at:.6f}, remaining={self.remaining():.6f})"


def wire_deadline(value: object) -> float | None:
    """Parse a wire-carried deadline: a finite number, or None for
    anything else (a server must never crash on a hostile header)."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return None
    try:
        value = float(value)
    except OverflowError:  # an int no float can hold
        return None
    return value if math.isfinite(value) else None
