"""The shared lifecycle contract for background services.

``FanStore`` (daemon service loop), ``Scrubber`` (background digest
sweep) and ``FailureDetector`` (heartbeat loop) each grew their own
start/stop conventions across PRs 1–3; this module is the one place
the contract — and the *shutdown ordering* — now lives.

The contract (:class:`Service`): ``start()`` is idempotent, ``stop()``
is idempotent and safe before ``start()``, ``running`` reflects whether
the background work is live, and every service is a context manager
(``with svc: ...`` starts on entry, stops on exit — provided by
:class:`ServiceMixin`). A service whose background work is one
``step()`` called over and over — the scrubber's sweep, the detector's
protocol round — gets the whole contract, thread included, from
:class:`StepLoop`.

**Shutdown ordering.** Services stop in reverse dependency order,
because each one issues work through the layer below it:

1. **Scrubbers first** — a sweep issues daemon reads/repairs; stopping
   the daemon under it turns in-flight repairs into spurious failures.
2. **Membership second** — the detector's verification reads and
   re-replication callbacks also go through the daemon, and a detector
   outliving its daemon would convict every peer that stops answering
   heartbeats during teardown.
3. **The daemon last**, and only after no peer still needs this rank's
   data — ``FanStore.shutdown`` interposes a collective barrier here
   when the original cohort is still intact (membership history makes
   collectives unsafe; see that docstring for the degraded regime).

:func:`stop_all` applies that order mechanically: pass services in
*start* order and it stops them in reverse, continuing past individual
failures so one wedged service cannot leak the rest.
"""

from __future__ import annotations

import threading
from typing import Protocol, runtime_checkable


@runtime_checkable
class Service(Protocol):
    """Structural interface every background service conforms to."""

    def start(self) -> None:
        """Begin background work; calling again while running is a no-op."""

    def stop(self) -> None:
        """End background work; idempotent, safe before ``start()``."""

    @property
    def running(self) -> bool:
        """Whether background work is currently live."""


class ServiceMixin:
    """Context-manager support over ``start()``/``stop()``.

    ``with svc:`` starts the service on entry (idempotent, so objects
    that already started in their constructor — ``FanStore`` — compose
    fine) and stops it on exit.
    """

    def __enter__(self):
        self.start()
        return self

    def __exit__(self, *exc) -> None:
        self.stop()


class StepLoop(ServiceMixin):
    """A service whose background work is :meth:`step`, called on one
    daemon thread every :meth:`loop_interval` seconds from ``start()``
    until ``stop()`` — or until the service reports itself halted
    (``_halted``: a crashed rank's detector must not outlive its
    incarnation). Subclasses supply ``step()``, the interval and the
    thread's name; an exception out of ``step()`` ends the thread."""

    _thread: threading.Thread | None = None
    _halted = False

    def step(self) -> object:
        raise NotImplementedError

    def loop_interval(self) -> float:
        """Seconds to idle between two steps."""
        raise NotImplementedError

    def loop_name(self) -> str:
        """The background thread's name."""
        raise NotImplementedError

    def start(self) -> None:
        """Start the loop (no-op while it runs)."""
        if self._thread is not None:
            return
        # a fresh event per start: a thread that outlived an earlier
        # stop()'s join still sees its own event set
        stopped = self._stopped = threading.Event()

        def _loop() -> None:
            while not stopped.is_set():
                self.step()
                if self._halted or stopped.wait(self.loop_interval()):
                    return

        self._thread = threading.Thread(
            target=_loop, name=self.loop_name(), daemon=True
        )
        self._thread.start()

    def stop(self, timeout: float | None = 5.0) -> None:
        """Stop the loop and join its thread (idempotent)."""
        if self._thread is None:
            return
        self._stopped.set()
        self._thread.join(timeout=timeout)
        self._thread = None

    @property
    def running(self) -> bool:
        """Whether the loop's thread is live (Service contract)."""
        thread = self._thread
        return thread is not None and thread.is_alive()


def stop_all(*services: Service) -> list[Exception]:
    """Stop ``services`` in reverse of the given (start) order — the
    dependency-safe direction documented above. Exceptions are
    collected, not raised, so one wedged service cannot leak the rest;
    the caller decides what to do with them."""
    failures: list[Exception] = []
    for svc in reversed(services):
        try:
            svc.stop()
        except Exception as exc:  # noqa: BLE001 - teardown must not cascade
            failures.append(exc)
    return failures
