"""Cluster membership: failure detection, gossip, and live rejoin.

FanStore's replication (§IV-C2, Figure 2) keeps data *available* after
a node loss, but availability alone decays: every request rediscovers
the corpse through the full retry/backoff ladder, the replication
factor silently drops from n to n−1 forever, and a relaunched rank has
no way back into the metadata view built by the load-time allgather.
This module is the active layer that detects, repairs, and re-admits:

- :class:`ClusterView` — a versioned membership map (global ``epoch``
  plus per-rank ``ALIVE``/``SUSPECT``/``DEAD`` state with a per-rank
  version counter). Views merge commutatively (higher version wins;
  ties resolve to the more severe state; epochs max), so gossiping them
  on heartbeats makes every rank converge on the same view without any
  coordinator.
- :class:`FailureDetector` — a heartbeat protocol over the existing
  :class:`~repro.comm.communicator.Communicator`, on its own tag space
  (``TAG_MEMBER``), with an injectable clock so threshold edges are
  unit-testable without sleeping. No heartbeat for ``suspect_after``
  seconds ⇒ SUSPECT (routing deprioritizes, nothing is repaired — a
  flapping rank recovers by just heartbeating again); ``dead_after``
  seconds ⇒ DEAD, the view epoch bumps, and the ``on_dead`` callback
  fires exactly once per corpse between re-admissions
  (:mod:`repro.fanstore.replication` hangs re-replication off it).
  Convictions learned from a peer's gossiped view fire the same
  callback, so repair work starts everywhere, not only where the
  timeout happened first.
- the **rejoin handshake** — a relaunched rank calls
  :meth:`FailureDetector.request_join` against any live peer: the peer
  marks it SUSPECT, replies with the current view plus a metadata
  snapshot (provided by ``Replication`` through ``join_snapshot``), and
  the joiner re-stages its partitions. :meth:`request_promotion` then asks
  the peer to perform a *verification read* (``verify_read`` — a real
  daemon fetch, digest-checked) against the joiner; only a verified
  read promotes SUSPECT→ALIVE, bumps the epoch, and gossips the
  re-admission to everyone.

Message kinds on ``TAG_MEMBER`` (replies on the two dedicated reply
tags so they never collide with the daemon's reply band):

=========  ==========================  ==================================
kind       payload                     reply
=========  ==========================  ==================================
hb         ClusterView snapshot        —
join       joining rank                (view, snapshot) on TAG_MEMBER_JOIN
promote    joining rank                (ok, view|reason) on TAG_MEMBER_PROMOTE
=========  ==========================  ==================================

**Partitions and quorum.** A network split looks exactly like death
from either side, and a detector that convicts on silence alone would
have *both* components convict each other, re-replicate the "lost"
partitions, and elect one writer per side — split-brain. The detector
is therefore quorum-aware (``MembershipConfig.quorum``, on by default
for worlds of 3+; a 2-rank world cannot form a majority, so it keeps
the fail-fast behavior): SUSPECT→DEAD promotions, their epoch bumps,
and writer election (:meth:`FailureDetector.elect_writer`) are only
allowed while this rank can hear a strict majority of the non-DEAD
membership. A minority component first freezes convictions (counted in
``quorum_denied_convictions``), and if the silence persists past
``isolation_damper`` it enters an explicit **ISOLATED** mode
(:attr:`FailureDetector.isolated`): reads keep serving from local
partitions and the degraded shared FS, but membership mutations
(promotions) and re-replication are frozen until quorum contact is
re-established — and held for ``isolation_damper`` again before the
mode clears, so a flapping link cannot thrash the cluster in and out
of isolation (episodes the damper absorbed count as ``damped_flaps``).
A per-rank conviction damper (``flap_damper``) adds hysteresis on the
majority side: each recent flap a rank exhibited raises its conviction
threshold, so a flapping link never triggers a re-replication storm.
On heal the ``on_reconnected`` callback hands the merged view to
``Replication.reconcile_after_heal`` (circuit breakers, frozen
re-replication, journalled drops of split-era copies, digest scrub).
Every callback runs on the detector's one thread.

Known limitation (documented, tested for the common cases): with
*simultaneous* multi-rank death, ranks that learn of the deaths in
different orders can transiently compute different re-replication
plans; the per-corpse plans are self-correcting (each later plan treats
earlier reassignments as lost copies too), and within one evaluation
pass corpses are always convicted in ascending rank order.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from enum import IntEnum
from typing import Any, Callable

from repro.comm.communicator import ANY_SOURCE, Communicator
from repro.errors import (
    CommClosedError,
    CommError,
    MembershipError,
    RankDeadError,
)
from repro.util.service import StepLoop

#: dedicated membership tag space (daemon requests 0x0FA0, the ring
#: copy 0x0FA1, replies 0x1000+; membership traffic must never collide).
TAG_MEMBER = 0x0FB0
TAG_MEMBER_JOIN = 0x0FB1
TAG_MEMBER_PROMOTE = 0x0FB2
#: joiner-side bound on each join/promotion handshake round trip.
_JOIN_TIMEOUT = 10.0


class RankState(IntEnum):
    """Per-rank health, ordered by severity (merge ties pick the max)."""

    ALIVE = 0
    SUSPECT = 1
    DEAD = 2


@dataclass
class MembershipStats:
    """What the detector observed, for tests and benchmarks.

    Like :class:`~repro.fanstore.daemon.DaemonStats`, these fields
    double as the storage cells of the unified metrics registry
    (``membership.<field>``) when a registry is handed to the
    detector — see :meth:`bind`."""

    heartbeats_sent: int = 0
    heartbeats_received: int = 0
    suspicions: int = 0  # ALIVE → SUSPECT transitions
    recoveries: int = 0  # SUSPECT → ALIVE without a conviction (flap)
    convictions: int = 0  # transitions to DEAD observed (local or gossip)
    joins_served: int = 0
    promotions: int = 0  # verified rejoins this rank promoted
    quorum_denied_convictions: int = 0  # overdue corpses left SUSPECT: no majority
    isolated_entries: int = 0  # times this rank entered ISOLATED mode
    isolated_exits: int = 0  # times quorum contact ended an isolation
    damped_flaps: int = 0  # minority episodes absorbed before the damper fired

    def bind(self, metrics) -> None:
        """Register every field as ``membership.<field>``, backed by
        this object's attributes (zero hot-path overhead)."""
        for name in self.__dataclass_fields__:
            metrics.bind_counter(f"membership.{name}", self, name)


@dataclass(frozen=True)
class MembershipConfig:
    """Failure-detector tunables.

    The thresholds are wall-clock seconds of heartbeat silence. With a
    polling detector the effective detection latency is bounded by
    ``dead_after`` plus one poll period, so keep
    ``suspect_after >= 2 * heartbeat_interval`` and
    ``dead_after > suspect_after`` (validated here).
    """

    heartbeat_interval: float = 0.2
    suspect_after: float = 0.8
    dead_after: float = 2.5
    #: quorum awareness: convictions, epoch bumps, and writer election
    #: require hearing a strict majority of the non-DEAD membership.
    #: Only effective in worlds of 3+ ranks — a 2-rank world cannot
    #: distinguish peer death from a cut link, so it keeps the
    #: fail-fast conviction behavior regardless of this flag.
    quorum: bool = True
    #: hysteresis (seconds) for the ISOLATED mode edge, both ways: the
    #: minority condition must persist this long before the mode is
    #: entered, and quorum contact must persist this long before it is
    #: left. Flapping links shorter than this never change modes.
    isolation_damper: float = 0.5
    #: extra silence (seconds) required per recent flap before a rank
    #: may be convicted, capped at ``4 * dead_after`` total. 0 disables
    #: the conviction damper (the pre-partition-tolerance behavior).
    flap_damper: float = 0.0
    #: how far back (seconds) a rank's flaps count toward its damper.
    flap_window: float = 30.0

    def __post_init__(self) -> None:
        if self.heartbeat_interval <= 0:
            raise MembershipError(
                f"heartbeat_interval must be > 0, got {self.heartbeat_interval}"
            )
        if self.suspect_after < self.heartbeat_interval:
            raise MembershipError(
                "suspect_after must be >= heartbeat_interval "
                f"({self.suspect_after} < {self.heartbeat_interval})"
            )
        if self.dead_after <= self.suspect_after:
            raise MembershipError(
                "dead_after must be > suspect_after "
                f"({self.dead_after} <= {self.suspect_after})"
            )
        if self.isolation_damper < 0:
            raise MembershipError(
                f"isolation_damper must be >= 0, got {self.isolation_damper}"
            )
        if self.flap_damper < 0:
            raise MembershipError(
                f"flap_damper must be >= 0, got {self.flap_damper}"
            )
        if self.flap_window <= 0:
            raise MembershipError(
                f"flap_window must be > 0, got {self.flap_window}"
            )


class ClusterView:
    """Versioned membership map; merges are commutative and idempotent.

    Per-rank entries carry a version counter bumped on every local
    transition; merging takes, per rank, the greater entry under the
    ``(version, severity)`` total order, and the max epoch — except
    that an equal-epoch merge carrying a conviction we had not seen
    bumps past both inputs (see :meth:`merge`). The *epoch* counts
    membership changes
    that affect routing/ownership — DEAD convictions and verified
    re-admissions — and is what invalidates stale fencing tokens.
    """

    __slots__ = ("size", "epoch", "states", "versions")

    def __init__(
        self,
        size: int,
        *,
        epoch: int = 0,
        states: list[RankState] | None = None,
        versions: list[int] | None = None,
    ) -> None:
        if size < 1:
            raise MembershipError(f"view size must be >= 1, got {size}")
        self.size = size
        self.epoch = epoch
        self.states = list(states) if states else [RankState.ALIVE] * size
        self.versions = list(versions) if versions else [0] * size
        if len(self.states) != size or len(self.versions) != size:
            raise MembershipError("view state/version arrays must match size")

    # -- queries ----------------------------------------------------------

    def state(self, rank: int) -> RankState:
        return self.states[rank]

    def alive_ranks(self) -> list[int]:
        return [r for r in range(self.size) if self.states[r] == RankState.ALIVE]

    def non_dead_ranks(self) -> list[int]:
        return [r for r in range(self.size) if self.states[r] != RankState.DEAD]

    def dead_ranks(self) -> list[int]:
        return [r for r in range(self.size) if self.states[r] == RankState.DEAD]

    # -- transitions ------------------------------------------------------

    def set_state(
        self, rank: int, state: RankState, *, bump_epoch: bool = False
    ) -> None:
        """Local transition: bump the rank's version (so it wins merges
        against staler observations) and optionally the view epoch."""
        self.states[rank] = state
        self.versions[rank] += 1
        if bump_epoch:
            self.epoch += 1

    def merge(self, other: "ClusterView") -> list[tuple[int, RankState, RankState]]:
        """Fold a gossiped view in; returns ``(rank, old, new)`` for
        every rank whose state changed.

        Conflict resolution is a documented total order, so both merge
        directions land on the same result. Per rank, entries compare
        lexicographically by ``(version, state severity)`` and the
        greater entry wins; on a full tie the entries are identical
        (severity *is* the state), so keeping ours is not a choice at
        all. Epochs normally take the max — with one deliberate
        exception: two **parallel histories** at the *same* epoch with
        *different* DEAD sets (both sides of a split convicting
        independently). Taking max() there would let two divergent
        membership histories share an epoch number, and everything
        keyed by epoch — fencing tokens — would treat stale state as
        current across the heal. So
        when a merge at equal epochs newly *convicts* a rank (its state
        becomes DEAD), the merged epoch is bumped *past* both inputs.
        In the split-heal case each side learns the other's corpse, so
        both merge orders bump and the result is symmetric.

        Only the conviction direction bumps. A DEAD rank coming *back*
        at the same epoch is not a parallel history — it is the rejoin
        handshake propagating by gossip (the serving peer re-admitted
        the joiner as SUSPECT at a higher version), and the promotion
        that completes the rejoin performs its own epoch bump. Bumping
        on re-admission too would double-count the rejoin wherever the
        handshake raced ahead of gossip: observed on slow runners as a
        healed cluster settling one epoch past the handshake's own
        count. Ordinary SUSPECT churn never involves DEAD and never
        bumps."""
        if other.size != self.size:
            raise MembershipError(
                f"cannot merge views of size {other.size} into {self.size}"
            )
        changed: list[tuple[int, RankState, RankState]] = []
        for r in range(self.size):
            theirs_v, ours_v = other.versions[r], self.versions[r]
            theirs_s, ours_s = other.states[r], self.states[r]
            if (theirs_v, theirs_s) > (ours_v, ours_s):
                if theirs_s != ours_s:
                    changed.append((r, ours_s, theirs_s))
                self.states[r] = theirs_s
                self.versions[r] = theirs_v
        dead_divergence = other.epoch == self.epoch and any(
            new == RankState.DEAD for _, _, new in changed
        )
        if other.epoch > self.epoch:
            self.epoch = other.epoch
        elif dead_divergence:
            self.epoch += 1
        return changed

    def clone(self) -> "ClusterView":
        return ClusterView(
            self.size,
            epoch=self.epoch,
            states=list(self.states),
            versions=list(self.versions),
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ClusterView):
            return NotImplemented
        return (
            self.size == other.size
            and self.epoch == other.epoch
            and self.states == other.states
        )

    def __repr__(self) -> str:
        body = ",".join(
            f"{r}:{self.states[r].name}v{self.versions[r]}"
            for r in range((self.size))
        )
        return f"ClusterView(epoch={self.epoch}, {body})"


def ring_successor(start: int, alive: set[int], size: int) -> int | None:
    """First member of ``alive`` clockwise after ``start`` (exclusive);
    the deterministic reassignment primitive — every rank computes the
    same successor from the same view, no coordination needed."""
    for i in range(1, size + 1):
        candidate = (start + i) % size
        if candidate in alive:
            return candidate
    return None


class FailureDetector(StepLoop):
    """Heartbeat failure detector + gossip + rejoin endpoint, per rank.

    Drive it either incrementally (:meth:`step`, with an injectable
    ``clock`` — how the threshold-edge unit tests run, no sleeping) or
    as a background thread (:meth:`start`/:meth:`stop` — how the store
    wires it). All callbacks fire outside the view lock, in the calling
    thread of the step that observed the transition.

    Callbacks (all optional):

    - ``on_dead(rank, view_snapshot)`` — fired exactly once per corpse
      per detector, whether convicted locally or learned via gossip;
    - ``on_alive(rank)`` — fired on every DEAD→ALIVE re-admission;
    - ``on_isolated()`` — fired when this rank enters ISOLATED mode
      (lost quorum past the damper);
    - ``on_reconnected(view_snapshot)`` — fired when quorum contact
      ends an isolation (the daemon hangs anti-entropy healing off it);
    - ``verify_read(rank) -> bool`` — peer-side promotion gate: perform
      a digest-verified read against the joiner;
    - ``join_snapshot() -> Any`` — peer-side join payload provider (the
      daemon returns its metadata snapshot).
    """

    def __init__(
        self,
        comm: Communicator,
        config: MembershipConfig | None = None,
        *,
        clock: Callable[[], float] = time.monotonic,
        on_dead: Callable[[int, ClusterView], None] | None = None,
        on_alive: Callable[[int], None] | None = None,
        on_isolated: Callable[[], None] | None = None,
        on_reconnected: Callable[[ClusterView], None] | None = None,
        verify_read: Callable[[int], bool] | None = None,
        join_snapshot: Callable[[], Any] | None = None,
        metrics=None,
    ) -> None:
        self.comm = comm
        self.rank = comm.rank
        self.size = comm.size
        self.config = config or MembershipConfig()
        self.clock = clock
        self.on_dead = on_dead
        self.on_alive = on_alive
        self.on_isolated = on_isolated
        self.on_reconnected = on_reconnected
        self.verify_read = verify_read
        self.join_snapshot = join_snapshot
        self.stats = MembershipStats()
        if metrics is not None:
            # fold the stats bag into the shared registry, plus the view
            # epoch and isolation flag (ints read under the GIL — no
            # lock needed for metrics-grade gauges)
            self.stats.bind(metrics)
            metrics.bind_gauge(
                "membership.view_epoch", fn=lambda: self._view.epoch
            )
            metrics.bind_gauge(
                "membership.isolated", fn=lambda: int(self._isolated)
            )
        self._lock = threading.RLock()
        self._view = ClusterView(self.size)
        now = clock()
        self._last_heard = {r: now for r in range(self.size) if r != self.rank}
        self._last_beat = now - self.config.heartbeat_interval  # beat on first step
        self._convicted: set[int] = set()  # corpses whose on_dead already ran
        #: clock() timestamp at which each DEAD conviction landed here —
        #: the detection-latency numerator for the membership benchmark.
        self.detected_at: dict[int, float] = {}
        self._isolated = False
        self._minority_since: float | None = None  # quorum lost, damper arming
        self._quorum_since: float | None = None  # quorum regained, damper arming
        self._denied: set[int] = set()  # overdue corpses frozen for lack of quorum
        self._flaps: dict[int, list[float]] = {}  # recent flap times per rank

    # -- introspection ----------------------------------------------------

    @property
    def view(self) -> ClusterView:
        """A snapshot of this rank's current view (safe to keep)."""
        with self._lock:
            return self._view.clone()

    def is_dead(self, rank: int) -> bool:
        with self._lock:
            return self._view.states[rank] == RankState.DEAD

    @property
    def epoch(self) -> int:
        """The current view epoch, without cloning the view."""
        with self._lock:
            return self._view.epoch

    @property
    def isolated(self) -> bool:
        """Whether this rank is in ISOLATED mode: it lost quorum contact
        for longer than the damper. Convictions, promotions, writer
        election, and re-replication are frozen until quorum returns."""
        with self._lock:
            return self._isolated

    def has_quorum(self) -> bool:
        """Whether this rank currently hears a strict majority of the
        non-DEAD membership (always True when quorum awareness is
        inactive: ``config.quorum`` off, or a world of fewer than 3)."""
        with self._lock:
            return self._in_quorum(self.clock())

    def elect_writer(self) -> int | None:
        """The rank that may write checkpoints/logs under this view:
        the lowest non-DEAD rank — but only from inside a majority
        component. A minority (or isolated) rank returns None and must
        not write, so a split cluster can never elect two writers: at
        most one component has quorum."""
        with self._lock:
            if self._isolated or not self._in_quorum(self.clock()):
                return None
            alive = self._view.non_dead_ranks()
        return min(alive) if alive else None

    def _in_quorum(self, now: float) -> bool:
        """Lock held. Reachable = self plus every non-DEAD rank heard
        within ``suspect_after``: a rank silent long enough to suspect
        cannot vouch for our majority. The window is deliberately
        *stricter* than the conviction threshold — if it were
        ``dead_after``, a rank cut off from everyone would convict
        whichever peer crossed the threshold first while the other
        (silent just as long) still padded its quorum."""
        if not self.config.quorum or self.size < 3:
            return True
        reachable = 1  # self
        members = 0
        for r in range(self.size):
            if self._view.states[r] == RankState.DEAD:
                continue
            members += 1
            if r == self.rank:
                continue
            if now - self._last_heard[r] < self.config.suspect_after:
                reachable += 1
        return 2 * reachable > members

    # -- one protocol round ------------------------------------------------

    def step(self) -> ClusterView:
        """Drain incoming membership traffic, heartbeat if due, evaluate
        timeouts; returns the post-step view snapshot. Raises nothing on
        a dead/closed world — the detector of a crashed rank just stops
        observing, like its process would."""
        events: list[tuple[str, int, ClusterView | None]] = []
        try:
            self._drain(events)
            self._maybe_beat()
            self._evaluate(events)
        except (RankDeadError, CommClosedError):
            # our rank is the corpse (or teardown): nothing to detect.
            # The halt flag permanently stops the background loop — a
            # revived mailbox must NOT resurrect this incarnation's
            # thread, or it would steal heartbeats from the relaunched
            # rank's fresh detector.
            self._halted = True
        try:
            self._fire(events)
        except (RankDeadError, CommClosedError):
            self._halted = True  # a callback found this rank dead
        return self.view

    def _drain(self, events: list) -> None:
        while True:
            got = self.comm.try_recv(ANY_SOURCE, TAG_MEMBER)
            if got is None:
                return
            payload, source, _tag = got
            try:
                kind, body = payload
            except (TypeError, ValueError):
                continue  # garbage on the membership tag: ignore
            if kind == "hb":
                self._on_heartbeat(source, body, events)
            elif kind == "join":
                self._serve_join(int(body), events)
            elif kind == "promote":
                self._serve_promotion(int(body), events)

    def _on_heartbeat(
        self, source: int, gossiped: ClusterView, events: list
    ) -> None:
        now = self.clock()
        with self._lock:
            self.stats.heartbeats_received += 1
            self._last_heard[source] = now
            self._denied.discard(source)  # heard again: no longer overdue
            # A heartbeat is live evidence about its *sender*: a SUSPECT
            # sender recovers on the spot (the flap case). A DEAD sender
            # does not — re-admission goes through the rejoin handshake.
            if self._view.states[source] == RankState.SUSPECT:
                self._view.set_state(source, RankState.ALIVE)
                self.stats.recoveries += 1
                self._note_flap(source, now)
            changed = self._view.merge(gossiped)
            for rank, old, new in changed:
                if rank == self.rank:
                    continue  # peers gossiping about us: no self-callbacks
                if new == RankState.DEAD:
                    events.append(("dead", rank, self._view.clone()))
                elif old == RankState.DEAD and new != RankState.DEAD:
                    # re-admitted elsewhere: restart its liveness clock
                    # so it is not instantly re-suspected here
                    self._last_heard[rank] = now
                    self._note_flap(rank, now)
                    events.append(("alive", rank, None))

    def _maybe_beat(self) -> None:
        now = self.clock()
        with self._lock:
            if now - self._last_beat < self.config.heartbeat_interval:
                return
            self._last_beat = now
            view = self._view.clone()
            targets = [
                r for r in range(self.size)
                if r != self.rank and view.states[r] != RankState.DEAD
            ]
        for dest in targets:
            self.comm.send(("hb", view), dest, TAG_MEMBER)
            self.stats.heartbeats_sent += 1

    def _evaluate(self, events: list) -> None:
        now = self.clock()
        with self._lock:
            in_quorum = self._in_quorum(now)
            self._damp_isolation(now, in_quorum, events)
            frozen = self._isolated or not in_quorum
            # ascending rank order: simultaneous corpses are convicted
            # in the same order on every rank within one pass
            for rank in sorted(self._last_heard):
                state = self._view.states[rank]
                if state == RankState.DEAD:
                    continue
                silent = now - self._last_heard[rank]
                if silent >= self._conviction_threshold(rank, now):
                    if frozen:
                        # minority side of a split: the silence is just
                        # as likely *our* unreachability — no conviction,
                        # no epoch bump, no re-replication until quorum
                        if rank not in self._denied:
                            self._denied.add(rank)
                            self.stats.quorum_denied_convictions += 1
                        if state == RankState.ALIVE:
                            self._view.set_state(rank, RankState.SUSPECT)
                            self.stats.suspicions += 1
                        continue
                    self._view.set_state(rank, RankState.DEAD, bump_epoch=True)
                    events.append(("dead", rank, self._view.clone()))
                elif silent >= self.config.suspect_after and state == RankState.ALIVE:
                    self._view.set_state(rank, RankState.SUSPECT)
                    self.stats.suspicions += 1

    def _conviction_threshold(self, rank: int, now: float) -> float:
        """Lock held. The silence needed to convict ``rank``: the base
        ``dead_after``, plus ``flap_damper`` seconds of hysteresis per
        flap the rank showed within ``flap_window`` — a link that keeps
        coming back earns increasing distrust of its *silences*, not
        re-replication storms. Capped at ``4 * dead_after`` so a truly
        dead flapper is still convicted in bounded time."""
        cfg = self.config
        if cfg.flap_damper <= 0:
            return cfg.dead_after
        cutoff = now - cfg.flap_window
        flaps = sum(1 for t in self._flaps.get(rank, ()) if t >= cutoff)
        return min(cfg.dead_after + cfg.flap_damper * flaps,
                   4 * cfg.dead_after)

    def _note_flap(self, rank: int, now: float) -> None:
        """Lock held. Record a recovery/re-admission of ``rank`` for the
        conviction damper, pruning entries past the window."""
        if self.config.flap_damper <= 0:
            return
        history = self._flaps.setdefault(rank, [])
        history.append(now)
        cutoff = now - self.config.flap_window
        while history and history[0] < cutoff:
            history.pop(0)

    def _damp_isolation(self, now: float, in_quorum: bool, events: list) -> None:
        """Lock held. The ISOLATED mode edge, hysteresis both ways: the
        minority condition must persist ``isolation_damper`` seconds to
        enter, quorum contact must persist as long to leave. Leaving
        restarts every liveness clock — nothing heard *during* the cut
        may count toward a conviction — and emits the ``reconnected``
        event the daemon's anti-entropy healing hangs off."""
        damper = self.config.isolation_damper
        if in_quorum:
            if self._minority_since is not None and not self._isolated:
                # episode ended before the damper fired: a flapping
                # link, absorbed without any mode change
                self.stats.damped_flaps += 1
            self._minority_since = None
            if not self._isolated:
                return
            if self._quorum_since is None:
                self._quorum_since = now
            if now - self._quorum_since >= damper:
                self._isolated = False
                self._quorum_since = None
                self._denied.clear()
                for r in self._last_heard:
                    self._last_heard[r] = now
                self.stats.isolated_exits += 1
                events.append(("reconnected", -1, self._view.clone()))
        else:
            self._quorum_since = None
            if self._isolated:
                return
            if self._minority_since is None:
                self._minority_since = now
            if now - self._minority_since >= damper:
                self._isolated = True
                self._minority_since = None
                self.stats.isolated_entries += 1
                events.append(("isolated", -1, None))

    def _fire(self, events: list) -> None:
        for kind, rank, view in events:
            if kind == "dead":
                with self._lock:
                    if rank in self._convicted:
                        continue
                    self._convicted.add(rank)
                    self.detected_at[rank] = self.clock()
                    self.stats.convictions += 1
                if self.on_dead is not None:
                    self.on_dead(rank, view)
            elif kind == "alive":
                with self._lock:
                    self._convicted.discard(rank)
                    self.detected_at.pop(rank, None)
                if self.on_alive is not None:
                    self.on_alive(rank)
            elif kind == "isolated":
                if self.on_isolated is not None:
                    self.on_isolated()
            elif kind == "reconnected":
                if self.on_reconnected is not None:
                    self.on_reconnected(view)

    # -- peer side of the rejoin handshake ---------------------------------

    def _serve_join(self, joiner: int, events: list) -> None:
        """A relaunched rank announced itself: admit it as SUSPECT (it
        must earn ALIVE through a verified read) and ship it the current
        view plus the daemon's metadata snapshot. An ISOLATED peer
        refuses — its view and snapshot are minority history; the
        joiner must be admitted by the majority component."""
        with self._lock:
            refused = self._isolated
            if not refused:
                if self._view.states[joiner] == RankState.DEAD:
                    self._view.set_state(joiner, RankState.SUSPECT)
                self._last_heard[joiner] = self.clock()
                self.stats.joins_served += 1
                view = self._view.clone()
        if refused:
            self.comm.send((None, "peer is isolated (no quorum)"),
                           joiner, TAG_MEMBER_JOIN)
            return
        snapshot = self.join_snapshot() if self.join_snapshot is not None else None
        self.comm.send((view, snapshot), joiner, TAG_MEMBER_JOIN)

    def _serve_promotion(self, joiner: int, events: list) -> None:
        """Promotion gate: only a digest-verified read actually served
        by the joiner flips it SUSPECT→ALIVE (and bumps the epoch).
        An ISOLATED peer refuses outright — a minority component must
        not mutate membership."""
        with self._lock:
            refused = self._isolated
        if refused:
            self.comm.send((False, "peer is isolated (no quorum)"),
                           joiner, TAG_MEMBER_PROMOTE)
            return
        ok = True
        if self.verify_read is not None:
            try:
                ok = bool(self.verify_read(joiner))
            except Exception:  # noqa: BLE001 - a failed read is a rejection
                ok = False
        if not ok:
            self.comm.send((False, "verification read failed"),
                           joiner, TAG_MEMBER_PROMOTE)
            return
        with self._lock:
            now = self.clock()
            self._view.set_state(joiner, RankState.ALIVE, bump_epoch=True)
            self._last_heard[joiner] = now
            self._convicted.discard(joiner)
            self.detected_at.pop(joiner, None)
            self._note_flap(joiner, now)  # rejoin churn feeds the damper
            self.stats.promotions += 1
            view = self._view.clone()
        if self.on_alive is not None:
            self.on_alive(joiner)
        self.comm.send((True, view), joiner, TAG_MEMBER_PROMOTE)

    # -- joiner side of the rejoin handshake -------------------------------

    def request_join(self, peer: int) -> Any:
        """Announce this (relaunched) rank to ``peer`` and return the
        peer's metadata snapshot after merging its view. The peer's view
        arrives with this rank still SUSPECT — promotion is a separate,
        verified step."""
        self.comm.send(("join", self.rank), peer, TAG_MEMBER)
        try:
            view, snapshot = self.comm.recv(
                peer, TAG_MEMBER_JOIN, timeout=_JOIN_TIMEOUT
            )
        except CommError as exc:
            raise MembershipError(
                f"rank {self.rank}: join via rank {peer} got no answer ({exc})"
            ) from exc
        if view is None:
            raise MembershipError(
                f"rank {self.rank}: join refused by rank {peer}: {snapshot}"
            )
        with self._lock:
            self._view.merge(view)
            now = self.clock()
            for r in self._last_heard:
                self._last_heard[r] = now
            # everything the peer's view convicted is settled history
            # for this incarnation: never re-fire on_dead for it
            self._convicted.update(self._view.dead_ranks())
        return snapshot

    def request_promotion(self, peer: int) -> ClusterView:
        """Ask ``peer`` to verification-read this rank and promote it;
        returns the post-promotion view (merged locally)."""
        self.comm.send(("promote", self.rank), peer, TAG_MEMBER)
        try:
            ok, body = self.comm.recv(
                peer, TAG_MEMBER_PROMOTE, timeout=_JOIN_TIMEOUT
            )
        except CommError as exc:
            raise MembershipError(
                f"rank {self.rank}: promotion via rank {peer} timed out ({exc})"
            ) from exc
        if not ok:
            raise MembershipError(
                f"rank {self.rank}: promotion rejected by rank {peer}: {body}"
            )
        with self._lock:
            self._view.merge(body)
        return self.view

    # -- background mode: ``start()`` runs :meth:`step` until ``stop()``
    # or until a step finds this rank dead (``_halted``)

    def loop_interval(self) -> float:
        return self.config.heartbeat_interval / 2

    def loop_name(self) -> str:
        return f"fanstore-membership-{self.rank}"
