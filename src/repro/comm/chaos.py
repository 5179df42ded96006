"""Deterministic fault injection for the in-process world.

The paper's deployment (512 KNL nodes, multi-hour jobs, §VI) lives with
transient interconnect hiccups, slow peers, and outright node loss; its
fault-tolerance answer is checkpoint/resume (§V-E). To test that story
— and the retry/failover ladder layered on top of it — this module
injects faults *underneath* the communicator API, so every call site
(daemon service loop, ring replication, collectives) runs unmodified:

- :class:`FaultPlan` — a seeded, deterministic description of what to
  break: message **drops**, **delays** (with optional seeded jitter)
  and **duplicates**, matched by source/dest/tag with bounded occurrence
  counts or seeded probabilities; whole-**rank death**; sustained
  **slow-rank** gray failures (:meth:`FaultPlan.slow_rank` /
  :meth:`FaultPlan.heal`) that delay everything a rank sends until
  healed; and **network partitions** (:meth:`FaultPlan.partition` /
  :meth:`FaultPlan.asymmetric_partition`) that silently swallow every
  message crossing a cut until the cut is healed — the split-brain
  case: both sides stay alive, neither can hear the other;
- :class:`ChaosWorld` — a drop-in :class:`~repro.comm.communicator.World`
  whose ``comm()`` hands out :class:`ChaosCommunicator` handles, so
  ``run_parallel(fn, size, world=ChaosWorld(size, plan))`` is the whole
  integration surface;
- :class:`ChaosCommunicator` — applies the plan on ``send`` and turns
  every operation of a dead rank into
  :class:`~repro.errors.RankDeadError` (the crash analog).

Death semantics mirror a lost node: the dead rank's pending and future
operations raise ``RankDeadError`` on *that* rank, while messages other
ranks send it vanish silently — peers observe timeouts, exactly what a
crashed remote looks like, and must recover via retry/failover.

Determinism: matching decisions depend only on the plan (rule order,
per-rule counters, and a ``random.Random(seed)`` stream for
probabilistic rules), so a failing chaos test replays byte-for-byte
from its seed. Delays use real timers, so wall-clock interleaving can
vary — but *which* messages are delayed does not.
"""

from __future__ import annotations

import random
import threading
from dataclasses import dataclass, field

from repro.comm.communicator import (
    ANY_SOURCE,
    ANY_TAG,
    Communicator,
    World,
    _Message,
)
from repro.errors import CommClosedError, RankDeadError

#: sentinel actions a rule can take on a matched message.
DROP = "drop"
DELAY = "delay"
DUPLICATE = "duplicate"


@dataclass
class ChaosStats:
    """What the plan actually did, for test assertions."""

    dropped: int = 0
    delayed: int = 0
    duplicated: int = 0
    blackholed: int = 0  # messages sent to an already-dead rank
    dead_rank_ops: int = 0  # operations attempted by a dead rank
    slowed: int = 0  # messages delayed by a sustained slow_rank fault
    partitioned: int = 0  # messages swallowed by an active partition cut


@dataclass
class _SlowSpec:
    """A sustained gray failure: every matching message the rank sends
    is delayed until :meth:`FaultPlan.heal` clears it."""

    seconds: float
    jitter: float = 0.0
    tag: int = ANY_TAG
    min_tag: int | None = None


@dataclass
class _Cut:
    """One directed partition edge: matching ``src``→``dst`` messages
    vanish until the cut is healed. Unlike death, the destination's
    mailbox stays open — a parked recv across the cut simply times out,
    and delivery resumes the instant the cut is removed."""

    src: int
    dst: int
    tag: int = ANY_TAG
    min_tag: int | None = None

    def blocks(self, source: int, dest: int, tag: int) -> bool:
        if self.src != source or self.dst != dest:
            return False
        if self.tag not in (ANY_TAG, tag):
            return False
        if self.min_tag is not None and tag < self.min_tag:
            return False
        return True


@dataclass
class _Rule:
    """One fault rule: match predicate + action + occurrence budget."""

    action: str
    source: int = ANY_SOURCE
    dest: int = ANY_SOURCE
    tag: int = ANY_TAG
    min_tag: int | None = None
    times: int | None = 1  # matches to consume; None = unlimited
    probability: float = 1.0
    seconds: float = 0.0  # DELAY only
    jitter: float = 0.0  # DELAY only: extra seeded uniform latency
    used: int = field(default=0, compare=False)

    def matches(self, source: int, dest: int, tag: int, rng: random.Random) -> bool:
        if self.times is not None and self.used >= self.times:
            return False
        if self.source not in (ANY_SOURCE, source):
            return False
        if self.dest not in (ANY_SOURCE, dest):
            return False
        if self.tag not in (ANY_TAG, tag):
            return False
        if self.min_tag is not None and tag < self.min_tag:
            return False
        if self.probability < 1.0 and rng.random() >= self.probability:
            return False
        self.used += 1
        return True


class FaultPlan:
    """A seeded, replayable schedule of communication faults.

    Rules are consulted in registration order on every ``send``; the
    first match wins. All mutation is behind one lock so concurrent
    rank threads observe one consistent counter/RNG stream.
    """

    def __init__(self, seed: int = 0) -> None:
        self.seed = seed
        self._rng = random.Random(seed)
        self._rules: list[_Rule] = []
        self._dead: set[int] = set()
        self._slow: dict[int, _SlowSpec] = {}
        self._cuts: dict[int, list[_Cut]] = {}
        self._next_cut_id = 0
        self._kill_after_sends: dict[int, int] = {}
        self._sends_by_rank: dict[int, int] = {}
        self._lock = threading.Lock()
        self.stats = ChaosStats()

    # -- rule registration (chainable) ------------------------------------

    def drop(
        self,
        *,
        source: int = ANY_SOURCE,
        dest: int = ANY_SOURCE,
        tag: int = ANY_TAG,
        min_tag: int | None = None,
        times: int | None = 1,
        probability: float = 1.0,
    ) -> "FaultPlan":
        """Silently discard matching messages (the lost-packet case)."""
        self._rules.append(_Rule(DROP, source, dest, tag, min_tag,
                                 times, probability))
        return self

    def delay(
        self,
        seconds: float,
        *,
        source: int = ANY_SOURCE,
        dest: int = ANY_SOURCE,
        tag: int = ANY_TAG,
        min_tag: int | None = None,
        times: int | None = 1,
        probability: float = 1.0,
        jitter: float = 0.0,
    ) -> "FaultPlan":
        """Deliver matching messages late (the slow-peer case).
        ``jitter`` adds a seeded uniform extra latency in
        ``[0, jitter)`` per matched message — which messages draw which
        jitter replays exactly from the plan seed."""
        if seconds < 0:
            raise ValueError(f"delay must be >= 0, got {seconds}")
        if jitter < 0:
            raise ValueError(f"jitter must be >= 0, got {jitter}")
        self._rules.append(_Rule(DELAY, source, dest, tag, min_tag,
                                 times, probability, seconds=seconds,
                                 jitter=jitter))
        return self

    def duplicate(
        self,
        *,
        source: int = ANY_SOURCE,
        dest: int = ANY_SOURCE,
        tag: int = ANY_TAG,
        min_tag: int | None = None,
        times: int | None = 1,
        probability: float = 1.0,
    ) -> "FaultPlan":
        """Deliver matching messages twice (the retransmit-race case)."""
        self._rules.append(_Rule(DUPLICATE, source, dest, tag, min_tag,
                                 times, probability))
        return self

    def slow_rank(
        self,
        rank: int,
        seconds: float,
        *,
        jitter: float = 0.0,
        tag: int = ANY_TAG,
        min_tag: int | None = None,
    ) -> "FaultPlan":
        """Mark ``rank`` as a sustained gray failure: every matching
        message *it sends* is delayed by ``seconds`` (plus a seeded
        uniform jitter in ``[0, jitter)``) until :meth:`heal`. Scope
        with ``tag``/``min_tag`` to slow e.g. only daemon replies while
        heartbeats keep flowing — a GC-pausing data plane with a
        healthy control plane."""
        if seconds < 0:
            raise ValueError(f"slow_rank delay must be >= 0, got {seconds}")
        if jitter < 0:
            raise ValueError(f"jitter must be >= 0, got {jitter}")
        with self._lock:
            self._slow[rank] = _SlowSpec(seconds, jitter, tag, min_tag)
        return self

    def partition(
        self,
        *groups,
        tag: int = ANY_TAG,
        min_tag: int | None = None,
    ) -> int:
        """Split the world into isolated components: every message
        between ranks of *different* groups (both directions, within the
        ``tag``/``min_tag`` scope) is silently swallowed until healed.
        Ranks absent from every group are unaffected. Returns a cut id
        for :meth:`heal(cut=...) <heal>`; ``heal()`` with no arguments
        removes every cut.

        Mailboxes stay open: unlike :meth:`kill`, a partitioned rank is
        alive and busy — it just cannot be heard across the cut, which
        is exactly what a membership detector must not confuse with
        death."""
        if len(groups) < 2:
            raise ValueError("partition needs at least two groups")
        ordered = [sorted(set(g)) for g in groups]
        seen: set[int] = set()
        for members in ordered:
            overlap = seen.intersection(members)
            if overlap:
                raise ValueError(f"partition groups overlap: {sorted(overlap)}")
            seen.update(members)
        cuts: list[_Cut] = []
        for i, left in enumerate(ordered):
            for right in ordered[i + 1:]:
                for a in left:
                    for b in right:
                        cuts.append(_Cut(a, b, tag, min_tag))
                        cuts.append(_Cut(b, a, tag, min_tag))
        return self._add_cut(cuts)

    def asymmetric_partition(
        self,
        src: int,
        dst: int,
        *,
        tag: int = ANY_TAG,
        min_tag: int | None = None,
    ) -> int:
        """Cut one direction only: ``src``'s messages to ``dst`` vanish
        while ``dst`` can still reach ``src`` — the half-broken link
        that makes naive failure detectors disagree. Returns a cut id
        for :meth:`heal(cut=...) <heal>`."""
        return self._add_cut([_Cut(src, dst, tag, min_tag)])

    def _add_cut(self, cuts: list[_Cut]) -> int:
        with self._lock:
            cut_id = self._next_cut_id
            self._next_cut_id += 1
            self._cuts[cut_id] = cuts
            return cut_id

    def heal(self, rank: int | None = None, *, cut: int | None = None) -> "FaultPlan":
        """Heal sustained faults. ``heal(rank)`` clears that rank's slow
        mark (the gray failure passed); ``heal(cut=id)`` removes one
        partition cut; ``heal()`` with no arguments removes every
        partition cut *and* every slow mark — the network is whole
        again. Messages swallowed while a cut was up stay lost (real
        links do not replay); only future sends are delivered."""
        with self._lock:
            if cut is not None:
                self._cuts.pop(cut, None)
            elif rank is not None:
                self._slow.pop(rank, None)
            else:
                self._cuts.clear()
                self._slow.clear()
        return self

    def kill(self, rank: int, *, after_sends: int = 0) -> "FaultPlan":
        """Schedule rank death: immediately, or once the rank has sent
        ``after_sends`` messages (a deterministic mid-run trigger)."""
        with self._lock:
            if after_sends <= 0:
                self._dead.add(rank)
            else:
                self._kill_after_sends[rank] = after_sends
        return self

    # -- runtime queries (called by ChaosCommunicator) --------------------

    def is_dead(self, rank: int) -> bool:
        with self._lock:
            return rank in self._dead

    def is_partitioned(self, src: int, dst: int, tag: int = 0) -> bool:
        """Whether a ``src``→``dst`` message with ``tag`` would be
        swallowed by an active cut right now."""
        with self._lock:
            return any(
                c.blocks(src, dst, tag)
                for cuts in self._cuts.values()
                for c in cuts
            )

    def slow_for(self, source: int, tag: int) -> float | None:
        """Delay seconds if ``source`` is marked slow for ``tag``, else
        None. Jitter draws come from the plan RNG under the lock, so
        the stream replays from the seed."""
        with self._lock:
            spec = self._slow.get(source)
            if spec is None:
                return None
            if spec.tag not in (ANY_TAG, tag):
                return None
            if spec.min_tag is not None and tag < spec.min_tag:
                return None
            seconds = spec.seconds
            if spec.jitter > 0.0:
                seconds += self._rng.uniform(0.0, spec.jitter)
            return seconds

    def dead_ranks(self) -> set[int]:
        with self._lock:
            return set(self._dead)

    def _mark_dead(self, rank: int) -> None:
        with self._lock:
            self._dead.add(rank)

    def revive(self, rank: int) -> "FaultPlan":
        """Clear a rank's death mark — the relaunched-process analog.
        Pair with :meth:`ChaosWorld.revive`, which also re-arms the
        mailbox; a revived rank starts with a clean slate (its send
        counter keeps counting, but no armed ``after_sends`` trigger
        remains for it)."""
        with self._lock:
            self._dead.discard(rank)
            self._kill_after_sends.pop(rank, None)
        return self

    def note_send(self, rank: int) -> bool:
        """Record one send by ``rank``; True if it crossed a scheduled
        ``after_sends`` death threshold (the send itself still happens —
        the crash lands on the *next* operation, like a real SIGKILL
        racing a completed write)."""
        with self._lock:
            self._sends_by_rank[rank] = self._sends_by_rank.get(rank, 0) + 1
            threshold = self._kill_after_sends.get(rank)
            if threshold is not None and self._sends_by_rank[rank] >= threshold:
                del self._kill_after_sends[rank]
                self._dead.add(rank)
                return True
            return False

    def decide(self, source: int, dest: int, tag: int) -> tuple[str, float]:
        """(action, value) for one message; first rule wins. The value
        is delay seconds for DELAY (base plus any seeded jitter draw)."""
        with self._lock:
            for rule in self._rules:
                if rule.matches(source, dest, tag, self._rng):
                    if rule.action == DELAY and rule.jitter > 0.0:
                        extra = self._rng.uniform(0.0, rule.jitter)
                        return rule.action, rule.seconds + extra
                    return rule.action, rule.seconds
            return "deliver", 0.0


class ChaosWorld(World):
    """A :class:`World` whose communicators route through a plan."""

    def __init__(self, size: int, plan: FaultPlan | None = None) -> None:
        super().__init__(size)
        self.plan = plan or FaultPlan()

    def comm(self, rank: int) -> "ChaosCommunicator":
        super().comm(rank)  # rank-range validation
        return ChaosCommunicator(self, rank)

    def kill(self, rank: int) -> None:
        """Kill ``rank`` now: its operations raise
        :class:`~repro.errors.RankDeadError` (pending recvs wake via the
        closed mailbox), and traffic addressed to it is blackholed."""
        if not 0 <= rank < self.size:
            raise ValueError(f"rank {rank} outside [0, {self.size})")
        self.plan._mark_dead(rank)
        self._mailboxes[rank].close()

    def revive(self, rank: int) -> None:
        """Bring a killed rank back as a fresh incarnation: its death
        mark is cleared and its mailbox re-armed (stale mail discarded).
        This models a relaunched process taking over the rank slot — it
        must rejoin via the membership protocol, not silently resume."""
        if not 0 <= rank < self.size:
            raise ValueError(f"rank {rank} outside [0, {self.size})")
        self.plan.revive(rank)
        self._mailboxes[rank].reopen()


class ChaosCommunicator(Communicator):
    """A :class:`Communicator` that consults the fault plan on every
    operation. Peers holding plain communicators into the same world
    would bypass injection, so :class:`ChaosWorld` hands out only these.
    """

    def __init__(self, world: ChaosWorld, rank: int) -> None:
        super().__init__(world, rank)
        self.plan = world.plan

    # -- death handling ---------------------------------------------------

    def _check_alive(self) -> None:
        if self.plan.is_dead(self.rank):
            self.plan.stats.dead_rank_ops += 1
            raise RankDeadError(f"rank {self.rank} is dead")

    def _translate_closed(self, exc: CommClosedError) -> BaseException:
        """A closed mailbox on a dead rank is the crash, not teardown."""
        if self.plan.is_dead(self.rank):
            self.plan.stats.dead_rank_ops += 1
            return RankDeadError(f"rank {self.rank} is dead")
        return exc

    # -- injected point-to-point ------------------------------------------

    def send(self, payload, dest: int, tag: int = 0) -> None:
        self._check_alive()
        self._check_rank(dest)
        if tag < 0:
            # keep the inner validation order: bad args fail loudly even
            # when the message would have been dropped
            super().send(payload, dest, tag)
        if self.plan.is_dead(dest):
            self.plan.stats.blackholed += 1
            self._after_send()
            return
        if self.plan.is_partitioned(self.rank, dest, tag):
            # the cut swallows the message; the sender cannot tell this
            # apart from a lost packet, and the receiver's mailbox stays
            # open (a partitioned peer is alive, just unreachable)
            self.plan.stats.partitioned += 1
            self._after_send()
            return
        slow = self.plan.slow_for(self.rank, tag)
        if slow is not None:
            # a sustained gray failure outranks the one-shot rules:
            # everything this rank sends (in scope) limps
            self.plan.stats.slowed += 1
            self._deliver_later(payload, dest, tag, slow)
            self._after_send()
            return
        action, value = self.plan.decide(self.rank, dest, tag)
        if action == DROP:
            self.plan.stats.dropped += 1
        elif action == DELAY:
            self.plan.stats.delayed += 1
            self._deliver_later(payload, dest, tag, value)
        elif action == DUPLICATE:
            self.plan.stats.duplicated += 1
            super().send(payload, dest, tag)
            super().send(payload, dest, tag)
        else:
            super().send(payload, dest, tag)
        self._after_send()

    def _after_send(self) -> None:
        self.plan.note_send(self.rank)

    def _deliver_later(self, payload, dest: int, tag: int, seconds: float) -> None:
        source = self.rank
        mailbox = self.world._mailboxes[dest]

        def _deliver() -> None:
            if self.plan.is_dead(dest):
                self.plan.stats.blackholed += 1
                return
            try:
                mailbox.put(_Message(source, tag, payload))
            except CommClosedError:
                pass  # world tore down while the message was in flight

        timer = threading.Timer(seconds, _deliver)
        timer.daemon = True
        timer.start()

    def recv(
        self,
        source: int = ANY_SOURCE,
        tag: int = ANY_TAG,
        timeout: float | None = 60.0,
    ):
        self._check_alive()
        try:
            return super().recv(source, tag, timeout)
        except CommClosedError as exc:
            raise self._translate_closed(exc) from None

    def recv_with_status(
        self,
        source: int = ANY_SOURCE,
        tag: int = ANY_TAG,
        timeout: float | None = 60.0,
    ):
        self._check_alive()
        try:
            return super().recv_with_status(source, tag, timeout)
        except CommClosedError as exc:
            raise self._translate_closed(exc) from None

    def try_recv(self, source: int = ANY_SOURCE, tag: int = ANY_TAG):
        self._check_alive()
        try:
            return super().try_recv(source, tag)
        except CommClosedError as exc:
            raise self._translate_closed(exc) from None

    # -- collectives -------------------------------------------------------

    def _exchange(self, value, timeout):
        # Chaos does not corrupt collective payloads (they model shared
        # rendezvous state, not wire messages), but a dead rank must not
        # participate — its absence stalls peers until their timeout,
        # the same signature a crashed MPI rank produces.
        self._check_alive()
        try:
            return super()._exchange(value, timeout)
        except CommClosedError as exc:
            raise self._translate_closed(exc) from None
