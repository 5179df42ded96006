"""The fetch ladder as one table: every way a read leaves its home rank
× everything that can lie below it, asserted as bytes-or-error-type plus
the exact counter vector — then the gate every asker puts that question
to (``FanStoreDaemon._skip_reason``), shown to be the only thing between
a convicted peer and a request. Peers are scripts behind a stub
communicator — a silent peer is an immediate timeout, so there is no
clock, no thread and no sleep in here."""

from __future__ import annotations

import types

import pytest

from repro.errors import (
    CommError,
    DataIntegrityError,
    RetryExhaustedError,
    ServerOverloadedError,
)
from repro.fanstore.daemon import DaemonConfig, FanStoreDaemon
from repro.fanstore.health import BreakerState
from repro.fanstore.layout import FileStat, blob_crc32
from repro.fanstore.membership import ClusterView, RankState
from repro.fanstore.metadata import FileRecord, RereplicationStep
from repro.fanstore.wire import Reply, decode_request

ME, HOME, REPLICA = 0, 1, 2
PATH, SIBLING = "train/x", "train/y"  # both homed on HOME
GOOD, ROTTEN = b"good-bytes" * 8, b"rotten-bytes" * 8
OFFSET = 17  # where the floor's copy sits in its "partition file"


class StubPeers:
    """A communicator whose peers are scripts: ``answers[rank]`` is the
    reply pair that rank gives every fetch, or None for silence (which
    is all a ``batch`` envelope ever gets here)."""

    rank, size = ME, 3

    def __init__(self, answers: dict[int, tuple | None]) -> None:
        self.answers = answers
        self.asked: list[int] = []
        self._pending: dict[int, tuple | None] = {}

    def send(self, payload, dest, tag) -> None:
        kind, body = payload
        assert kind in ("fetch", "batch")
        self.asked.append(dest)
        self._pending[decode_request(body).reply_tag] = (
            self.answers[dest] if kind == "fetch" else None
        )

    def recv(self, source, tag, timeout=None):
        reply = self._pending.pop(tag)
        if reply is None:
            raise CommError(f"recv from rank {source} timed out")
        return reply


class StubDetector:
    """Just enough of ``FailureDetector`` for the daemon's read side: a
    view only the test changes."""

    def __init__(self, view: ClusterView) -> None:
        self.view = view

    @classmethod
    def convicting(cls, rank: int) -> "StubDetector":
        view = ClusterView(3)
        view.set_state(rank, RankState.DEAD, bump_epoch=True)
        return cls(view)

    @property
    def epoch(self) -> int:
        return self.view.epoch

    def is_dead(self, rank: int) -> bool:
        return self.view.state(rank) == RankState.DEAD


def _daemon(tmp_path, leave: str, below: str, corpse: int = HOME):
    """Rank ME with PATH homed on HOME: the home leaves the way
    ``leave`` says (``corpse`` is whom a dead route's conviction names),
    and ``below`` says what the failover walk finds."""
    answers = {
        HOME: {
            "overload": (Reply.OVERLOAD, 0.0),
            "corrupt-reply": (Reply.OK, ROTTEN),
            "non-bytes-reply": (Reply.OK, 12345),
            "garbage": (True, GOOD, "not a reply"),
        }.get(leave),  # dead route / open breaker / exhausted / probe: silent
        REPLICA: {
            "replica": (Reply.OK, GOOD),
            "corrupt-replica+floor": (Reply.OK, ROTTEN),
        }.get(below),
    }
    comm = StubPeers(answers)
    daemon = FanStoreDaemon(comm, config=DaemonConfig(
        max_retries=1, breaker_reset_after=3600.0,
    ))
    for path in (PATH, SIBLING):
        daemon.metadata.insert(FileRecord(
            path=path,
            stat=FileStat(st_size=len(GOOD)).with_digest(blob_crc32(GOOD)),
            compressor_id=1,
            compressed_size=len(GOOD),
            home_rank=HOME,
            partition_id=0,
            data_offset=OFFSET,
        ))
        if below != "nothing":
            daemon.metadata.add_replica(path, REPLICA)
    if below == "corrupt-replica+floor":
        part = tmp_path / "part-0"
        part.write_bytes(b"\0" * OFFSET + GOOD + b"trailer")
        daemon._prepared = types.SimpleNamespace(
            partition_paths=lambda: [part], broadcast_path=lambda: None
        )
    if leave == "dead-route":
        daemon._membership = StubDetector.convicting(corpse)
    elif leave == "open-breaker":
        daemon.health.force_open(HOME)
    elif leave == "failed-probe":
        daemon.health.force_open(HOME)
        daemon.health.half_open(HOME)
    return daemon, comm


#: leave → (failovers, skips, home asked, home breaker open afterwards,
#:          error when nothing is below, what that error says of the home)
LEAVE = {
    # the view convicted the home: that alone is a no, whatever the
    # breaker thinks
    "dead-route": (1, 1, 0, False, RetryExhaustedError, "(convicted,"),
    "open-breaker": (1, 1, 0, True, RetryExhaustedError, "(breaker,"),
    # two strikes of three, but a spent full budget opens it on the spot
    "exhausted": (1, 0, 2, True, RetryExhaustedError, "2 attempt(s)"),
    # anything on the reply tag that is not a reply is a lost reply
    "garbage": (1, 0, 2, True, RetryExhaustedError, "2 attempt(s)"),
    # pressure, not death: two strikes and the breaker stays closed
    "overload": (1, 0, 2, False, ServerOverloadedError, "2 attempt(s)"),
    # a half-open breaker lets one attempt through, not a retry ladder
    "failed-probe": (1, 0, 1, True, RetryExhaustedError, "1 attempt(s)"),
    # not a failover: the home answered, so the read goes to repair,
    # which re-asks it once (full budget, answered at once) and walks
    "corrupt-reply": (0, 0, 2, False, DataIntegrityError, PATH),
    # an OK whose value is no blob is a corrupt reply too, not a crash
    "non-bytes-reply": (0, 0, 2, False, DataIntegrityError, PATH),
}
#: below → (replica asked, replica fetches counted, degraded reads)
BELOW = {
    "replica": (1, 1, 0),
    "corrupt-replica+floor": (1, 0, 1),
    "nothing": (0, 0, 0),
}


@pytest.mark.parametrize("below", sorted(BELOW))
@pytest.mark.parametrize("leave", sorted(LEAVE))
def test_ladder_outcome_and_counters(tmp_path, leave, below):
    daemon, comm = _daemon(tmp_path, leave, below)
    failovers, skips, home_asked, opened, error, says = LEAVE[leave]
    replica_asked, replica_fetches, degraded = BELOW[below]
    if below == "nothing":
        with pytest.raises(error) as raised:
            daemon.fetch_compressed(PATH)
        assert type(raised.value) is error
        assert says in raised.value.args[0]
    else:
        assert daemon.fetch_compressed(PATH) == GOOD
    corrupt = leave in ("corrupt-reply", "non-bytes-reply")
    stats, health = daemon.stats, daemon.health
    assert {
        "failovers": stats.failovers,
        "breaker_skips": stats.breaker_skips,
        "breaker_probes": stats.breaker_probes,
        # a home success counts even when its bytes then fail the digest;
        # repair's home re-ask never does
        "remote_fetches": stats.remote_fetches,
        "degraded_reads": stats.degraded_reads,
        "corruption_detected": stats.corruption_detected,
        "corruption_repaired": stats.corruption_repaired,
        "home_breaker_open": health.state(HOME) is BreakerState.OPEN,
        "replica_breaker_open": health.state(REPLICA) is BreakerState.OPEN,
        "asked": (comm.asked.count(HOME), comm.asked.count(REPLICA)),
    } == {
        "failovers": failovers,
        "breaker_skips": skips,
        "breaker_probes": int(leave == "failed-probe"),
        "remote_fetches": corrupt + replica_fetches,
        "degraded_reads": degraded,
        "corruption_detected": int(corrupt),
        "corruption_repaired": int(corrupt and below != "nothing"),
        "home_breaker_open": opened,
        "replica_breaker_open": False,  # a one-attempt probe opens nothing
        "asked": (home_asked, replica_asked),
    }
    # whatever tier answered, a repaired or degraded read leaves the
    # verified bytes in the local backend
    assert (PATH in daemon.backend) == (
        below != "nothing" and (corrupt or bool(degraded))
    )


def test_a_corrupt_reply_never_reaches_the_reader(tmp_path):
    """Whatever its home hashed or skipped, a requester hashes every
    blob on arrival — and the mutant: a requester whose ``_blob_ok``
    always says yes hands a scripted peer's corrupt bytes to the
    reader."""
    daemon, _ = _daemon(tmp_path, "corrupt-reply", "nothing")
    with pytest.raises(DataIntegrityError):
        daemon.fetch_compressed(PATH)

    mutant, _ = _daemon(tmp_path, "corrupt-reply", "nothing")
    mutant._blob_ok = lambda record, data: True
    assert mutant.fetch_compressed(PATH) == ROTTEN


def test_the_walk_probes_only_the_replica_it_asks(tmp_path):
    """The failover walk orders the replicas by what the breakers and
    the view say, which counts no probe, and puts each replica to the
    gate just before asking it. With a silent home, a healthy replica
    and a half-open one behind it, the healthy one answers: the
    half-open one is never asked, no probe is counted, and it stays
    half-open. (The parent gated every replica while ordering them: one
    phantom probe, and the breaker still half-open.)"""
    daemon, comm = _daemon(tmp_path, "exhausted", "replica")
    comm.size = 4
    comm.answers[3] = (Reply.OK, GOOD)
    daemon.metadata.add_replica(PATH, 3)
    daemon.health.force_open(3)
    daemon.health.half_open(3)
    assert daemon.read_file(PATH) == GOOD
    assert (comm.asked.count(REPLICA), comm.asked.count(3)) == (1, 0)
    assert daemon.stats.breaker_probes == 0
    assert daemon.health.state(3) is BreakerState.HALF_OPEN


def _stage(daemon) -> None:
    daemon.replication._stage_copy(RereplicationStep(
        path=PATH, partition_id=0, old_home=HOME, new_home=ME, stage_rank=ME,
        source_ranks=(HOME, REPLICA), new_replicas=(REPLICA,),
        compressed_size=len(GOOD),
    ))


#: everyone who might send a convicted peer a request → (the corpse,
#: what makes them consider it)
ASKERS = {
    "ladder": (HOME, lambda d: d.fetch_compressed(PATH)),
    "fetch_many": (HOME, lambda d: d.fetch_many([PATH, SIBLING])),
    "repair": (HOME, lambda d: d.repair(PATH)),
    "stage_copy": (HOME, _stage),
    # a silent home, and the failover walk's order over the replicas
    "replica_order": (REPLICA, lambda d: d.fetch_compressed(PATH)),
}


@pytest.mark.parametrize("asker", sorted(ASKERS))
def test_one_gate_stands_between_a_convicted_peer_and_every_asker(
    tmp_path, asker
):
    """Nobody asks a convicted peer — and the mutant: a gate that always
    says yes is *sufficient* to make every asker ask it. No asker keeps
    a second opinion (a table of bad peers, a view probe of its own)."""
    corpse, consider = ASKERS[asker]
    daemon, comm = _daemon(
        tmp_path, "dead-route", "corrupt-replica+floor", corpse
    )
    consider(daemon)
    assert corpse not in comm.asked

    mutant, comm = _daemon(
        tmp_path, "dead-route", "corrupt-replica+floor", corpse
    )
    mutant._skip_reason = lambda peer: None
    consider(mutant)
    assert corpse in comm.asked
