"""The fetch ladder as one table: every way a read leaves its home rank
× everything that can lie below it, asserted as bytes-or-error-type plus
the exact counter vector. Peers are scripts behind a stub communicator
— a silent peer is an immediate timeout, so there is no clock, no
thread and no sleep in here."""

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
from repro.fanstore.layout import FileStat, blob_crc32
from repro.fanstore.metadata import FileRecord
from repro.fanstore.wire import Reply, decode_request

ME, HOME, REPLICA = 0, 1, 2
PATH = "train/x"
GOOD, ROTTEN = b"good-bytes" * 8, b"rotten-bytes" * 8
OFFSET = 17  # where the floor's copy sits in its "partition file"


class StubPeers:
    """A communicator whose peers are scripts: ``answers[rank]`` is the
    reply pair that rank gives every fetch, or None for silence."""

    rank, size = ME, 3

    def __init__(self, answers: dict[int, tuple | None]) -> None:
        self.answers = answers
        self.asked: list[int] = []
        self._pending: dict[int, tuple | None] = {}

    def send(self, payload, dest, tag) -> None:
        kind, body = payload
        assert kind == "fetch"
        self.asked.append(dest)
        self._pending[decode_request(body).reply_tag] = self.answers[dest]

    def recv(self, source, tag, timeout=None):
        reply = self._pending.pop(tag)
        if reply is None:
            raise CommError(f"recv from rank {source} timed out")
        return reply


def _daemon(tmp_path, leave: str, below: str):
    """Rank ME with PATH homed on HOME: the home leaves the way
    ``leave`` says, and ``below`` says what the failover walk finds."""
    answers = {
        HOME: {
            "overload": (Reply.OVERLOAD, 0.0),
            "corrupt-reply": (Reply.OK, ROTTEN),
            "garbage": (True, GOOD, "not a reply"),
        }.get(leave),  # dead route / open breaker / exhausted: silent
        REPLICA: {
            "replica": (Reply.OK, GOOD),
            "corrupt-replica+floor": (Reply.OK, ROTTEN),
        }.get(below),
    }
    comm = StubPeers(answers)
    daemon = FanStoreDaemon(comm, config=DaemonConfig(
        max_retries=1, retry_backoff_base=0.0, retry_jitter=0.0,
        breaker_reset_after=3600.0,
    ))
    daemon.metadata.insert(FileRecord(
        path=PATH,
        stat=FileStat(st_size=len(GOOD)).with_digest(blob_crc32(GOOD)),
        compressor_id=1,
        compressed_size=len(GOOD),
        home_rank=HOME,
        partition_id=0,
        data_offset=OFFSET,
    ))
    if below != "nothing":
        daemon.metadata.add_replica(PATH, REPLICA)
    if below == "corrupt-replica+floor":
        part = tmp_path / "part-0"
        part.write_bytes(b"\0" * OFFSET + GOOD + b"trailer")
        daemon._prepared = types.SimpleNamespace(
            partition_paths=lambda: [part], broadcast_path=lambda: None
        )
    if leave == "dead-route":
        daemon._note_dead_route(HOME)
    elif leave == "open-breaker":
        daemon.health.force_open(HOME)
    return daemon, comm


#: leave → (failovers, dead_route_skips, breaker_skips, home asked,
#:          home negative-cached afterwards, error when nothing is below)
LEAVE = {
    "dead-route": (1, 1, 0, 0, True, RetryExhaustedError),
    "open-breaker": (1, 0, 1, 0, False, RetryExhaustedError),
    "exhausted": (1, 0, 0, 2, True, RetryExhaustedError),
    # anything on the reply tag that is not a reply is a lost reply
    "garbage": (1, 0, 0, 2, True, RetryExhaustedError),
    "overload": (1, 0, 0, 2, False, ServerOverloadedError),
    # not a failover: the home answered, so the read goes to repair,
    # which re-asks it once (full budget, answered at once) and walks
    "corrupt-reply": (0, 0, 0, 2, False, DataIntegrityError),
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
    failovers, dead_skips, breaker_skips, home_asked, cached, error = (
        LEAVE[leave]
    )
    replica_asked, replica_fetches, degraded = BELOW[below]
    if below == "nothing":
        with pytest.raises(error) as raised:
            daemon.fetch_compressed(PATH)
        assert type(raised.value) is error
    else:
        assert daemon.fetch_compressed(PATH) == GOOD
    corrupt = leave == "corrupt-reply"
    stats = daemon.stats
    assert {
        "failovers": stats.failovers,
        "dead_route_skips": stats.dead_route_skips,
        "breaker_skips": stats.breaker_skips,
        # a home success counts even when its bytes then fail the digest;
        # repair's home re-ask never does
        "remote_fetches": stats.remote_fetches,
        "degraded_reads": stats.degraded_reads,
        "corruption_detected": stats.corruption_detected,
        "corruption_repaired": stats.corruption_repaired,
        "home_negative_cached": daemon._route_dead(HOME),
        "replica_negative_cached": daemon._route_dead(REPLICA),
        "asked": (comm.asked.count(HOME), comm.asked.count(REPLICA)),
    } == {
        "failovers": failovers,
        "dead_route_skips": dead_skips,
        "breaker_skips": breaker_skips,
        "remote_fetches": corrupt + replica_fetches,
        "degraded_reads": degraded,
        "corruption_detected": int(corrupt),
        "corruption_repaired": int(corrupt and below != "nothing"),
        "home_negative_cached": cached,
        "replica_negative_cached": False,  # one-attempt probes never are
        "asked": (home_asked, replica_asked),
    }
    # whatever tier answered, a repaired or degraded read leaves the
    # verified bytes in the local backend
    assert (PATH in daemon.backend) == (
        below != "nothing" and (corrupt or bool(degraded))
    )
