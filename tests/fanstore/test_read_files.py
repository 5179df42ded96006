"""The batched read (``FanStoreClient.read_files``): first that it *is*
``[read_file(p) for p in paths]`` on a live 3-rank store, then its
fallback rule as one table — everything that can be wrong with an
envelope × the bytes or error type the caller sees plus the exact
counter vector. The table's peers are scripts behind a stub
communicator (a silent peer is an immediate timeout), so it has no
thread, no clock and no sleep; ``docs/daemon-pipeline.md`` §3 is the
prose form of it."""

from __future__ import annotations

import random

import pytest

from repro.comm.launcher import run_parallel
from repro.datasets.synthetic import generate_dataset
from repro.errors import CommError, FileNotFoundInStoreError, RankDeadError
from repro.fanstore.client import FanStoreClient
from repro.fanstore.daemon import DaemonConfig, FanStoreDaemon
from repro.fanstore.exchange import BATCH_MAX
from repro.fanstore.layout import FileStat, blob_crc32
from repro.fanstore.metadata import FileRecord
from repro.fanstore.prepare import prepare_dataset
from repro.fanstore.store import FanStore, FanStoreOptions
from repro.fanstore.wire import Reply, decode_request, encode_batch_reply
from tests.fanstore.test_failover_ladder import StubDetector

# -- equivalence on a live store ------------------------------------------------

RANKS = 3
OUTPUTS_PER_RANK = 3


@pytest.fixture(scope="module")
def packed(tmp_path_factory):
    """72 small ``zlib-1`` files in three partitions: every rank homes
    more than ``BATCH_MAX`` of them."""
    root = tmp_path_factory.mktemp("read-files")
    generate_dataset(
        "tokamak", root / "raw", num_files=72, avg_file_size=1500,
        num_dirs=3, seed=21,
    )
    prepared = prepare_dataset(
        root / "raw", root / "packed", num_partitions=RANKS,
        compressor="zlib-1",
    )
    originals = {
        str(p.relative_to(root / "raw")): p.read_bytes()
        for p in sorted((root / "raw").rglob("*")) if p.is_file()
    }
    return prepared, originals


def _output(rank: int, i: int) -> tuple[str, bytes]:
    return f"out/r{rank}/f{i}.log", f"rank {rank} line {i}\n".encode() * 40


def _respell(path: str) -> str:
    head, tail = path.split("/", 1)
    return f"{head}//./{tail}"


def _nothing_pinned(daemon, paths) -> bool:
    cache = daemon.cache
    return len(cache) == 0 and not any(cache.refcount(p) for p in paths)


@pytest.mark.parametrize("seed", (1, 2, 3))
def test_read_files_is_the_read_file_loop(packed, seed):
    """Seeded path lists over everything a path can be — homed here,
    homed on either peer (packaged files on one, its runtime outputs on
    the other), replica-local through the extra partition, repeated,
    spelled non-canonically, a runtime output this table has never seen
    — read the same bytes either way; and an absent path raises what
    ``read_file`` raises, with nothing left pinned."""
    prepared, originals = packed
    config = DaemonConfig(
        extra_partition_budget=1, output_compressor="zlib-1", metrics_every=4
    )
    expected = dict(originals)
    for rank in range(RANKS):
        expected.update(_output(rank, i) for i in range(OUTPUTS_PER_RANK))

    def body(comm):
        with FanStore(prepared, FanStoreOptions(comm=comm, config=config)) as fs:
            client, daemon = fs.client, fs.daemon
            for i in range(OUTPUTS_PER_RANK):
                client.write_file(*_output(comm.rank, i))
            comm.barrier()  # every output sealed before anyone reads
            rng = random.Random(1000 * seed + comm.rank)
            names = sorted(expected)
            kinds = set()
            for _ in range(12):
                paths = rng.choices(names, k=rng.randint(1, 40))
                paths += rng.sample(paths, k=min(3, len(paths)))  # repeats
                paths = [
                    _respell(p) if rng.random() < 0.15 else p for p in paths
                ]
                for p in paths:
                    record = daemon.metadata.probe(p)
                    kinds.add(
                        "unknown" if record is None
                        else "local" if record.home_rank == comm.rank
                        else "replica" if p in daemon.backend
                        else f"remote{record.home_rank}"
                    )
                want = [client.read_file(p) for p in paths]
                assert client.read_files(paths) == want
                assert want == [
                    expected[p.replace("//./", "/")] for p in paths
                ]
                assert _nothing_pinned(daemon, names)
            # every kind of path came up, and envelopes really went out
            assert kinds == {"unknown", "local", "replica"} | {
                f"remote{r}" for r in range(RANKS) if r != comm.rank
            }
            assert fs.metrics.snapshot().value("daemon.batch.flushes") > 0

            # one home, more than BATCH_MAX paths: two envelopes
            right = (comm.rank + 1) % RANKS
            homed = [
                r.path for r in daemon.metadata.walk_files()
                if r.home_rank == right and r.path in originals
            ]
            assert len(homed) > BATCH_MAX + 1
            before = fs.metrics.snapshot()
            assert client.read_files(homed) == [originals[p] for p in homed]
            after = fs.metrics.snapshot()
            assert {
                name: after.value(name) - before.value(name)
                for name in ("daemon.batch.flushes", "daemon.batch.items",
                             "daemon.batch.fallbacks", "daemon.remote_fetches")
            } == {
                "daemon.batch.flushes": 2,
                "daemon.batch.items": len(homed),
                "daemon.batch.fallbacks": 0,
                "daemon.remote_fetches": len(homed),
            }

            # an absent path: read_file's error, after the paths before
            # it were read, and nothing stays pinned
            doomed = [*homed[:4], "no/such/file", *homed[4:8]]
            with pytest.raises(FileNotFoundInStoreError):
                client.read_files(doomed)
            assert _nothing_pinned(daemon, names)
            # decode sampling kept ticking on batched misses
            assert fs.metrics.snapshot().value(
                "codec.zlib-1.decode_bytes"
            ) > 0
            return True

    assert run_parallel(body, RANKS, timeout=120) == [True] * RANKS


# -- the fallback table ---------------------------------------------------------

ME, HOME, REPLICA = 0, 1, 2
PATHS = [f"train/f{i}" for i in range(4)]
ODD = PATHS[2]  # the one path a case does something to


def _good(path: str) -> bytes:
    return f"good bytes of {path} ".encode() * 6


ROTTEN = bytes([_good(ODD)[0] ^ 0x01]) + _good(ODD)[1:]  # one flipped bit


class ScriptedPeers:
    """A communicator whose peers are scripts. A ``fetch`` of ``path``
    from ``rank`` is answered with ``classic[rank, path]`` (default: the
    good bytes; ``None``: silence). A ``batch`` envelope to ``rank`` is
    answered item by item from ``items`` (default: the good bytes),
    unless ``envelope`` says it is lost or what garbage comes back."""

    rank, size = ME, 3

    def __init__(self, *, envelope="served", items=None, classic=None,
                 dead=False) -> None:
        self.envelope = envelope
        self.items = items or {}
        self.classic = classic or {}
        self.dead = dead
        self.sent: list[tuple[str, int]] = []
        self._pending: dict[int, object] = {}

    def send(self, payload, dest, tag) -> None:
        if self.dead:
            raise RankDeadError("this rank was killed")
        kind, body = payload
        request = decode_request(body)
        self.sent.append((kind, dest))
        if kind == "fetch":
            path = request.subject
            reply = self.classic.get((dest, path), (Reply.OK, _good(path)))
        elif self.envelope == "served":
            assert all(k == "fetch" for k, _subject, _expiry in request.batch)
            reply = encode_batch_reply([
                Reply(*self.items.get(path, (Reply.OK, _good(path))))
                for _kind, path, _expiry in request.batch
            ])
        else:
            reply = {
                "lost": None,
                "not-a-batch-reply": (Reply.OVERLOAD, 0.0),
                "short": encode_batch_reply([Reply(Reply.OK, _good(ODD))]),
                "bad-status": ("__batch_reply__", (("nonsense", None),) * 4),
            }[self.envelope]
        self._pending[request.reply_tag] = reply

    def recv(self, source, tag, timeout=None):
        reply = self._pending.pop(tag)
        if reply is None:
            raise CommError(f"recv from rank {source} timed out")
        return reply


def _client(peers: ScriptedPeers, **config) -> FanStoreClient:
    """Rank ME with PATHS homed on HOME and replicated on REPLICA."""
    daemon = FanStoreDaemon(peers, config=DaemonConfig(
        max_retries=0, breaker_reset_after=3600.0, metrics_every=0, **config,
    ))
    memcpy = daemon.registry.get("memcpy").compressor_id
    for path in PATHS:
        good = _good(path)
        daemon.metadata.insert(FileRecord(
            path=path,
            stat=FileStat(st_size=len(good)).with_digest(blob_crc32(good)),
            compressor_id=memcpy,
            compressed_size=len(good),
            home_rank=HOME,
            partition_id=0,
        ))
        daemon.metadata.add_replica(path, REPLICA)
    return FanStoreClient(daemon)


def _vector(client: FanStoreClient, peers: ScriptedPeers) -> dict:
    daemon = client.daemon
    stats, snap = daemon.stats, daemon.metrics.snapshot()
    sent = peers.sent
    return {
        "envelopes": sent.count(("batch", HOME)),
        "asked_home": sent.count(("fetch", HOME)),
        "asked_replica": sent.count(("fetch", REPLICA)),
        "remote_fetches": stats.remote_fetches,
        "failovers": stats.failovers,
        "retries": stats.retries,
        "flushes": snap.value("daemon.batch.flushes"),
        "items": snap.value("daemon.batch.items"),
        "fallbacks": snap.value("daemon.batch.fallbacks"),
        "corruption_detected": stats.corruption_detected,
    }


def _expect(**moved) -> dict:
    """The counter vector of a clean batched read of PATHS, with what a
    case moves."""
    clean = {
        "envelopes": 1, "asked_home": 0, "asked_replica": 0,
        "remote_fetches": 4, "failovers": 0, "retries": 0,
        "flushes": 1, "items": 4, "fallbacks": 0, "corruption_detected": 0,
    }
    assert set(moved) <= set(clean)
    return {**clean, **moved}


def _convict_home(daemon: FanStoreDaemon) -> None:
    daemon._membership = StubDetector.convicting(HOME)


#: no envelope goes out: every path is an ordinary read of its own
UNBATCHED = dict(envelopes=0, asked_home=4, flushes=0, items=0)
#: an envelope went out and settled nothing: four fallbacks
UNSETTLED = dict(asked_home=4, flushes=0, items=0, fallbacks=4)
#: one item of a served envelope was not settled; its path re-asks HOME
ONE_FELL_BACK = dict(asked_home=1, fallbacks=1)

#: case → (peers' script, daemon config, set-up, outcome, counter vector);
#: the outcome is an error type or None for "the right bytes"
CASES = {
    "clean": ({}, {}, None, None, _expect()),
    "envelope-lost": (
        dict(envelope="lost"), {}, None, None, _expect(**UNSETTLED)),
    "reply-not-a-batch": (
        dict(envelope="not-a-batch-reply"), {}, None, None,
        _expect(**UNSETTLED)),
    "reply-bad-status": (
        dict(envelope="bad-status"), {}, None, None, _expect(**UNSETTLED)),
    "reply-too-short": (
        dict(envelope="short"), {}, None, None, _expect(**UNSETTLED)),
    "item-miss": (
        # the home says so twice: batched, then asked alone
        dict(items={ODD: (Reply.MISS, ODD)},
             classic={(HOME, ODD): (Reply.MISS, ODD)}),
        {}, None, FileNotFoundInStoreError,
        # the two paths before ODD were read; ODD's own re-ask is a miss
        _expect(remote_fetches=3, **ONE_FELL_BACK)),
    "item-failed": (
        dict(items={ODD: (Reply.FAILED, ODD)}), {}, None, None,
        _expect(**ONE_FELL_BACK)),
    "item-expired": (
        dict(items={ODD: (Reply.EXPIRED, ODD)}), {}, None, None,
        _expect(**ONE_FELL_BACK)),
    "item-not-bytes": (
        dict(items={ODD: (Reply.OK, 12345)}), {}, None, None,
        _expect(**ONE_FELL_BACK)),
    "item-bit-flipped": (
        # the home's copy is rotten however it is asked: the fallback's
        # ladder counts the fetch, detects, re-asks home once (repair)
        # and heals from the replica
        dict(items={ODD: (Reply.OK, ROTTEN)},
             classic={(HOME, ODD): (Reply.OK, ROTTEN)}),
        {}, None, None,
        # fetches: 3 batched + the home's rotten answer (counted before
        # its digest, as ever) + the replica's good one
        _expect(asked_home=2, asked_replica=1, fallbacks=1,
                remote_fetches=5, corruption_detected=1)),
    "home-convicted": (
        {}, {}, _convict_home, None,
        _expect(**{**UNBATCHED, "asked_home": 0}, asked_replica=4,
                failovers=4)),
    "home-negative-cached": (
        # an earlier full-budget exchange with HOME was exhausted (the
        # one send counted here): its breaker is the memory of that
        dict(classic={(HOME, "train/lost"): None}), {},
        lambda d: d._peer_fetch("train/lost", None, HOME), None,
        _expect(**{**UNBATCHED, "asked_home": 1}, asked_replica=4,
                failovers=4)),
    "breaker-open": (
        {}, {}, lambda d: d.health.force_open(HOME), None,
        _expect(**{**UNBATCHED, "asked_home": 0}, asked_replica=4,
                failovers=4)),
    "hedge-reads": ({}, dict(hedge_reads=True), None, None,
                    _expect(**UNBATCHED)),
    "trace-sampling": ({}, dict(trace_sample=1.0), None, None,
                       _expect(**UNBATCHED)),
    "rank-dead": (
        dict(dead=True), {}, None, RankDeadError,
        _expect(envelopes=0, remote_fetches=0, flushes=0, items=0)),
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_fallback_outcome_and_counters(case):
    script, config, setup, error, vector = CASES[case]
    peers = ScriptedPeers(**script)
    client = _client(peers, **config)
    if setup is not None:
        setup(client.daemon)
    if error is None:
        assert client.read_files(PATHS) == [_good(p) for p in PATHS]
    else:
        with pytest.raises(error) as raised:
            client.read_files(PATHS)
        assert type(raised.value) is error
    assert _vector(client, peers) == vector
    assert _nothing_pinned(client.daemon, PATHS)


def test_a_lone_path_per_home_is_a_classic_request():
    """One path for a home is not worth an envelope; nor is a path
    already resident, already local, or not in this table."""
    peers = ScriptedPeers()
    client = _client(peers)
    daemon = client.daemon
    assert client.read_files([ODD]) == [_good(ODD)]
    assert peers.sent == [("fetch", HOME)]

    del peers.sent[:]
    fd = client.open(PATHS[0])  # resident: a cache hit, not a fetch
    daemon.backend.put(PATHS[1], _good(PATHS[1]))  # a local replica
    opens = daemon.cache.stats.opens
    assert client.read_files(PATHS[:3]) == [_good(p) for p in PATHS[:3]]
    client.close(fd)
    # the fd's own fetch, then only PATHS[2] left for HOME: asked alone
    assert peers.sent == [("fetch", HOME)] * 2
    assert daemon.cache.stats.opens == opens + 3  # one per path, no probe


def test_a_repeated_path_is_fetched_once():
    peers = ScriptedPeers()
    client = _client(peers)
    paths = [PATHS[0], PATHS[1], PATHS[0]]
    assert client.read_files(paths) == [_good(p) for p in paths]
    # one envelope of two items, then the repeat as an ordinary read
    assert peers.sent == [("batch", HOME), ("fetch", HOME)]
    assert _vector(client, peers)["items"] == 2
