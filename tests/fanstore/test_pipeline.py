"""PR 9 concurrency suite: the pipelined scheduler.

The one coalescing point (a miss storm on a file runs one
:meth:`DecompressedCache.get_or_compute` factory), per-destination
request batching (parked requests flush as one envelope, items keep
their own deadlines and error isolation), one answer function behind
both serving entry points, a hedged miss storm installing exactly one
cache entry, and the typed wire envelope (the only request form the
wire accepts; replies are ``(status, value)`` pairs).
"""

from __future__ import annotations

import sys
import threading
import time

import pytest

from repro.comm.deadline import Deadline
from repro.comm.launcher import run_parallel
from repro.errors import (
    DeadlineExpiredError,
    FanStoreError,
    WireFormatError,
)
from repro.fanstore.cache import DecompressedCache
from repro.fanstore.daemon import DaemonConfig, FanStoreDaemon
from repro.fanstore.layout import FileStat, blob_crc32
from repro.fanstore.metadata import FileRecord
from repro.fanstore.wire import (
    WIRE_MAGIC,
    WIRE_VERSION,
    Reply,
    Request,
    decode_batch_reply,
    decode_reply,
    decode_request,
    encode_batch_reply,
)


def _record(path: str, payload: bytes, home_rank: int = 0) -> FileRecord:
    # compressor 1 is memcpy: "compressed" and plain bytes coincide, so
    # these records round-trip through the real decompress path
    return FileRecord(
        path=path,
        stat=FileStat(st_size=len(payload)).with_digest(blob_crc32(payload)),
        compressor_id=1,
        compressed_size=len(payload),
        home_rank=home_rank,
        partition_id=0,
    )


#: quick retries but a generous per-attempt budget: the batching tests
#: must never fall back to the classic ladder because of a slow CI box.
CALM = dict(
    request_timeout=2.0,
    max_retries=1,
)


# -- the typed wire envelope ----------------------------------------------


class TestWireEnvelope:
    def test_v2_round_trip(self):
        req = Request(
            subject="train/x",
            reply_tag=0x1007,
            trace_ctx=("trace", 1),
            deadline=1234.5,
            epoch=3,
            batch=(("fetch", "train/x", None),),
        )
        assert decode_request(req.encode()) == req

    def test_magic_stays_out_of_the_path_value_space(self):
        # normalized paths never contain NULs, so no subject can be
        # mistaken for the envelope marker
        assert "\x00" in WIRE_MAGIC

    def test_newer_version_decodes_known_prefix(self):
        body = Request(subject="p", reply_tag=1, epoch=2).encode()
        body = (body[0], WIRE_VERSION + 1) + body[2:] + ("future-field",)
        req = decode_request(body)
        assert req.subject == "p"
        assert req.reply_tag == 1
        assert req.epoch == 2

    def test_older_version_rejected(self):
        body = Request(subject="p", reply_tag=1).encode()
        with pytest.raises(WireFormatError):
            decode_request((body[0], WIRE_VERSION - 1) + body[2:])

    def test_truncated_envelope_rejected(self):
        body = Request(subject="p", reply_tag=1).encode()
        with pytest.raises(WireFormatError):
            decode_request(body[:6])

    @pytest.mark.parametrize(
        "field,value",
        [
            ("reply_tag", -1),
            ("reply_tag", True),
            ("reply_tag", "seven"),
            ("epoch", "stale"),
            ("epoch", True),
            ("batch", ["not", "a", "tuple"]),
        ],
    )
    def test_hostile_fields_rejected(self, field, value):
        body = list(Request(subject="p", reply_tag=7).encode())
        body[{"reply_tag": 3, "epoch": 6, "batch": 7}[field]] = value
        with pytest.raises(WireFormatError):
            decode_request(tuple(body))

    def test_bogus_deadline_sanitized(self):
        body = list(Request(subject="p", reply_tag=9).encode())
        body[5] = "soon"
        assert decode_request(tuple(body)).deadline is None

    def test_reply_wire_shape_is_head_value_pair(self):
        # one vocabulary: the head that travels is the Reply status
        assert Reply(Reply.OK, b"d").encode() == ("ok", b"d")
        assert Reply(Reply.MISS, "p").encode() == ("miss", "p")
        assert Reply(Reply.OVERLOAD, 0.5).encode() == ("overload", 0.5)
        assert Reply(Reply.FENCED, 3).encode() == ("fenced", 3)
        assert Reply(Reply.EXPIRED, "p").encode() == ("expired", "p")
        assert Reply(Reply.FAILED, "p").encode() == ("failed", "p")

    def test_reply_round_trip_and_unknown_marker(self):
        for reply in (
            Reply(Reply.OK, b"x"),
            Reply(Reply.MISS, None),
            Reply(Reply.EXPIRED, "p"),
        ):
            assert decode_reply(reply.encode()) == reply
        for garbage in (("__mystery__", None), (True, b"x"), "ok", 7):
            with pytest.raises(WireFormatError):
                decode_reply(garbage)

    def test_batch_reply_round_trip(self):
        replies = [
            Reply(Reply.OK, b"a"),
            Reply(Reply.FAILED, "p"),
            Reply(Reply.MISS, "q"),
        ]
        assert decode_batch_reply(encode_batch_reply(replies)) == replies

    def test_non_batch_reply_decodes_to_none(self):
        assert decode_batch_reply((Reply.OK, b"payload")) is None
        assert decode_batch_reply((Reply.OVERLOAD, 0.1)) is None


class TestLegacyShim:
    """The positional pre-envelope bodies are no longer a wire form."""

    @pytest.mark.parametrize(
        "body",
        [
            ("train/x", 9),
            ("p", 9, ("ctx",)),
            ("p", 9, None, 55.0),
            ("p", 9, None, 55.0, 4),
            ("p", 9, None, None, 1, "extra"),
            12345,
        ],
        ids=["2-tuple", "3-tuple", "4-tuple", "5-tuple", "oversized",
             "non-tuple"],
    )
    def test_legacy_body_rejected(self, body):
        with pytest.raises(WireFormatError):
            decode_request(body)


# -- the cache double-decompress fix --------------------------------------


class TestCacheGetOrCompute:
    def test_miss_storm_decompresses_once(self):
        cache = DecompressedCache(1 << 20)
        runs = []
        entered = threading.Event()
        release = threading.Event()

        def factory():
            runs.append(1)
            entered.set()
            assert release.wait(10)
            return b"plain-bytes"

        n = 6
        start = threading.Barrier(n)
        got: list[bytes] = []

        def worker():
            start.wait(10)
            got.append(cache.get_or_compute("d/x", factory))

        threads = [threading.Thread(target=worker) for _ in range(n)]
        for t in threads:
            t.start()
        assert entered.wait(10)
        time.sleep(0.2)
        release.set()
        for t in threads:
            t.join(10)
        assert len(runs) == 1  # the race used to decompress N times
        assert got == [b"plain-bytes"] * n
        assert cache.refcount("d/x") == n  # every waiter holds its own pin
        assert cache.stats.singleflight_leaders == 1
        # every non-leader scores exactly one hit: followers on their
        # post-flight reopen, late arrivals on their first open
        assert cache.stats.hits == n - 1
        assert cache.stats.misses == 1 + cache.stats.singleflight_followers

    def test_colliding_opens_never_compute_a_resident_key(self):
        # the late-leader window, black-box: a caller that loses the CPU
        # between its miss and its flight must not run the factory for
        # an entry another opener installed meanwhile — so under forced
        # preemption no key ever has two factory runs overlapping, nor
        # one starting while its entry is resident
        cache = DecompressedCache(1 << 20)
        keys = [f"d/k{i}" for i in range(4)]
        running = dict.fromkeys(keys, 0)
        guard = threading.Lock()
        violations: list[str] = []

        def factory_for(key):
            def factory() -> bytes:
                with guard:
                    running[key] += 1
                    if running[key] > 1:
                        violations.append(f"{key}: overlapping factory runs")
                if key in cache:
                    violations.append(f"{key}: computed while resident")
                with guard:
                    running[key] -= 1
                return key.encode()
            return factory

        factories = {key: factory_for(key) for key in keys}
        n_threads, rounds = 8, 2000
        start = threading.Barrier(n_threads)
        errors: list[BaseException] = []

        def worker(index: int):
            try:
                start.wait(10)
                for i in range(rounds):
                    key = keys[(index + i) % len(keys)]
                    data = cache.get_or_compute(key, factories[key])
                    assert data == key.encode()
                    cache.close(key)
            except BaseException as exc:  # pragma: no cover - fails the test
                errors.append(exc)

        threads = [
            threading.Thread(target=worker, args=(i,))
            for i in range(n_threads)
        ]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert not errors, errors
        assert not violations, violations[:5]
        assert all(cache.refcount(key) == 0 for key in keys)
        assert len(cache) == 0
        stats = cache.stats
        assert stats.opens == stats.hits + stats.misses
        assert stats.opens >= n_threads * rounds  # followers re-open
        assert stats.misses == (
            stats.singleflight_leaders + stats.singleflight_followers
        )

    def test_mixed_readers_never_overlap_a_factory(self):
        # whole-file reads (read_once) and pinning opens (get_or_compute)
        # colliding on a few keys under forced preemption: one flight per
        # key at a time whatever kind leads it, every caller gets the
        # key's bytes, and nothing is left pinned or resident
        cache = DecompressedCache(1 << 20)
        keys = [f"d/k{i}" for i in range(4)]
        running = dict.fromkeys(keys, 0)
        guard = threading.Lock()
        violations: list[str] = []

        def factory_for(key):
            def factory() -> bytes:
                with guard:
                    running[key] += 1
                    if running[key] > 1:
                        violations.append(f"{key}: overlapping factory runs")
                with guard:
                    running[key] -= 1
                return key.encode()
            return factory

        factories = {key: factory_for(key) for key in keys}
        n_threads, rounds = 8, 1000
        start = threading.Barrier(n_threads)
        errors: list[BaseException] = []

        def worker(index: int):
            try:
                start.wait(10)
                for i in range(rounds):
                    key = keys[(index + i) % len(keys)]
                    if (index + i) % 2:
                        data = cache.read_once(key, factories[key])
                    else:
                        data = cache.get_or_compute(key, factories[key])
                        cache.close(key)
                    assert data == key.encode()
            except BaseException as exc:  # pragma: no cover - fails the test
                errors.append(exc)

        threads = [
            threading.Thread(target=worker, args=(i,))
            for i in range(n_threads)
        ]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert not errors, errors
        assert not violations, violations[:5]
        assert all(cache.refcount(key) == 0 for key in keys)
        assert len(cache) == 0 and not cache._flights
        stats = cache.stats
        assert stats.opens == stats.hits + stats.misses
        assert stats.misses == (
            stats.singleflight_leaders + stats.singleflight_followers
        )

    def test_leader_failure_shared_then_fresh_flight(self):
        cache = DecompressedCache(1 << 20)
        boom = FanStoreError("decompress failed")
        entered = threading.Event()
        release = threading.Event()

        def failing():
            entered.set()
            assert release.wait(10)
            raise boom

        errors: list[Exception] = []

        def worker():
            try:
                cache.get_or_compute("d/y", failing)
            except FanStoreError as exc:
                errors.append(exc)

        lead = threading.Thread(target=worker)
        lead.start()
        assert entered.wait(10)
        follow = threading.Thread(target=worker)
        follow.start()
        time.sleep(0.1)
        release.set()
        lead.join(10)
        follow.join(10)
        assert errors == [boom, boom]  # one failure, shared
        # the failed flight left the table: the next caller leads anew
        assert cache.get_or_compute("d/y", lambda: b"ok") == b"ok"
        # only the successful round installs (and counts) a leader
        assert cache.stats.singleflight_leaders == 1


# -- server-side batch items ----------------------------------------------


class TestServeBatchItems:
    def _daemon(self, payload: bytes = b"batch-payload"):
        daemon = FanStoreDaemon()
        daemon.metadata.insert(_record("data/good", payload))
        daemon.backend.put("data/good", payload)
        return daemon, payload

    def test_live_fetch_and_stat_items_served(self):
        daemon, payload = self._daemon()
        fetched = daemon.server._serve_batch_item(("fetch", "data/good", None))
        assert fetched.status == Reply.OK
        assert bytes(fetched.value) == payload
        stat = daemon.server._serve_batch_item(("stat", "data/good", None))
        assert stat.status == Reply.OK
        assert stat.value.path == "data/good"

    def test_expired_item_dropped_not_served(self):
        daemon, _ = self._daemon()
        reply = daemon.server._serve_batch_item(
            ("fetch", "data/good", time.monotonic() - 1.0)
        )
        assert reply.status == Reply.EXPIRED
        assert daemon.stats.deadline_expired_drops == 1
        # a live deadline still serves
        live = daemon.server._serve_batch_item(
            ("fetch", "data/good", time.monotonic() + 30.0)
        )
        assert live.status == Reply.OK

    def test_missing_paths_answer_miss(self):
        daemon, _ = self._daemon()
        assert daemon.server._serve_batch_item(
            ("fetch", "data/absent", None)
        ).status == Reply.MISS
        assert daemon.server._serve_batch_item(
            ("stat", "data/absent", None)
        ).status == Reply.MISS

    def test_poisoned_item_fails_alone(self):
        daemon, payload = self._daemon()
        batch = [
            ("fetch", 12345, None),  # poisoned: subject is not a path
            ("fetch", "data/good", None),
            ("fetch",),  # malformed: not an item triple
        ]
        replies = [daemon.server._serve_batch_item(item) for item in batch]
        assert [r.status for r in replies] == [
            Reply.FAILED,
            Reply.OK,
            Reply.FAILED,
        ]
        assert bytes(replies[1].value) == payload
        assert daemon.stats.malformed_requests == 2

    def test_mutating_kinds_never_batch(self):
        daemon, _ = self._daemon()
        reply = daemon.server._serve_batch_item(
            ("write_meta", _record("data/new", b"x"), None)
        )
        assert reply.status == Reply.FAILED
        assert daemon.stats.malformed_requests == 1


class _Outbox:
    """The sending half of a communicator: records what was sent."""

    rank, size = 0, 2

    def __init__(self) -> None:
        self.sent: list[tuple] = []

    def send(self, payload, dest, tag) -> None:
        self.sent.append((payload, dest, tag))


class TestOneAnswerFunction:
    """A classic request and a batch item are answered by the same
    function: hit, miss and unrepairable record come out identically
    through both entry points — silence on the classic reply tag is
    ``FAILED`` for a batch item, and nothing else differs."""

    GOOD, ROTTEN = b"good-payload", b"rotten-bytes"
    CASES = {
        "fetch-hit": ("fetch", "data/good"),
        "fetch-miss": ("fetch", "data/absent"),
        "fetch-unrepairable": ("fetch", "data/rotten"),
        "stat-hit": ("stat", "data/good"),
        "stat-miss": ("stat", "data/absent"),
    }

    @pytest.mark.parametrize("entry", ["classic", "batch"])
    @pytest.mark.parametrize("case", sorted(CASES))
    def test_both_entry_points_answer_identically(self, case, entry):
        outbox = _Outbox()
        daemon = FanStoreDaemon(outbox)
        good = _record("data/good", self.GOOD)
        daemon.metadata.insert(good)
        daemon.backend.put("data/good", self.GOOD)
        # digest of the good bytes over a rotten copy, with no replica
        # and no shared-FS floor to heal from: unrepairable
        daemon.metadata.insert(_record("data/rotten", self.GOOD))
        daemon.backend.put("data/rotten", self.ROTTEN)
        expected = {
            "fetch-hit": (Reply.OK, self.GOOD),
            "fetch-miss": (Reply.MISS, "data/absent"),
            "fetch-unrepairable": None,
            "stat-hit": (Reply.OK, good),
            "stat-miss": (Reply.MISS, None),
        }[case]
        kind, subject = self.CASES[case]
        if entry == "classic":
            request = Request(subject=subject, reply_tag=0x1234)
            assert daemon.server._serve_one((kind, request, 1)) is True
            answers = [payload for payload, _dest, _tag in outbox.sent]
            assert [(d, t) for _p, d, t in outbox.sent] == (
                [] if expected is None else [(1, 0x1234)]
            )
        else:
            reply = daemon.server._serve_batch_item((kind, subject, None))
            assert isinstance(reply, Reply)
            answers = (
                [] if reply == (Reply.FAILED, subject) else [tuple(reply)]
            )
        assert answers == ([] if expected is None else [expected])
        assert daemon.stats.served_requests == (kind == "fetch")
        assert daemon.stats.corruption_detected == (expected is None)
        assert daemon.stats.malformed_requests == 0


# -- client-side batching, end to end -------------------------------------


PAYLOADS = {f"train/f{i}": b"payload-%d" % i * 4 for i in range(3)}


def _park_all(daemon, batcher, jobs):
    """Start one thread per job while the baton is held (so every
    request parks), wait until all are parked, then hand the baton over
    to elect a flush leader."""
    results: dict[str, tuple] = {}
    errors: list[Exception] = []

    def worker(name, kind, subject):
        try:
            results[name] = daemon.exchange.ask_batched(
                kind, subject, 1, deadline=Deadline.after(10)
            )
        except Exception as exc:  # pragma: no cover - fails the test
            errors.append(exc)

    threads = [
        threading.Thread(target=worker, args=(name, kind, subject))
        for name, (kind, subject) in jobs.items()
    ]
    for t in threads:
        t.start()
    stop_at = time.monotonic() + 5
    while len(batcher.pending) < len(jobs):
        assert time.monotonic() < stop_at, "tickets never parked"
        time.sleep(0.005)
    daemon.exchange._pass_baton(batcher)  # elect a flush leader
    for t in threads:
        t.join(15)
    return results, errors


class TestBatchedRequests:
    def test_parked_requests_flush_as_one_envelope(self):
        def body(comm):
            daemon = FanStoreDaemon(comm, config=DaemonConfig(**CALM))
            if comm.rank == 1:
                for path, blob in PAYLOADS.items():
                    daemon.metadata.insert(_record(path, blob, home_rank=1))
                    daemon.backend.put(path, blob)
                daemon.start()
                comm.barrier(timeout=30)
                daemon.stop()
                return daemon.metrics.get("daemon.batch.served").value
            batcher = daemon.exchange._batchers[1]
            with batcher.lock:
                batcher.busy = True  # hold the baton: callers must park
            jobs = {p: ("fetch", p) for p in PAYLOADS}
            results, errors = _park_all(daemon, batcher, jobs)
            comm.barrier(timeout=30)
            assert not errors, errors
            # the leader handed the baton on: a later lone ask to this
            # rank takes it at once instead of parking behind a baton
            # that nobody passes on
            assert not batcher.busy and not batcher.pending
            return (
                results,
                daemon.metrics.get("daemon.batch.flushes").value,
                daemon.metrics.get("daemon.batch.items").value,
            )

        out = run_parallel(body, 2, timeout=60)
        results, flushes, items = out[0]
        for path, blob in PAYLOADS.items():
            ok, data = results[path]
            assert ok == Reply.OK
            assert bytes(data) == blob
        assert flushes == 1  # one envelope carried all three requests
        assert items == len(PAYLOADS)
        assert out[1] == 1  # the server saw exactly one batched envelope

    def test_one_flush_mixes_kinds_and_isolates_misses(self):
        good = "train/f0"
        blob = PAYLOADS[good]

        def body(comm):
            daemon = FanStoreDaemon(comm, config=DaemonConfig(**CALM))
            if comm.rank == 1:
                daemon.metadata.insert(_record(good, blob, home_rank=1))
                daemon.backend.put(good, blob)
                daemon.start()
                comm.barrier(timeout=30)
                daemon.stop()
                return None
            batcher = daemon.exchange._batchers[1]
            with batcher.lock:
                batcher.busy = True
            jobs = {
                "fetch-hit": ("fetch", good),
                "fetch-miss": ("fetch", "train/absent"),
                "stat-hit": ("stat", good),
            }
            results, errors = _park_all(daemon, batcher, jobs)
            comm.barrier(timeout=30)
            assert not errors, errors
            return results, daemon.metrics.get("daemon.batch.flushes").value

        results, flushes = run_parallel(body, 2, timeout=60)[0]
        ok, data = results["fetch-hit"]
        assert ok == Reply.OK
        assert bytes(data) == blob
        ok, _ = results["fetch-miss"]
        assert ok == Reply.MISS  # the miss hurt only its own waiter
        ok, rec = results["stat-hit"]
        assert ok == Reply.OK
        assert rec.path == good
        assert flushes == 1

    def test_parked_ticket_deadline_aborts_alone(self):
        def body(comm):
            if comm.rank == 1:
                comm.barrier(timeout=30)
                return None
            daemon = FanStoreDaemon(comm, config=DaemonConfig(**CALM))
            batcher = daemon.exchange._batchers[1]
            with batcher.lock:
                batcher.busy = True  # baton never returns in time
            caught: list[Exception] = []

            def worker():
                try:
                    daemon.exchange.ask_batched(
                        "fetch", "p", 1, deadline=Deadline.after(0.05)
                    )
                except DeadlineExpiredError as exc:
                    caught.append(exc)

            t = threading.Thread(target=worker)
            t.start()
            t.join(10)
            aborts = daemon.stats.deadline_aborts
            daemon.exchange._pass_baton(batcher)  # must skip the cancelled ticket
            with batcher.lock:
                busy = batcher.busy
            comm.barrier(timeout=30)
            return len(caught), aborts, busy

        n_caught, aborts, busy = run_parallel(body, 2, timeout=60)[0]
        assert n_caught == 1
        assert aborts == 1
        assert busy is False  # the baton retired cleanly


# -- hedged reads under the cache's flight --------------------------------


class TestHedgedMissStorm:
    def test_hedged_miss_storm_installs_once(self):
        path = "train/hedged"
        blob = b"hedged-payload" * 8

        def body(comm):
            cfg = DaemonConfig(hedge_reads=True, hedge_after_s=0.001, **CALM)
            daemon = FanStoreDaemon(comm, config=cfg)
            daemon.metadata.insert(_record(path, blob, home_rank=1))
            daemon.metadata.add_replica(path, 2)
            if comm.rank != 0:
                daemon.backend.put(path, blob)
                daemon.start()
                comm.barrier(timeout=60)
                daemon.stop()
                return None
            n = 6
            start = threading.Barrier(n)
            got: list[bytes] = []
            errors: list[Exception] = []

            def worker():
                start.wait(10)
                try:
                    got.append(daemon.open_file(path))
                except Exception as exc:  # pragma: no cover
                    errors.append(exc)

            threads = [threading.Thread(target=worker) for _ in range(n)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(30)
            comm.barrier(timeout=60)
            assert not errors, errors
            for _ in got:
                daemon.close_file(path)
            return (
                [bytes(b) for b in got],
                daemon.stats.remote_fetches,
                daemon.stats.decompressions,
                daemon.cache.stats.singleflight_leaders,
                daemon.cache.stats.hits,
            )

        out = run_parallel(body, 3, timeout=90)
        blobs, remote_fetches, decompressions, leaders, hits = out[0]
        assert blobs == [blob] * 6
        assert remote_fetches == 1  # the storm left the rank exactly once
        assert decompressions == 1  # and decompressed exactly once
        assert leaders == 1  # one cache install
        assert hits == 5  # everyone else shared it


# -- construction ---------------------------------------------------------


class TestPipelineKnobs:
    def test_unknown_kwarg_rejected(self):
        # the scheduler's sizes are constants: no keyword reaches them
        with pytest.raises(TypeError):
            FanStoreDaemon(bogus_knob=1)
        with pytest.raises(TypeError):
            FanStoreDaemon(pipeline_workers=0)
