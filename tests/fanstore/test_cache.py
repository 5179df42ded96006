"""The §IV-C3 cache: refcount pinning and release at zero (the paper's
minimum-RAM policy, the only one the store implements)."""

from __future__ import annotations

import threading
import types

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import FanStoreError
from repro.fanstore import cache as cache_module
from repro.fanstore.cache import DecompressedCache


class TestPaperPolicy:
    """Release at refcount zero (Figure 4)."""

    def test_open_miss_insert_close_releases(self):
        cache = DecompressedCache()
        assert cache.open("f") is None
        cache.insert("f", b"data")
        assert "f" in cache
        cache.close("f")
        assert "f" not in cache
        assert cache.resident_bytes == 0

    def test_concurrent_opens_share_entry(self):
        cache = DecompressedCache()
        cache.open("f")
        cache.insert("f", b"data")
        assert cache.open("f") == b"data"  # second thread: hit
        assert cache.refcount("f") == 2
        cache.close("f")
        assert "f" in cache  # still pinned by the other opener
        cache.close("f")
        assert "f" not in cache

    def test_racing_insert_first_wins(self):
        cache = DecompressedCache()
        cache.open("f")
        cache.open("f")
        first = cache.insert("f", b"v1")
        second = cache.insert("f", b"v2")
        assert first == second == b"v1"
        assert cache.refcount("f") == 2

    def test_close_unopened_raises(self):
        cache = DecompressedCache()
        with pytest.raises(FanStoreError):
            cache.close("ghost")

    def test_double_close_raises(self):
        cache = DecompressedCache()
        cache.open("f")
        cache.insert("f", b"x")
        cache.close("f")
        with pytest.raises(FanStoreError):
            cache.close("f")

    def test_stats_counters(self):
        cache = DecompressedCache()
        cache.open("a")  # miss
        cache.insert("a", b"1")
        cache.open("a")  # hit
        cache.close("a")
        cache.close("a")  # second close evicts
        assert cache.stats.opens == 2
        assert cache.stats.misses == 1
        assert cache.stats.hits == 1
        assert cache.stats.hit_rate == 0.5
        assert cache.stats.evictions == 1


class TestQuarantine:
    """discard(): the integrity layer's hook — a path whose source
    bytes failed verification must never be served again."""

    def test_discard_absent_is_noop(self):
        cache = DecompressedCache()
        assert cache.discard("ghost") is False
        assert cache.stats.quarantined == 0

    def test_discard_pinned_dooms_instead_of_evicting(self):
        cache = DecompressedCache()
        cache.open("f")
        cache.insert("f", b"bad")
        assert cache.discard("f") is True
        assert "f" in cache  # still resident for the open reader...
        assert cache.open("f") is None  # ...but never served again
        assert cache.refcount("f") == 1

    def test_doomed_replacement_counts_an_eviction(self):
        """Regression: the in-place replacement of quarantined bytes
        drops the old data from residency, so it must count as an
        eviction — quarantine-then-reload traffic used to undercount."""
        cache = DecompressedCache()
        cache.open("f")
        cache.insert("f", b"corrupt!")
        cache.discard("f")  # pinned → doomed, not evicted
        assert cache.stats.evictions == 0
        cache.insert("f", b"repaired")  # old bytes leave residency here
        assert cache.stats.evictions == 1
        cache.close("f")
        cache.close("f")
        assert "f" not in cache
        # lifecycle total: the doomed replacement plus the final free
        assert cache.stats.evictions == 2

    def test_insert_replaces_doomed_bytes_in_place(self):
        """The repair path re-verifies and re-inserts while an old
        reader still holds the entry open: fresh bytes are served from
        then on, and the old reader's close() still balances."""
        cache = DecompressedCache()
        cache.open("f")
        cache.insert("f", b"corrupt!")  # reader A pins the bad bytes
        cache.discard("f")
        assert cache.open("f") is None  # reader B misses (doomed)
        assert cache.insert("f", b"repaired-bytes") == b"repaired-bytes"
        assert cache.open("f") == b"repaired-bytes"  # reader C hits
        assert cache.refcount("f") == 3
        for _ in range(3):
            cache.close("f")
        assert "f" not in cache
        assert cache.resident_bytes == 0


class TestReadOnce:
    """The whole-file read: open, read everything, close — with the
    residency nobody could observe left out."""

    def test_miss_installs_nothing_and_counts_an_open(self):
        cache = DecompressedCache()
        assert cache.read_once("f", lambda: b"data") == b"data"
        assert "f" not in cache and cache.resident_bytes == 0
        stats = cache.stats
        assert (stats.opens, stats.misses, stats.hits) == (1, 1, 0)
        assert (stats.singleflight_leaders, stats.evictions) == (1, 0)
        assert not cache._flights

    def test_resident_entry_is_a_hit_without_a_pin(self):
        cache = DecompressedCache()
        cache.open("f")
        cache.insert("f", b"data")

        def never() -> bytes:
            raise AssertionError("a resident entry is not recomputed")

        assert cache.read_once("f", never) == b"data"
        assert cache.refcount("f") == 1  # the opener's pin, no more
        assert (cache.stats.opens, cache.stats.hits) == (2, 1)

    def test_doomed_entry_is_a_miss_that_leaves_it_doomed(self):
        cache = DecompressedCache()
        cache.open("f")
        cache.insert("f", b"corrupt!")
        cache.discard("f")
        assert cache.read_once("f", lambda: b"repaired") == b"repaired"
        assert cache.open("f") is None  # still never served again
        cache.close("f")
        assert "f" not in cache and cache.stats.evictions == 1

    def test_leader_failure_leaves_no_flight(self):
        cache = DecompressedCache()
        with pytest.raises(KeyError):
            cache.read_once("f", lambda: {}["missing"])
        assert not cache._flights
        assert cache.read_once("f", lambda: b"ok") == b"ok"
        assert cache.stats.singleflight_leaders == 1

    def test_a_flights_bytes_are_installed_at_most_once(self, monkeypatch):
        """Two pinning followers of a ``read_once`` leader: the first to
        wake installs the leader's bytes; if they are quarantined before
        the second wakes, the second must not install them again over
        the doomed entry — it misses and fetches afresh. Constructed: the
        leader's factory returns only once both followers wait, and each
        follower wakes only when released."""
        arrived = {name: threading.Event() for name in ("g1", "g2")}
        release = {name: threading.Event() for name in ("g1", "g2")}

        class GatedEvent(threading.Event):
            def wait(self, timeout=None):
                name = threading.current_thread().name
                arrived[name].set()
                super().wait(10)
                return release[name].wait(10)

        cache = DecompressedCache()
        monkeypatch.setattr(
            cache_module, "threading", types.SimpleNamespace(Event=GatedEvent)
        )
        got: dict[str, bytes] = {}

        def follower(name):
            got[name] = cache.get_or_compute("f", lambda: b"fresh")

        threads = {
            name: threading.Thread(target=follower, args=(name,), name=name)
            for name in ("g1", "g2")
        }

        def leader_factory() -> bytes:
            for name, thread in threads.items():
                thread.start()
                assert arrived[name].wait(10)
            return b"first"

        assert cache.read_once("f", leader_factory) == b"first"
        release["g1"].set()
        threads["g1"].join(10)
        assert got["g1"] == b"first" and cache.refcount("f") == 1
        assert cache.discard("f") is True  # pinned: doomed
        release["g2"].set()
        threads["g2"].join(10)
        assert got["g2"] == b"fresh"
        assert cache.stats.singleflight_leaders == 2
        assert cache.refcount("f") == 2

class TestConcurrency:
    def test_parallel_open_close_stress(self):
        cache = DecompressedCache()
        errors = []

        def worker(tid):
            try:
                for i in range(200):
                    path = f"file-{i % 5}"
                    data = cache.open(path)
                    if data is None:
                        data = cache.insert(path, path.encode() * 10)
                    assert data == path.encode() * 10
                    cache.close(path)
            except BaseException as exc:  # pragma: no cover
                errors.append(exc)

        threads = [threading.Thread(target=worker, args=(t,)) for t in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        # all refcounts returned to zero → everything released
        assert cache.resident_bytes == 0


def test_uncontended_miss_builds_no_waiter(monkeypatch):
    """A miss nobody else joins allocates and signals no ``Event`` — on
    success or on error; the waiter is the first follower's to build.
    This flight is the store's one coalescing point, so the guarantee
    (an uncontended read pays nothing for coalescing) lives here."""
    built = []

    def counting_event():
        built.append(1)
        return threading.Event()

    # swap the module's view of ``threading`` only: Thread() itself
    # builds an Event, which must not be counted
    monkeypatch.setattr(
        cache_module,
        "threading",
        types.SimpleNamespace(Event=counting_event, Lock=threading.Lock),
    )
    cache = DecompressedCache()
    for i in range(64):
        key = f"d/k{i % 3}"
        assert cache.get_or_compute(key, lambda: key.encode()) == key.encode()
        cache.close(key)
    with pytest.raises(KeyError):
        cache.get_or_compute("d/boom", lambda: {}["missing"])
    assert not built and not cache._flights
    assert cache.stats.singleflight_leaders == 64
    assert cache.stats.singleflight_followers == 0


def test_bind_metrics_reads_through_live_counters():
    """``cache.*`` registry metrics share storage with CacheStats and
    the hit-ratio gauge is computed at snapshot time."""
    from repro.obs import MetricsRegistry

    cache = DecompressedCache()
    reg = MetricsRegistry()
    cache.bind_metrics(reg)
    cache.open("a")  # miss
    cache.insert("a", b"xy")
    assert cache.open("a") == b"xy"  # hit
    snap = reg.snapshot()
    assert snap.value("cache.opens") == 2
    assert snap.value("cache.hits") == 1
    assert snap.value("cache.misses") == 1
    assert snap.value("cache.hit_ratio") == pytest.approx(0.5)
    assert snap.value("cache.resident_bytes") == 2


# -- model test -------------------------------------------------------------

_KEYS = st.sampled_from(["a", "b", "c"])
_OPS = st.lists(
    st.tuples(
        st.sampled_from(
            ["open", "insert", "get_or_compute", "read_once", "close",
             "discard"]
        ),
        _KEYS,
    ),
    max_size=40,
)


@settings(max_examples=200, deadline=None)
@given(_OPS)
def test_every_resident_entry_is_pinned(ops):
    """The paper's policy as one invariant, checked op by op against a
    model: every resident entry is pinned by an outstanding open, the
    resident bytes are the resident entries' bytes, a quarantined
    (doomed) entry's bytes are never handed out, and the cache holds
    exactly the keys some caller still has open."""
    cache = DecompressedCache()
    pins = dict.fromkeys(("a", "b", "c"), 0)  # outstanding opens
    resident: dict[str, bytes] = {}  # what each resident key holds
    doomed: set[str] = set()
    quarantined: list[bytes] = []  # every doomed entry's bytes
    for serial, (op, key) in enumerate(ops):
        fresh = f"{key}{serial}".encode()
        servable = key in resident and key not in doomed
        got = None
        if op == "open":
            got = cache.open(key)
            assert got == (resident[key] if servable else None)
            pins[key] += got is not None
        elif op in ("insert", "get_or_compute"):
            if op == "insert":
                got = cache.insert(key, fresh)
            else:
                got = cache.get_or_compute(key, lambda: fresh)
            if not servable:
                resident[key] = fresh
                doomed.discard(key)
            assert got == resident[key]
            pins[key] += 1
        elif op == "read_once":
            got = cache.read_once(key, lambda: fresh)
            assert got == (resident[key] if servable else fresh)
        elif op == "close":
            if not pins[key]:
                with pytest.raises(FanStoreError):
                    cache.close(key)
                continue
            cache.close(key)
            pins[key] -= 1
            if not pins[key]:
                del resident[key]
                doomed.discard(key)
        else:
            assert cache.discard(key) is (key in resident)
            if key in resident:
                doomed.add(key)
                quarantined.append(resident[key])
        assert got not in quarantined
        entries = cache._entries
        assert all(entry.refcount >= 1 for entry in entries.values())
        assert cache.resident_bytes == sum(
            len(entry.data) for entry in entries.values()
        )
        assert len(cache) == sum(1 for n in pins.values() if n)
        assert {key: cache.refcount(key) for key in pins} == pins
    assert not cache._flights
