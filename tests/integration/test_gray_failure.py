"""The gray-failure drill: one rank is slow — not dead — and the read
path routes around it.

A persistently slow rank defeats every PR-5 mechanism by design: it
heartbeats on time (membership never convicts), answers every fetch
(retries never exhaust), and serves correct bytes (no integrity
failure). These drills pin seeds and drive the gray-failure layer end
to end: hedged reads win against the slow rank, its circuit breaker
opens and traffic detours to the replica tier, healing half-opens the
breaker and a probe closes it, and no read ever outlives its deadline.
A separate burst drill exercises admission control: a pre-loaded
mailbox is shed nearest-deadline-first with overload replies, and
already-expired requests are dropped, not answered.

Partition geometry (3 ranks, ``extra_partition_budget=1``): rank *r*
holds its own partition plus the ring copy of partition *r−1*, so each
rank's remote reads are exactly one partition — rank 1's all come from
rank 2 (the slow one), rank 0's all from rank 1 (healthy). That makes
the per-rank counters exact, not statistical.
"""

from __future__ import annotations

import time

import pytest

from repro.comm.chaos import ChaosWorld, FaultPlan
from repro.comm.communicator import ANY_SOURCE
from repro.comm.launcher import run_parallel
from repro.fanstore.daemon import DaemonConfig, FanStoreDaemon
from repro.fanstore.exchange import (
    OVERLOAD_RETRY_AFTER_S,
    REPLY_TAG_BASE,
    TAG_DAEMON,
)
from repro.fanstore.health import BreakerState
from repro.fanstore.metadata import normalize
from repro.fanstore.store import FanStore, FanStoreOptions
from repro.fanstore.wire import Reply, Request

GRAY_SEEDS = (5, 55, 555)
seeds = pytest.mark.parametrize(
    "seed", GRAY_SEEDS, ids=[f"seed{s}" for s in GRAY_SEEDS]
)

RANKS = 3
SLOW = 2
SLOW_S = 0.12  # every data-plane reply from SLOW arrives this late
RESET_AFTER = 0.4
#: the control run's fixed hedge delay: far above a clean reply (tens of
#: microseconds) and any scheduling stall, still inside request_timeout
_CONTROL_HEDGE_S = 0.25

#: hedging on, tight budgets, breaker tuned so three slow strikes open
GRAY = dict(
    extra_partition_budget=1,
    request_timeout=0.5,
    request_deadline=1.0,
    max_retries=1,
    hedge_reads=True,
    hedge_after_s=0.03,
    breaker_slow_threshold=3,
    breaker_reset_after=RESET_AFTER,
)


@pytest.fixture(scope="module")
def originals(raw_dataset_dir):
    expected = {}
    train = raw_dataset_dir / "train"
    for p in sorted(train.rglob("*")):
        if p.is_file():
            expected[normalize(str(p.relative_to(train)))] = p.read_bytes()
    for p in sorted((raw_dataset_dir / "val").iterdir()):
        if p.is_file():
            expected[f"val/{p.name}"] = p.read_bytes()
    return expected


def _timed_read_all(fs, timings):
    out = {}
    for rec in fs.daemon.metadata.walk_files():
        t0 = time.perf_counter()
        out[rec.path] = fs.client.read_file(rec.path)
        timings.append(time.perf_counter() - t0)
    return out


class TestGrayFailureDrill:
    @seeds
    def test_slow_rank_hedged_around_then_recovered(
        self, seed, prepared_dataset, originals
    ):
        plan = FaultPlan(seed).slow_rank(
            SLOW, SLOW_S, min_tag=REPLY_TAG_BASE
        )
        world = ChaosWorld(RANKS, plan)
        config = DaemonConfig(**GRAY)

        def body(comm):
            opts = FanStoreOptions(comm=comm, config=config)
            with FanStore(prepared_dataset, opts) as fs:
                comm.barrier()  # everyone loaded and serving
                timings: list[float] = []
                # phase 1: SLOW limps; reads stay correct and fast
                assert _timed_read_all(fs, timings) == originals
                comm.barrier()
                if comm.rank == 0:
                    plan.heal(SLOW)
                comm.barrier()
                # phase 2: past the cool-off the breaker half-opens;
                # the first fetch probes the healed rank and closes it
                time.sleep(RESET_AFTER + 0.15)
                assert _timed_read_all(fs, timings) == originals
                comm.barrier()
                s = fs.daemon.stats
                return {
                    "hedged": s.hedged_reads,
                    "wins": s.hedge_wins,
                    "opens": s.breaker_opens,
                    "probes": s.breaker_probes,
                    "skips": s.breaker_skips,
                    "aborts": s.deadline_aborts,
                    "degraded": s.degraded_reads,
                    "slow_state": fs.daemon.health.state(SLOW).value,
                    "max_read_s": max(timings),
                }

        results = run_parallel(body, RANKS, world=world, timeout=120)
        assert plan.stats.slowed >= 1  # the gray failure actually fired

        r1 = results[1]  # the only rank whose remote reads hit SLOW
        assert r1["hedged"] >= 1 and r1["wins"] >= 1
        assert r1["opens"] >= 1  # slow strikes opened the breaker
        assert r1["skips"] >= 1  # at least one fetch skipped SLOW outright
        assert r1["probes"] >= 1  # post-heal half-open probe went through
        assert r1["slow_state"] == BreakerState.CLOSED.value  # and passed

        for rank, res in enumerate(results):
            # every read on every rank stayed within its deadline — the
            # whole point of hedging: tail tolerance without timeouts
            assert res["max_read_s"] < config.request_deadline, (rank, res)
            assert res["aborts"] == 0
            assert res["degraded"] == 0  # no shared-FS fallback needed

        # rank 0 never talks to SLOW (its remote partition is rank 1's):
        # hedging must cost a healthy rank nothing
        assert results[0]["wins"] == 0
        assert results[0]["opens"] == 0
        assert results[0]["slow_state"] == BreakerState.CLOSED.value

    @seeds
    def test_unhedged_control_run_is_clean(self, seed, prepared_dataset):
        """Without chaos, the gray-failure config changes nothing: no
        hedges fire (the home answers well inside the hedge delay), no
        breaker moves, no deadline trips.

        The control pins its hedge delay to the configured
        ``hedge_after_s``. Left adaptive, the delay becomes the peer's
        p95 floored at 1 ms after the first sample, and a clean reply
        can take longer than that for reasons that say nothing about
        the store: three reading rank threads share one GIL (5 ms
        switch interval), and the host may be busy. Whether a *healthy*
        rank is ever hedged must not hang on who got the CPU; the
        adaptive delay is exercised by the slow-rank drill above."""
        config = DaemonConfig(**{**GRAY, "hedge_after_s": _CONTROL_HEDGE_S})
        world = ChaosWorld(RANKS, FaultPlan(seed))

        def body(comm):
            opts = FanStoreOptions(comm=comm, config=config)
            with FanStore(prepared_dataset, opts) as fs:
                fs.daemon.health.quantile = (
                    lambda peer, q, default: default
                )
                for rec in fs.daemon.metadata.walk_files():
                    fs.client.read_file(rec.path)
                s = fs.daemon.stats
                return (s.hedged_reads, s.breaker_opens, s.deadline_aborts,
                        s.overload_backoffs)

        results = run_parallel(body, RANKS, world=world, timeout=120)
        assert results == [(0, 0, 0, 0)] * RANKS


#: burst-drill coordination tags (outside the daemon's bands)
_TAG_SYNC = 0x0B00
_BURST = 10
_CAPACITY = 8
_EXPIRED = 3  # of the burst, sent with already-expired deadlines


class TestAdmissionControlBurst:
    def test_burst_is_shed_nearest_deadline_first(self):
        """Pre-load a stopped daemon's mailbox past queue capacity:
        the two most-overdue requests are shed with overload replies,
        the remaining expired one is admitted but dropped unserved, and
        every in-deadline request is answered."""
        config = DaemonConfig(max_queue_depth=_CAPACITY)

        def body(comm):
            if comm.rank == 0:
                daemon = FanStoreDaemon(comm, config=config)
                comm.barrier()  # rank 1 has filled our mailbox
                daemon.start()
                comm.barrier()  # rank 1 verified every reply
                daemon.stop()
                s = daemon.stats
                return (s.shed_requests, s.deadline_expired_drops,
                        s.served_requests, s.malformed_requests)

            now = time.monotonic()
            tags = list(range(0x7100, 0x7100 + _BURST))
            # requests 0..2 already expired (0 the most overdue),
            # 3..9 comfortably in budget
            deadlines = [now - (_EXPIRED - i) for i in range(_EXPIRED)]
            deadlines += [now + 30.0] * (_BURST - _EXPIRED)
            for tag, dl in zip(tags, deadlines):
                request = Request(
                    subject=f"no/such/{tag:#x}", reply_tag=tag, deadline=dl
                )
                comm.send(("fetch", request.encode()), 0, TAG_DAEMON)
            comm.barrier()  # mailbox full; rank 0 starts serving
            overloaded, answered = [], []
            for tag in tags[:2] + tags[_EXPIRED:]:
                reply = comm.recv(0, tag, timeout=20)
                if reply[0] == Reply.OVERLOAD:
                    overloaded.append((tag, reply[1]))
                else:
                    answered.append((tag, reply))
            # service is FIFO: once the last tag answered, the dropped
            # request's silence is final
            assert comm.try_recv(ANY_SOURCE, tags[2]) is None
            comm.barrier()
            return overloaded, answered

        results = run_parallel(body, 2, timeout=60)
        shed, dropped, served, malformed = results[0]
        overloaded, answered = results[1]
        n_shed = _BURST - _CAPACITY
        assert (shed, dropped, served) == (n_shed, 1, _BURST - n_shed - 1)
        assert malformed == 0
        # the two most-overdue requests were the ones shed, and each
        # carried the server's suggested back-off
        assert [t for t, _ in overloaded] == [0x7100, 0x7101]
        assert all(ra == OVERLOAD_RETRY_AFTER_S for _, ra in overloaded)
        # every in-deadline request got an authoritative not-found
        assert [r for _, r in answered] == [
            (Reply.MISS, f"no/such/{t:#x}") for t in range(0x7103, 0x710a)
        ]
