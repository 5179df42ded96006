"""Saturation behaviour of the daemon's pipelined scheduler.

One rank serves its in-RAM store while 1/8/64 client threads on a peer
rank hammer it with small reads — the many-DataLoader-workers shape
the paper's training runs produce.

The storm goes through ``open_file``/``close_file``: the path a
DataLoader worker's intercepted ``open()`` takes (``client.read_file``
joins the same in-flight table but never pins), and since the daemon's
direct-fetch single-flight was deleted
for want of a caller, the only one with a coalescing point — the
cache's in-flight table. (Until PR 19 the storm called
``fetch_compressed`` directly, a path no reader takes, and published
~3x the rate in a third of the envelopes.) Under the paper's
release-at-refcount-zero policy a file is resident only while someone
holds it open, so colliding readers coalesce only while their opens
overlap; everyone else is a fresh miss and a fresh fetch.

Small payloads and an epoch-shaped strided walk on purpose: many
DataLoader workers pulling the same shuffled shard list collide on
paths constantly — exactly the traffic the cache's flight coalesces and
the batched envelope amortizes.

What is asserted is what the scheduler is *for*, in counts: a lone
client finds the destination idle and pays for none of it (no
coalesced miss, no batched flush); 64 clients coalesce colliding
misses and ride batched envelopes, every flush the clients count is
one envelope the server counts, and every read is byte-exact. The
requests/sec per point are published, not gated: the speed of the
cross-rank read path is gated by ``benchmarks/e2e`` (workload
``remote_16k_memcpy``) on a pinned CPU against the parent commit.

Writes the repo-root ``BENCH_saturation.json`` record.

Run with ``FANSTORE_LOCKDEP=0`` (CI does): the lockdep witness taxes
every lock acquisition, which distorts the published rates.
"""

from __future__ import annotations

import json
import random
import threading
import time
from pathlib import Path

from repro.bench.report import PaperComparison
from repro.comm.launcher import run_parallel
from repro.fanstore.daemon import DaemonConfig, FanStoreDaemon
from repro.fanstore.layout import FileStat, blob_crc32
from repro.fanstore.metadata import FileRecord

RANKS = 2
SERVER = 1
BLOB_BYTES = 4 * 1024
PER_CLIENT = 24
CLIENT_COUNTS = (1, 8, 64)
N_FILES = 48
ROUNDS = 3  # best-of, per point: saturation numbers are noisy
SEED = 9

#: generous per-attempt budget and a deep admission queue: the storm
#: must be measured, not shed.
CONFIG = DaemonConfig(
    request_timeout=5.0,
    max_retries=2,
    max_queue_depth=256,
)

JSON_OUT = Path(__file__).parents[1] / "BENCH_saturation.json"


def _payloads() -> dict[str, bytes]:
    rng = random.Random(SEED)
    return {
        f"train/s{i:03d}": rng.randbytes(BLOB_BYTES) for i in range(N_FILES)
    }


def _record(path: str, payload: bytes) -> FileRecord:
    # memcpy records: the storm measures the scheduler, not a codec
    return FileRecord(
        path=path,
        stat=FileStat(st_size=len(payload)).with_digest(blob_crc32(payload)),
        compressor_id=1,
        compressed_size=len(payload),
        home_rank=SERVER,
        partition_id=0,
    )


def _run_point(clients: int) -> dict:
    """One saturation point: wall-clock the storm on the client rank,
    return requests/sec plus scheduler counters."""
    payloads = _payloads()
    paths = sorted(payloads)

    def body(comm):
        daemon = FanStoreDaemon(comm, config=CONFIG)
        for path, blob in payloads.items():
            daemon.metadata.insert(_record(path, blob))
        if comm.rank == SERVER:
            for path, blob in payloads.items():
                daemon.backend.put(path, blob)
            daemon.start()
            comm.barrier(timeout=180)  # measurement done
            daemon.stop()
            return {
                "served": daemon.stats.served_requests,
                "batch_envelopes": daemon.metrics.get(
                    "daemon.batch.served"
                ).value,
            }
        start = threading.Barrier(clients + 1)
        errors: list[Exception] = []

        def client(idx: int) -> None:
            start.wait(60)
            for j in range(PER_CLIENT):
                # strided epoch walk: concurrent clients collide on
                # paths the way DataLoader workers sharing a shuffled
                # shard list do
                path = paths[(idx * 5 + j) % len(paths)]
                try:
                    data = daemon.open_file(path)
                    try:
                        assert bytes(data) == payloads[path], path
                    finally:
                        daemon.close_file(path)
                except Exception as exc:  # pragma: no cover
                    errors.append(exc)
                    return

        threads = [
            threading.Thread(target=client, args=(i,))
            for i in range(clients)
        ]
        for t in threads:
            t.start()
        start.wait(60)
        t0 = time.perf_counter()
        for t in threads:
            t.join(180)
        elapsed = time.perf_counter() - t0
        comm.barrier(timeout=180)
        assert not errors, errors[:3]
        return {
            "elapsed_s": elapsed,
            "requests": clients * PER_CLIENT,
            "coalesced": daemon.metrics.get(
                "cache.singleflight.followers"
            ).value,
            "batch_flushes": daemon.metrics.get(
                "daemon.batch.flushes"
            ).value,
        }

    client_side, server_side = None, None
    for _ in range(ROUNDS):  # best-of: keep the least-noisy round
        results = run_parallel(body, RANKS, timeout=300)
        if client_side is None or results[0]["elapsed_s"] < client_side["elapsed_s"]:
            client_side, server_side = results[0], results[RANKS - 1]
    return {
        "clients": clients,
        "requests": client_side["requests"],
        "elapsed_s": round(client_side["elapsed_s"], 4),
        "requests_per_s": round(
            client_side["requests"] / client_side["elapsed_s"], 1
        ),
        "coalesced_misses": client_side["coalesced"],
        "batch_flushes": client_side["batch_flushes"],
        "server_batch_envelopes": server_side["batch_envelopes"],
    }


def test_saturation_throughput(benchmark, emit_report):
    rows = [_run_point(n) for n in CLIENT_COUNTS]
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)

    report = PaperComparison(
        "Daemon saturation: the pipelined scheduler under 1/8/64 clients",
        f"{N_FILES} x {BLOB_BYTES // 1024} KiB records on 1 server rank; "
        f"{PER_CLIENT} open/close reads per client",
        columns=["clients", "req/s", "coalesced", "flushes", "envelopes"],
    )
    for row in rows:
        report.add_row(
            row["clients"], row["requests_per_s"], row["coalesced_misses"],
            row["batch_flushes"], row["server_batch_envelopes"],
        )
    emit_report(report)

    JSON_OUT.write_text(json.dumps({
        "bench": "saturation",
        "ranks": RANKS,
        "files": N_FILES,
        "blob_bytes": BLOB_BYTES,
        "per_client_requests": PER_CLIENT,
        "modes": {"pipelined": rows},
    }, indent=2) + "\n")

    lone, storm = rows[0], rows[-1]
    # an idle destination pays nothing for the scheduler
    assert lone["coalesced_misses"] == 0 and lone["batch_flushes"] == 0, lone
    assert lone["server_batch_envelopes"] == 0, lone
    # a storm coalesces colliding misses and rides batched envelopes,
    # one server-side envelope per client-side flush
    assert storm["coalesced_misses"] > 0 and storm["batch_flushes"] > 0, storm
    for row in rows:
        assert row["server_batch_envelopes"] == row["batch_flushes"], row
