"""The traced run: per-layer metrics from probes and isolated replays.

Never part of the gated measurement. It reaches below the public
surface (``fs.daemon.cache``, ``Request.encode``, ...) on purpose, and
every reach degrades to ``probe_missing`` (value ``None``) when its
target is gone — see ``ledger.py``.

One run is ``rounds`` rounds exactly as the gated run does them (the
untraced reference for ``obs.bench_trace_overhead`` and
``loader.async_hidden_share``), then ``rounds`` read and write phases
with the probes installed. Afterwards pure functions and single layers
are replayed in isolation over the workload's own files and payloads.
"""

from __future__ import annotations

import contextlib
import importlib
import statistics
import threading
import time
from pathlib import Path
from typing import Any, Callable, Iterable

from repro.comm import run_parallel
from repro.training import SyncLoader
from repro.training.loader import list_training_files

from benchmarks.e2e.calib import CALIB_REF_S, to_ref
from benchmarks.e2e.harness import Bench, Phase, Store
from benchmarks.e2e.ledger import END, NAME, OP, START, Ledger

_clock = time.perf_counter
_REPLAY_REPS = 3
_STORM_THREADS = 4


def _dig(obj: Any, dotted: str) -> Any:
    """``obj.a.b.c``, or ``None`` as soon as a step is missing."""
    for step in dotted.split("."):
        obj = getattr(obj, step, None)
        if obj is None:
            return None
    return obj


def _module(name: str) -> Any:
    try:
        return importlib.import_module(name)
    except ImportError:
        return None


class Probes:
    """One store's probe set."""

    def __init__(self, ledger: Ledger, bench: Bench, store: Store) -> None:
        self.ledger = ledger
        self.bench = bench
        self.store = store

    def root(self, name: str, fn: Callable) -> Callable:
        return self.ledger.probe(name, fn, root=True)

    @contextlib.contextmanager
    def installed(self, *, intercepted: bool):
        """Every probe in place for the span of the ``with``;
        ``intercepted`` says ``builtins.open`` is intercept()'s now."""
        self._install(intercepted)
        try:
            yield
        finally:
            self.ledger.uninstall()

    def _install(self, intercepted: bool) -> None:
        install = self.ledger.install
        fs, peer, spec = self.store.fs, self.store.peer, self.bench.spec
        if intercepted:
            install("interception.open", _module("builtins"), "open")
            file_type = _dig(_module("repro.fanstore.client"), "FanStoreFile")
            install("client.file_read", file_type, "read")
            install("client.file_close", file_type, "close")
        for attr in ("read_file", "open_file", "open", "read", "close",
                     "write_file", "write"):
            install(f"client.{attr}", fs.client, attr)
        daemon = _dig(fs, "daemon")
        for attr in ("open_file", "close_file", "fetch_compressed",
                     "store_output", "stat_any"):
            install(f"daemon.{attr}", daemon, attr)
        for attr in ("get_or_compute", "open", "insert", "close"):
            install(f"cache.{attr}", _dig(daemon, "cache"), attr)
        for attr in ("get", "stat", "insert", "is_file"):
            install(f"metadata.{attr}", _dig(daemon, "metadata"), attr)
        for attr in ("get", "put"):
            install(f"backend.{attr}", _dig(daemon, "backend"), attr)
        if spec.disk:
            for attr in ("begin", "commit"):
                install(f"journal.{attr}", _dig(daemon, "journal"), attr)
        get_compressor = _dig(_module("repro.compressors"), "get_compressor")
        for codec in {spec.compressor, spec.output_compressor} - {None}:
            compressor = get_compressor(codec) if get_compressor else None
            install("codec.decompress", compressor, "decompress")
            install("codec.compress", compressor, "compress")
        for module in ("repro.fanstore.daemon", "repro.fanstore.client"):
            install("layout.crc32", _module(module), "blob_crc32")
        if spec.ranks > 1:
            wire = _module("repro.fanstore.wire")
            install("wire.request_encode", _dig(wire, "Request"), "encode")
            install("wire.request_decode", _module("repro.fanstore.daemon"),
                    "decode_request")
            install("comm.send", _dig(daemon, "comm"), "send")
            install("comm.recv", _dig(daemon, "comm"), "recv")
            # the serving side; its recv is the idle wait, so not probed
            served = _dig(peer, "daemon")
            install("comm.send", _dig(served, "comm"), "send")
            install("backend.get", _dig(served, "backend"), "get")
            install("metadata.insert", _dig(served, "metadata"), "insert")


# -- isolated replays ---------------------------------------------------------


def _median_s(fn: Callable[[Any], Any],
              items: Iterable = range(_REPLAY_REPS)) -> float:
    """Median time of one ``fn(item)`` call over ``items``, seconds."""
    samples = []
    for item in items:
        t0 = _clock()
        fn(item)
        samples.append(_clock() - t0)
    return statistics.median(samples)


def _median_us(fn: Callable[[Any], Any], items: Iterable) -> float:
    return _median_s(fn, items) * 1e6


def _ping_pong_us(payload: bytes, trips: int) -> float:
    """Median round trip of ``payload`` between two rank threads."""
    tag = 0x0E2E

    def body(comm):
        samples = []
        for _ in range(trips):
            if comm.rank == 0:
                t0 = _clock()
                comm.send(payload, 1, tag)
                comm.recv(1, tag)
                samples.append(_clock() - t0)
            else:
                comm.send(comm.recv(0, tag), 0, tag)
        return samples

    return statistics.median(run_parallel(body, 2)[0]) * 1e6


def _storm(bench: Bench, store: Store) -> tuple[float, float]:
    """Four closed-loop client threads over the read set: files/s and
    request-batch items per flush (informational: +-9 % on one CPU)."""
    paths = store.read_set[: 64 * _STORM_THREADS]
    share = len(paths) // _STORM_THREADS
    read = store.fs.client.read_file
    before = store.fs.metrics.snapshot()

    def client(index: int) -> None:
        for path in paths[index * share:(index + 1) * share]:
            read(path)

    threads = [
        threading.Thread(target=client, args=(i,))
        for i in range(_STORM_THREADS)
    ]
    t0 = _clock()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    elapsed = _clock() - t0
    after = store.fs.metrics.snapshot()

    def delta(name: str) -> float:
        return after.value(name) - before.value(name)

    flushes = delta("daemon.batch.flushes")
    per_flush = delta("daemon.batch.items") / flushes if flushes else 0.0
    return share * _STORM_THREADS / elapsed, per_flush


def replays(bench: Bench, store: Store, calib: float) -> dict[str, Any]:
    """Pure functions and single layers, outside any operation, at
    reference host speed. ``None`` = probe_missing."""
    spec, fs = bench.spec, store.fs
    out: dict[str, Any] = {}

    def ref(value: float) -> float:
        return to_ref(value, calib)

    sample = store.files[:256]
    out["metadata.lookup_us"] = ref(_median_us(fs.client.stat, sample))
    out["metadata.scan_s"] = ref(
        _median_s(lambda _: list_training_files(fs.client)))

    def nested_open(path: str) -> None:
        fs.client.close(fs.client.open(path))

    pinned = [fs.client.open(p) for p in sample[:64]]
    out["cache.hit_us"] = ref(_median_us(nested_open, sample[:64]))
    for fd in pinned:
        fs.client.close(fd)

    layout = _module("repro.fanstore.layout")
    read_partition = _dig(layout, "read_partition")
    crc32 = _dig(layout, "blob_crc32")
    partition = bench.prepared.partition_paths()[0]
    entries = []
    if read_partition is None:
        out["layout.partition_load_s"] = None
    else:
        out["layout.partition_load_s"] = ref(_median_s(
            lambda _: read_partition(partition, with_data=True,
                                     zero_copy=True)))
        entries = read_partition(partition)[:64]
    blobs = [bytes(e.data) for e in entries]
    if crc32 is None or not blobs:
        out["layout.crc32_us_per_mb"] = None
    else:
        megabytes = statistics.mean(len(b) for b in blobs) / 1e6
        out["layout.crc32_us_per_mb"] = ref(_median_us(crc32, blobs)) / megabytes

    get_compressor = _dig(_module("repro.compressors"), "get_compressor")
    if get_compressor is None or not blobs:
        out["codec.decompress_us"] = out["codec.decompress_mb_per_s"] = None
        out["codec.compress_us"] = None
    else:
        decode_us = ref(_median_us(get_compressor(spec.compressor).decompress,
                                   blobs))
        plain_mb = statistics.mean(e.stat.st_size for e in entries) / 1e6
        out["codec.decompress_us"] = decode_us
        out["codec.decompress_mb_per_s"] = plain_mb / (decode_us / 1e6)
        out["codec.compress_us"] = (
            ref(_median_us(get_compressor(spec.output_compressor).compress,
                           bench.payloads(0) * 4))
            if spec.output_compressor else 0.0  # this workload stores raw
        )

    wire = _module("repro.fanstore.wire")
    request_type, reply_type = _dig(wire, "Request"), _dig(wire, "Reply")
    decode_request = _dig(wire, "decode_request")
    decode_reply = _dig(wire, "decode_reply")
    if None in (request_type, reply_type, decode_request, decode_reply):
        out["wire.encode_us"] = out["wire.decode_us"] = None
    else:
        requests = [
            request_type(subject=p, reply_tag=4096 + i, deadline=1e9, epoch=0)
            for i, p in enumerate(sample)
        ]
        reply = reply_type(reply_type.OK, blobs[0] if blobs else b"")
        raw_reply = reply.encode()
        out["wire.encode_us"] = ref(
            _median_us(lambda r: (r.encode(), reply.encode()), requests))
        out["wire.decode_us"] = ref(_median_us(
            lambda e: (decode_request(e), decode_reply(raw_reply)),
            [r.encode() for r in requests]))

    out["comm.rtt_us"] = ref(_ping_pong_us(bytes(16 * 1024), 1000))

    rank_files = _dig(SyncLoader(
        fs.client, store.read_set, batch_size=spec.batch_size,
        rank=0, world_size=spec.loader_world, seed=bench.seed,
    ), "plan.rank_files")
    out["loader.plan_us"] = (
        None if rank_files is None
        else ref(_median_us(lambda i: rank_files(0, i), list(range(64))))
    )

    storm_rate, per_flush = _storm(bench, store)
    out["pipeline.storm4_files_per_s"] = storm_rate * calib / CALIB_REF_S
    out["pipeline.batch_items_per_flush"] = per_flush
    return out


def _batch_overhead_us(bench: Bench, store: Store, probes: Probes) -> float:
    """One probed SyncLoader epoch without compute: mean time per batch
    *not* spent inside ``client.read_file`` (the plan, list building,
    the Batch object), microseconds at host speed."""
    ledger, spec = probes.ledger, bench.spec
    first = len(ledger.spans)
    with bench.interception(store), probes.installed(
            intercepted=spec.via_open):
        loader = SyncLoader(
            store.fs.client, store.read_set,
            batch_size=spec.batch_size, rank=0,
            world_size=spec.loader_world, seed=bench.seed,
        )
        t0 = _clock()
        batches = sum(1 for _batch in loader)
        elapsed = _clock() - t0
    reads = sum(
        s[END] - s[START] for s in ledger.spans[first:]
        if s[NAME] == "client.read_file"
    )
    del ledger.spans[first:]  # keep the ledger to read and write ops
    return (elapsed - reads) / batches * 1e6


# -- the traced run -----------------------------------------------------------


def run_traced(bench: Bench, rounds: int, ledger_path: Path) -> dict[str, Any]:
    spec = bench.spec
    bench.generate()
    ledger = Ledger()

    def measure(store: Store, setup_s: float) -> dict[str, Any]:
        bench.verify_dataset(store)
        bench.warm_up(store)
        probes = Probes(ledger, bench, store)
        before = store.fs.metrics.snapshot()
        plain = bench.rounds(store, rounds)
        traced_reads: list[Phase] = []
        traced_writes: list[Phase] = []
        calib = bench.calibrate()
        for round_no in range(rounds, 2 * rounds):
            order = bench.read_order(store, round_no)
            phase, calib = bench.timed(
                lambda: bench.read_phase(store, order, probes), calib)
            traced_reads.append(phase)
            phase, calib = bench.timed(
                lambda: bench.write_phase(store, round_no, probes), calib)
            traced_writes.append(phase)
        after = store.fs.metrics.snapshot()
        peer_after = (
            store.peer.metrics.snapshot() if store.peer is not None else None)

        def delta(name: str) -> float:
            return after.value(name) - before.value(name)

        file_reads = sum(
            p.ops for kind in ("read", "sync", "async") for p in plain[kind]
        ) + sum(p.ops for p in traced_reads)
        all_writes = plain["write"] + traced_writes
        writes = sum(p.ops for p in all_writes)
        untraced = bench.summarise(store, plain, [setup_s])
        traced_rate = statistics.median(
            p.ops / to_ref(p.elapsed, p.calib) for p in traced_reads)
        values: dict[str, Any] = {
            "cache.hit_ratio": delta("cache.hits") / delta("cache.opens"),
            "cache.evictions_per_read": delta("cache.evictions") / file_reads,
            "daemon.remote_fetches_per_read":
                delta("daemon.remote_fetches") / file_reads,
            "journal.fsyncs_per_write":
                delta("durability.journal.fsyncs") / writes,
            "journal.bytes_per_user_byte":
                delta("durability.journal.bytes")
                / sum(p.nbytes for p in all_writes),
            "journal.rotations": float(delta("durability.journal.rotations")),
            "journal.compactions":
                float(delta("durability.journal.compactions")),
            "obs.bench_trace_overhead": traced_rate / untraced["files_per_s"],
            "loader.async_hidden_share":
                (untraced["iter_sync_ms"] - untraced["iter_async_ms"])
                / untraced["raw.compute_sleep_ms"],
            "host.raw_files_per_s": untraced["raw.files_per_s"],
            "untraced.files_per_s": untraced["files_per_s"],
            "untraced.iter_sync_ms": untraced["iter_sync_ms"],
            "untraced.iter_async_ms": untraced["iter_async_ms"],
        }
        for name in ("tail.read_p99_us", "write.per_s", "write.p50_us",
                     "write.p99_us", "host.calib_ms", "host.calib_iqr_ms"):
            values[name] = untraced[name]
        for counter in ("retries", "failovers", "degraded_reads",
                        "shed_requests"):
            name = f"daemon.{counter}"
            values[name] = float(
                after.value(name)
                + (peer_after.value(name) if peer_after else 0))
        host_calib = untraced["host.calib_ms"] / 1e3
        summary = _from_ledger(ledger, values, spec.disk,
                               CALIB_REF_S / host_calib)
        values["loader.batch_overhead_us"] = to_ref(
            _batch_overhead_us(bench, store, probes), calib)
        values.update(replays(bench, store, calib))
        bench.verify_writes(store.fs, "read-back")
        ledger.dump(
            ledger_path,
            {"workload": spec.name, "seed": bench.seed, "rounds": rounds,
             "probe_missing": ledger.missing,
             "clock": "seconds since an arbitrary origin, at host speed",
             "calib_s": host_calib, "calib_ref_s": CALIB_REF_S},
            summary,
        )
        return values

    values = bench.with_store(0, measure)
    assert isinstance(values, dict)
    values["prepare.pack_s"], values["store.construct_s"] = bench.setup_parts[0]
    values["prepare.compress_ratio"] = bench.prepared.ratio
    if spec.disk:
        bench.verify_after_restart(0)
    values["journal.recovery_s"] = bench.recovery_s
    for name in ledger.missing:
        print(f"# probe_missing: {name}")
    return values


def _from_ledger(
    ledger: Ledger, values: dict[str, Any], disk: bool, scale: float
) -> dict:
    """Fill in the ledger-derived metrics (microseconds per operation,
    ``scale`` takes host speed to reference speed); returns the summary
    ``ledger.jsonl`` ends with."""
    reads = ledger.account("bench.read")
    writes = ledger.account("bench.write")
    missing = set(ledger.missing)

    def self_us(root: str, *names: str) -> float | None:
        if all(name in missing for name in names):
            return None
        return ledger.self_us(root, *names) * scale

    def mean_us(name: str) -> float | None:
        if name in missing:
            return None
        spans = ledger.spans_named(name)
        if not spans:
            return 0.0
        return statistics.mean(s[END] - s[START] for s in spans) * 1e6 * scale

    def layer(account: dict, name: str) -> float:
        return account["layers"].get(name, 0.0) * scale

    get_us, put_us = mean_us("backend.get"), mean_us("backend.put")
    read_ops = {s[OP] for s in ledger.spans_named("bench.read")}
    read_sends = sum(
        1 for s in ledger.spans_named("comm.send") if s[OP] in read_ops)
    values.update({
        "interception.open_self_us":
            self_us("bench.read", "interception.open"),
        "client.read_self_us": layer(reads, "client"),
        "client.write_self_us": layer(writes, "client"),
        "cache.miss_self_us": layer(reads, "cache"),
        "daemon.open_self_us":
            self_us("bench.read", "daemon.open_file", "daemon.close_file"),
        "daemon.fetch_self_us":
            self_us("bench.read", "daemon.fetch_compressed"),
        "daemon.store_output_self_us":
            self_us("bench.write", "daemon.store_output"),
        "backend.ram_get_us": 0.0 if disk else get_us,
        "backend.disk_get_us": get_us if disk else 0.0,
        "backend.ram_put_us": 0.0 if disk else put_us,
        "backend.disk_put_us": put_us if disk else 0.0,
        "pipeline.rpc_self_us": layer(reads, "pipeline"),
        "comm.messages_per_read":
            read_sends / reads["ops"] if reads["ops"] else 0.0,
        "journal.append_us": (
            0.0 if not disk
            else None if "journal.begin" in missing
            else mean_us("journal.begin") + (mean_us("journal.commit") or 0.0)
        ),
        "ledger.unattributed_share":
            reads["unattributed_us"] / reads["e2e_us"]
            if reads["e2e_us"] else 0.0,
    })
    for what, account in (("read", reads), ("write", writes)):
        print(f"# ledger, per {what} at host speed: e2e "
              f"{account['e2e_us']:.2f} us = "
              + " + ".join(f"{k} {v:.2f}" for k, v in account["layers"].items())
              + f" + unattributed {account['unattributed_us']:.2f}")
    return {
        "read": reads, "write": writes,
        "note": "per-operation means in microseconds at host speed; "
                "the layers and unattributed_us add up to e2e_us",
    }
