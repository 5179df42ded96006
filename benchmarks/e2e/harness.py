"""The gated measurement: one workload, untraced, outside-in.

Only the narrow public surface is called here (the per-file dataset
``GENERATORS``, ``prepare_dataset``, ``FanStore``/``FanStoreOptions``/
``DaemonConfig``, ``fs.client.*``, ``intercept``, the loaders,
``run_parallel`` and ``fs.metrics.snapshot().value(name)``) so that the
refactors ROADMAP items 2 and 3 plan cannot break the yardstick;
``test_surface.py`` enforces it. Layer probes live in ``traced.py`` and
never run here.

Three rules keep two runs of the same code in agreement (README.md has
the measurements behind them): the process is pinned to one CPU, every
duration is scaled by the calibration kernel that brackets it, and the
work is a fixed number of rounds whose phases run round-robin, reported
through medians.
"""

from __future__ import annotations

import contextlib
import gc
import math
import os
import resource
import shutil
import statistics
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

from repro.comm import run_parallel
from repro.datasets import GENERATORS, get_spec
from repro.fanstore import (
    DaemonConfig,
    FanStore,
    FanStoreOptions,
    intercept,
    prepare_dataset,
)
from repro.training import AsyncLoader, SyncLoader
from repro.training.loader import list_training_files

from benchmarks.e2e.calib import CALIB_REF_S, calib_s, to_ref
from benchmarks.e2e.workloads import SETUP_REPS, Workload

#: distinct write payloads generated per round (cycled over its writes)
PAYLOADS_PER_ROUND = 4

_GOLDEN = 0.6180339887498949

#: round number of the untimed warm-up pass (seeds and output paths)
WARM_UP_ROUND = 999

_clock = time.perf_counter


def pin_to_one_cpu() -> int:
    """Pin this process (and every thread it starts) to its lowest
    allowed CPU; returns it, or -1 where the platform cannot pin."""
    try:
        cpu = min(os.sched_getaffinity(0))
        os.sched_setaffinity(0, {cpu})
        return cpu
    except (AttributeError, OSError):
        print("warning: cannot pin to one CPU; numbers will be noisier")
        return -1


def filesystem_of(path: Path) -> str:
    """The type of the file system holding ``path`` (``unknown`` where
    /proc/mounts is absent)."""
    best, fs_type = "", "unknown"
    try:
        with open("/proc/mounts", encoding="utf-8") as mounts:
            for line in mounts:
                _dev, mount, kind = line.split()[:3]
                inside = str(path) == mount or str(path).startswith(
                    mount.rstrip("/") + "/"
                )
                if inside and len(mount) > len(best):
                    best, fs_type = mount, kind
    except OSError:
        pass
    return fs_type


def percentile(sorted_values: list[float], q: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    rank = max(math.ceil(q * len(sorted_values)), 1)
    return sorted_values[rank - 1]


@dataclass
class Phase:
    """One timed phase of one round, still at host speed."""

    elapsed: float = 0.0
    ops: int = 0
    nbytes: int = 0
    samples: list[float] = field(default_factory=list)
    calib: float = 0.0  # mean of the kernel runs bracketing the phase


@dataclass
class Store:
    """What a phase needs from an open store (rank 0's view)."""

    fs: FanStore
    files: list[str]  # first list_training_files(), before any write
    read_set: list[str]  # the files the read phase and the loaders use
    peer: FanStore | None  # rank 1's store, for the traced run's probes
    root: Path  # holds packed/ and, on disk workloads, rank<N>/


class Bench:
    """Building blocks of a workload run; :meth:`run_gated` composes the
    gated measurement from them and ``traced.py`` the traced one."""

    def __init__(self, spec: Workload, seed: int, workdir: Path) -> None:
        self.spec = spec
        self.seed = seed
        self.workdir = workdir
        self.raw_dir = workdir / "raw"
        self.attempted = 0
        self.failed = 0
        self.first_error: str | None = None
        self.raw_bytes = 0
        self.user_bytes_written = 0
        #: written path -> (round, payload index), for the read-back
        self.written: dict[str, tuple[int, int]] = {}
        self.sizes: dict[str, int] = {}
        self.calibs: list[float] = []
        #: per set-up: (prepare_dataset seconds, construct + first scan
        #: seconds), at reference host speed
        self.setup_parts: list[tuple[float, float]] = []
        self.prepared = None  # the last set-up's PreparedDataset
        self.recovery_s = 0.0  # journal recovery time of the restart

    # -- bookkeeping --------------------------------------------------------

    def fail(self, count: int, why: str) -> None:
        self.failed += count
        if self.first_error is None:
            self.first_error = why

    def calibrate(self) -> float:
        sample = calib_s()
        self.calibs.append(sample)
        return sample

    # -- inputs -------------------------------------------------------------

    def generate(self) -> None:
        """The raw dataset: file *contents* from the seed, through the
        program's own per-file generators, in ``generate_dataset``'s
        layout (``cls0000/file00000.ext``) with its +-25 % size jitter.

        The jitter is a fixed low-discrepancy ladder, not seeded as in
        ``generate_dataset``: the benchmark is judged on its spread
        *across seeds*, and a seeded jitter moves a 64-file dataset's
        mean file size by ~2 % (1 sigma) — and files/s and the median
        read latency with it."""
        spec = self.spec
        make = GENERATORS[spec.dataset]
        extension = get_spec(spec.dataset).file_format
        dirs = min(4, spec.num_files)
        for i in range(spec.num_files):
            size = int(spec.file_size * (0.75 + 0.5 * (i * _GOLDEN % 1.0)))
            path = (self.raw_dir / f"cls{i % dirs:04d}"
                    / f"file{i:05d}.{extension}")
            path.parent.mkdir(parents=True, exist_ok=True)
            data = make(size, self.seed + i)
            path.write_bytes(data)
            self.raw_bytes += len(data)

    def payloads(self, round_no: int) -> list[bytes]:
        """This round's write payloads: half random bytes, half
        low-entropy, so an output compressor has something to do."""
        rng = np.random.default_rng([self.seed, round_no, 0xF00D])
        half = self.spec.write_size // 2
        return [
            rng.integers(0, 256, half, dtype=np.uint8).tobytes()
            + rng.integers(0, 4, self.spec.write_size - half,
                           dtype=np.uint8).tobytes()
            for _ in range(PAYLOADS_PER_ROUND)
        ]

    def read_order(self, store: Store, round_no: int) -> list[str]:
        """This round's read sequence: a seeded shuffle of the read set,
        repeated to ``reads_per_round``."""
        rng = np.random.default_rng([self.seed, round_no, 0xBEEF])
        pool = store.read_set
        order: list[str] = []
        while len(order) < self.spec.reads_per_round:
            order.extend(pool[i] for i in rng.permutation(len(pool)))
        return order[: self.spec.reads_per_round]

    # -- the store ----------------------------------------------------------

    def with_store(
        self, rep: int, body: Callable[[Store, float], object]
    ) -> object:
        """One fresh set-up — ``prepare_dataset`` + ``FanStore(...)`` on
        every rank + the first ``list_training_files`` — then
        ``body(store, setup_s)`` on rank 0 while rank 1 (if any) serves
        passively. ``setup_s`` is at reference host speed."""
        spec = self.spec
        rep_dir = self.workdir / f"store{rep}"
        config = DaemonConfig(output_compressor=spec.output_compressor)
        calib_before = self.calibrate()
        t0 = _clock()
        # threads=1: the process is pinned to one CPU, so a packing pool
        # would only add hand-off noise
        prepared = prepare_dataset(
            self.raw_dir, rep_dir / "packed", num_partitions=spec.partitions,
            compressor=spec.compressor, threads=1,
        )
        packed_s = _clock() - t0
        self.prepared = prepared

        def on_rank0(fs: FanStore, peer: FanStore | None) -> object:
            files = list_training_files(fs.client)
            elapsed = _clock() - t0
            calib = (calib_before + self.calibrate()) / 2
            self.setup_parts.append(
                (to_ref(packed_s, calib), to_ref(elapsed - packed_s, calib))
            )
            read_set = files
            if spec.read_set == "remote":
                read_set = [
                    p for p in files if fs.client.stat(p).home_rank == 1
                ]
            store = Store(fs, files, read_set, peer, rep_dir)
            return body(store, to_ref(elapsed, calib))

        def local_dir_of(rank: int) -> Path | None:
            return rep_dir / f"rank{rank}" if spec.disk else None

        if spec.ranks == 1:
            options = FanStoreOptions(config=config, local_dir=local_dir_of(0))
            with FanStore(prepared, options) as fs:
                return on_rank0(fs, None)

        done = threading.Event()
        peer_up = threading.Event()
        peers: list[FanStore] = []

        def rank_main(comm) -> object:
            options = FanStoreOptions(
                comm=comm, config=config, local_dir=local_dir_of(comm.rank),
            )
            with FanStore(prepared, options) as fs:
                if comm.rank == 1:
                    peers.append(fs)
                    peer_up.set()
                    done.wait()
                    return None
                try:
                    if not peer_up.wait(timeout=60.0):
                        raise RuntimeError("the peer rank never came up")
                    return on_rank0(fs, peers[0])
                finally:
                    done.set()

        return run_parallel(rank_main, 2, timeout=900.0)[0]

    def reader(self, store: Store) -> Callable[[str], bytes]:
        """Whole-file open -> read -> close, the way this workload's
        trainer would do it."""
        if not self.spec.via_open:
            return store.fs.client.read_file
        mount = store.fs.mount_point

        def read_via_open(path: str) -> bytes:
            with open(f"{mount}/{path}", "rb") as handle:
                return handle.read()

        return read_via_open

    # -- checks -------------------------------------------------------------

    def verify_dataset(self, store: Store) -> None:
        """One untimed pass (doubling as warm-up): every file read
        through the store equals the raw generated file, and its length
        equals its ``stat`` size."""
        read = self.reader(store)
        with self.interception(store):
            for path in store.files:
                self.attempted += 1
                try:
                    data = read(path)
                    size = store.fs.client.stat(path).st_size
                except Exception as exc:  # noqa: BLE001 - counted, reported
                    self.fail(1, f"read {path}: {exc!r}")
                    continue
                self.sizes[path] = size
                if len(data) != size:
                    self.fail(1, f"{path}: {len(data)} bytes, stat {size}")
                elif data != (self.raw_dir / path).read_bytes():
                    self.fail(1, f"{path}: differs from the raw file")

    def verify_writes(self, fs: FanStore, what: str) -> None:
        """Every acked write reads back byte-exact."""
        pool_round, pool = None, []  # writes are recorded round by round
        for path, (round_no, index) in self.written.items():
            self.attempted += 1
            if round_no != pool_round:
                pool_round, pool = round_no, self.payloads(round_no)
            try:
                data = fs.client.read_file(path)
            except Exception as exc:  # noqa: BLE001 - counted, reported
                self.fail(1, f"{what} {path}: {exc!r}")
                continue
            if data != pool[index]:
                self.fail(1, f"{what} {path}: bytes differ")

    def interception(self, store: Store):
        """``intercept(fs)`` for a workload that reads through
        ``open()``; a no-op context otherwise."""
        if self.spec.via_open:
            return intercept(store.fs)
        return contextlib.nullcontext()

    # -- timed phases -------------------------------------------------------

    def read_phase(self, store: Store, order: list[str], probes=None) -> Phase:
        """Read ``order`` one file at a time. ``probes`` (traced run
        only) is installed for the phase and roots one span per read."""
        sizes = self.sizes
        phase = Phase(ops=len(order))
        record = phase.samples.append
        clock = _clock
        nbytes = bad = 0
        with self.interception(store), _installed(probes, self.spec.via_open):
            read = self.reader(store)
            if probes is not None:
                read = probes.root("bench.read", read)
            gc.collect()
            gc.disable()
            try:
                start = clock()
                for path in order:
                    t0 = clock()
                    try:
                        data = read(path)
                    except Exception as exc:  # noqa: BLE001 - counted
                        record(clock() - t0)
                        self.fail(1, f"read {path}: {exc!r}")
                        continue
                    record(clock() - t0)
                    size = len(data)
                    nbytes += size
                    if size != sizes.get(path):
                        bad += 1
                phase.elapsed = clock() - start
            finally:
                gc.enable()
        phase.nbytes = nbytes
        self.attempted += len(order)
        if bad:
            self.fail(bad, f"{bad} short reads")
        return phase

    def write_phase(self, store: Store, round_no: int, probes=None) -> Phase:
        spec = self.spec
        payloads = self.payloads(round_no)
        plan = [
            (f"out/r{round_no:03d}/w{i:04d}.bin", i % PAYLOADS_PER_ROUND)
            for i in range(spec.writes_per_round)
        ]
        phase = Phase(ops=len(plan), nbytes=len(plan) * spec.write_size)
        record = phase.samples.append
        clock = _clock
        with _installed(probes, False):
            write = store.fs.client.write_file
            if probes is not None:
                write = probes.root("bench.write", write)
            gc.collect()
            gc.disable()
            try:
                start = clock()
                for path, index in plan:
                    t0 = clock()
                    try:
                        write(path, payloads[index])
                    except Exception as exc:  # noqa: BLE001 - counted
                        record(clock() - t0)
                        self.fail(1, f"write {path}: {exc!r}")
                        continue
                    record(clock() - t0)
                    self.written[path] = (round_no, index)
                phase.elapsed = clock() - start
            finally:
                gc.enable()
        self.attempted += len(plan)
        self.user_bytes_written += phase.nbytes
        return phase

    def loader_epoch(
        self, store: Store, asynchronous: bool, round_no: int, sleep_s: float
    ) -> Phase:
        """One epoch: each iteration is ``next(batch)`` plus the compute
        sleep. The sample list holds every iteration's duration."""
        spec = self.spec
        kwargs = dict(
            batch_size=spec.batch_size, epochs=1, rank=0,
            world_size=spec.loader_world, seed=self.seed + round_no,
        )
        loader = (
            AsyncLoader(store.fs.client, store.read_set, depth=2, **kwargs)
            if asynchronous
            else SyncLoader(store.fs.client, store.read_set, **kwargs)
        )
        phase = Phase()
        record = phase.samples.append
        seen: list[tuple[list[str], int]] = []
        clock = _clock
        sleep = time.sleep
        gc.collect()
        gc.disable()
        try:
            start = previous = clock()
            for batch in loader:
                sleep(sleep_s)
                now = clock()
                record(now - previous)
                previous = now
                seen.append((batch.paths, batch.bytes_read))
            phase.elapsed = clock() - start
        except Exception as exc:  # noqa: BLE001 - counted, reported
            self.fail(len(loader) * spec.batch_size // spec.loader_world,
                      f"loader epoch: {exc!r}")
        finally:
            gc.enable()
        for paths, bytes_read in seen:
            phase.ops += len(paths)
            phase.nbytes += bytes_read
            if bytes_read != sum(self.sizes[p] for p in paths):
                self.fail(len(paths), "loader batch: short read")
        self.attempted += phase.ops
        return phase

    def timed(self, phase_fn: Callable[[], Phase], calib_before: float
              ) -> tuple[Phase, float]:
        """Run one phase and the kernel after it; the phase's ``calib``
        is the mean of its two brackets."""
        phase = phase_fn()
        calib_after = self.calibrate()
        phase.calib = (calib_before + calib_after) / 2
        return phase, calib_after

    # -- the gated run ------------------------------------------------------

    def run_gated(self, rounds: int) -> dict[str, float]:
        """Set up ``SETUP_REPS`` times, measure ``rounds`` rounds on the
        last store, check every output; returns the end-to-end metrics
        (and raw, host-speed companions under ``raw.*`` / ``host.*``)."""
        self.generate()
        setups: list[float] = []
        for rep in range(SETUP_REPS - 1):
            setups.append(self.with_store(rep, lambda _store, s: s))
            shutil.rmtree(self.workdir / f"store{rep}")

        def measure(store: Store, setup_s: float) -> dict[str, float]:
            setups.append(setup_s)
            self.verify_dataset(store)
            self.warm_up(store)
            phases = self.rounds(store, rounds)
            self.verify_writes(store.fs, "read-back")
            return self.summarise(store, phases, setups)

        metrics = self.with_store(SETUP_REPS - 1, measure)
        if self.spec.disk:
            self.verify_after_restart(SETUP_REPS - 1)
        assert isinstance(metrics, dict)
        return metrics

    def warm_up(self, store: Store) -> None:
        """Untimed: lazy imports, thread start-up, first write."""
        for asynchronous in (False, True):
            self.loader_epoch(store, asynchronous, WARM_UP_ROUND, 0.0)
        self.write_phase(store, WARM_UP_ROUND)

    def rounds(self, store: Store, rounds: int) -> dict[str, list[Phase]]:
        """calib -> read -> calib -> sync epoch -> calib -> async epoch
        -> calib -> write -> calib, ``rounds`` times, so a slow stretch
        of the host hits every metric of a round alike."""
        spec = self.spec
        phases: dict[str, list[Phase]] = {
            "read": [], "sync": [], "async": [], "write": []
        }
        calib = self.calibrate()
        for round_no in range(rounds):
            order = self.read_order(store, round_no)
            phase, calib = self.timed(
                lambda: self.read_phase(store, order), calib)
            phases["read"].append(phase)
            for kind, asynchronous in (("sync", False), ("async", True)):
                sleep_s = spec.c_units * calib
                phase, calib = self.timed(
                    lambda: self.loader_epoch(
                        store, asynchronous, round_no, sleep_s),
                    calib,
                )
                phases[kind].append(phase)
            phase, calib = self.timed(
                lambda: self.write_phase(store, round_no), calib)
            phases["write"].append(phase)
        return phases

    def verify_after_restart(self, rep: int) -> None:
        """Reopen rank 0's ``local_dir`` after the shutdown (restart
        recovery replays the journal) and read every acked write back."""
        root = self.workdir / f"store{rep}"
        options = FanStoreOptions(local_dir=root / "rank0")
        with FanStore(root / "packed", options) as fs:
            self.verify_writes(fs, "after restart")
            self.recovery_s = fs.metrics.snapshot().value(
                "durability.recovery.seconds")

    # -- metrics ------------------------------------------------------------

    def summarise(
        self, store: Store, phases: dict[str, list[Phase]],
        setups: list[float],
    ) -> dict[str, float]:
        reads, writes = phases["read"], phases["write"]

        def over_rounds(group: list[Phase],
                        per_round: Callable[[Phase], float]) -> float:
            """The median over rounds of one per-round statistic."""
            return statistics.median(per_round(p) for p in group)

        def rate(amount: Callable[[Phase], float]) -> Callable[[Phase], float]:
            return lambda p: amount(p) / to_ref(p.elapsed, p.calib)

        def quantile_us(q: float) -> Callable[[Phase], float]:
            return lambda p: to_ref(percentile(sorted(p.samples), q), p.calib) * 1e6

        def pooled_p99_us(group: list[Phase]) -> float:
            return percentile(sorted(
                to_ref(s, p.calib) * 1e6 for p in group for s in p.samples
            ), 0.99)

        snapshot = store.fs.metrics.snapshot()
        stored_outputs = snapshot.value("daemon.write_bytes")
        packed = _tree_bytes(store.root / "packed")
        journal = (
            _tree_bytes(store.root / "rank0" / "journal")
            if self.spec.disk else 0
        )
        return {
            "files_per_s": over_rounds(reads, rate(lambda p: p.ops)),
            "mb_per_s": over_rounds(reads, rate(lambda p: p.nbytes / 1e6)),
            "read_p50_us": over_rounds(reads, quantile_us(0.50)),
            "iter_sync_ms": over_rounds(phases["sync"], quantile_us(0.50)) / 1e3,
            "iter_async_ms": over_rounds(phases["async"], quantile_us(0.50)) / 1e3,
            "peak_rss_mb": resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6,
            "stored_bytes_per_user_byte": (
                (packed + stored_outputs + journal)
                / (self.raw_bytes + self.user_bytes_written)
            ),
            "setup_s": statistics.median(setups),
            # demoted from the gated list (README.md says why): tails,
            # and everything about writes
            "tail.read_p99_us": pooled_p99_us(reads),
            "write.per_s": over_rounds(writes, rate(lambda p: p.ops)),
            "write.p50_us": over_rounds(writes, quantile_us(0.50)),
            "write.p99_us": pooled_p99_us(writes),
            # companions at host speed, printed beside the gated numbers
            "raw.files_per_s": over_rounds(reads, lambda p: p.ops / p.elapsed),
            "raw.compute_sleep_ms": self.spec.c_units * CALIB_REF_S * 1e3,
            "raw.read_samples": float(sum(len(p.samples) for p in reads)),
            "raw.write_samples": float(sum(len(p.samples) for p in writes)),
            "raw.iterations": float(sum(len(p.samples) for p in phases["sync"])),
            "host.calib_ms": statistics.median(self.calibs) * 1e3,
            "host.calib_iqr_ms": _iqr(self.calibs) * 1e3,
        }


def _installed(probes, intercepted: bool):
    """The traced run's probes in place, or nothing on the gated path."""
    if probes is None:
        return contextlib.nullcontext()
    return probes.installed(intercepted=intercepted)


def _tree_bytes(root: Path) -> int:
    return sum(p.stat().st_size for p in root.rglob("*") if p.is_file())


def _iqr(values: list[float]) -> float:
    q1, _q2, q3 = statistics.quantiles(values, n=4)
    return q3 - q1
