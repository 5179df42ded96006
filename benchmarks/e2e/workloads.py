"""The frozen workload table: every size, count and ``c_units`` lives here.

Op counts are fixed, never time-bounded, so counters, memory and stored
bytes repeat exactly from run to run. ``--seconds`` scales the number of
rounds (see :func:`rounds_for`); everything else is constant.
"""

from __future__ import annotations

from dataclasses import dataclass

#: ``run_seconds`` in BENCHMARK.json: the measuring time ``rounds`` below
#: is sized for on the reference host.
RUN_SECONDS = 20

#: rounds of a ``--quick`` smoke run (labelled non-comparable).
QUICK_ROUNDS = 2

#: fresh prepare + construct repetitions behind ``setup_s``.
SETUP_REPS = 5


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    ranks: int
    partitions: int  # dealt round-robin over the ranks
    disk: bool  # DiskBackend + write-ahead journal instead of RAM
    dataset: str  # generate_dataset key
    num_files: int
    file_size: int
    compressor: str
    #: which files the read phase and the loaders touch, in seeded
    #: shuffled order: every file, or only the files homed on rank 1
    read_set: str  # "all" | "remote"
    reads_per_round: int
    via_open: bool  # read through intercept() + builtins.open
    batch_size: int  # global batch; rank 0 reads batch_size / loader_world
    loader_world: int
    #: emulated accelerator compute per iteration, in calibration-kernel
    #: units: the loader loops sleep ``c_units * calib_s``
    c_units: float
    write_size: int
    writes_per_round: int
    output_compressor: str | None
    rounds: int


WORKLOADS: tuple[Workload, ...] = (
    Workload(
        name="local_1k_memcpy",
        why="Table VI throughput row: ~1 KB memcpy files, one rank, RAM; "
            "per-open overhead in client/cache/daemon/metadata/loader is "
            "nearly all of the time, codec ~0",
        ranks=1, partitions=1, disk=False,
        dataset="tokamak", num_files=4000, file_size=1200,
        compressor="memcpy",
        read_set="all", reads_per_round=2000, via_open=False,
        batch_size=32, loader_world=1, c_units=0.16,
        write_size=1024, writes_per_round=400, output_compressor=None,
        rounds=40,
    ),
    Workload(
        name="local_512k_zlib",
        why="Table VI bandwidth row: 512 KB zlib-1 files, one rank, RAM; "
            "decode + crc verify + copies are nearly all of the time, "
            "per-open overhead <2 %, so an overhead win must leave it flat",
        ranks=1, partitions=1, disk=False,
        dataset="em", num_files=64, file_size=512 * 1024,
        compressor="zlib-1",
        read_set="all", reads_per_round=128, via_open=False,
        batch_size=2, loader_world=1, c_units=0.85,
        write_size=128 * 1024, writes_per_round=40,
        output_compressor="zlib-1",
        rounds=25,
    ),
    Workload(
        name="remote_16k_memcpy",
        why="every read crosses ranks: 16 KB memcpy files homed on a "
            "passive peer; wire, comm mailbox, daemon admission/serve and "
            "deadline/health bookkeeping do most of the work, codec ~0",
        ranks=2, partitions=2, disk=False,
        dataset="imagenet", num_files=1024, file_size=16 * 1024,
        compressor="memcpy",
        read_set="remote", reads_per_round=512, via_open=False,
        batch_size=16, loader_world=1, c_units=0.3,
        write_size=16 * 1024, writes_per_round=200, output_compressor=None,
        rounds=40,
    ),
    Workload(
        name="epoch_2rank_disk",
        why="an epoch through every layer: 128 KB zlib-1 files, two ranks, "
            "DiskBackend + journal, reads via intercepted open() in global "
            "shuffled order (~half remote), journalled writes, restart",
        # 8 partitions, not 2: both ranks load at once, and whether their
        # whole-partition buffers overlap moves peak RSS by one buffer
        ranks=2, partitions=8, disk=True,
        dataset="em", num_files=256, file_size=128 * 1024,
        compressor="zlib-1",
        read_set="all", reads_per_round=256, via_open=True,
        batch_size=8, loader_world=2, c_units=0.5,
        write_size=64 * 1024, writes_per_round=100, output_compressor=None,
        rounds=20,
    ),
)

BY_NAME = {w.name: w for w in WORKLOADS}


def rounds_for(workload: Workload, seconds: int, quick: bool) -> int:
    """Rounds to run: the table's count scaled by ``seconds`` over
    :data:`RUN_SECONDS` (fixed for a given ``--seconds``)."""
    if quick:
        return QUICK_ROUNDS
    return max(QUICK_ROUNDS, workload.rounds * seconds // RUN_SECONDS)
