"""Split-brain economics: what quorum membership and epoch fencing buy.

The same 3-rank store suffers the same 2|1 partition under two
regimes. *Fenced* is the shipped default: quorum-aware convictions
plus epoch fencing on mutations. *Unfenced* turns both off
(``MembershipConfig.quorum=False``, ``DaemonConfig.epoch_fencing=False``)
— the naive detector every rank-death drill before this one assumed.

Four costs are measured per regime:

- **writers electable during the split** — fenced: the minority's
  election returns ``None``, so exactly one component can write;
  unfenced: both components elect one (split brain).
- **re-replication storm** — fenced: only the majority restores the
  cut-off rank's copies; the isolated minority's convictions are
  quorum-denied, so it stages nothing. Unfenced: the minority convicts
  *both* peers and restores the whole namespace onto itself off the
  shared-FS floor, on top of the majority's legitimate repair.
- **the stale write after heal** — fenced: the minority's first
  mutation carries its stale view epoch and is refused loudly
  (``StaleEpochError``); unfenced: the write is *accepted silently* —
  the minority diverted ownership to itself during the split, so the
  bytes land local-only and the record never reaches its metadata
  owner (silent divergence, the worst outcome).
- **reconvergence** — fenced: the rejoin handshake + heal
  anti-entropy reach one epoch-2 all-ALIVE view in bounded time;
  unfenced: both sides hold the other DEAD, heartbeats skip DEAD
  targets, and the views stay wedged forever.

Writes a repo-root ``BENCH_partition.json`` with the measured rows and
gates, alongside the usual ``benchmarks/_results`` report.
"""

from __future__ import annotations

import json
import threading
import time
import zlib
from pathlib import Path

import pytest

from repro.bench.report import PaperComparison
from repro.comm.chaos import ChaosWorld, FaultPlan
from repro.comm.launcher import run_parallel
from repro.datasets.synthetic import generate_dataset
from repro.errors import StaleEpochError
from repro.fanstore.daemon import DaemonConfig
from repro.fanstore.membership import MembershipConfig, RankState
from repro.fanstore.prepare import prepare_dataset
from repro.fanstore.store import FanStore, FanStoreOptions

NODES = 3
MINORITY = 2
CONDUCTOR = 0
SEED = 7

#: tight request budgets so degraded reads settle quickly
CONFIG = dict(
    extra_partition_budget=1,
    request_timeout=0.4,
    max_retries=1,
)

#: fast detector so conviction (or its quorum denial) lands in ~1.5 s;
#: flap_damper gives the rejoined rank post-promotion hysteresis so a
#: scheduling stall on a loaded runner cannot re-convict it mid-repair
TIMING = dict(
    heartbeat_interval=0.05,
    suspect_after=0.3,
    dead_after=1.5,
    isolation_damper=0.2,
    flap_damper=2.0,
)

#: post-conviction settle: long enough for a re-replication wave to
#: finish on either side of the cut
SETTLE_S = 1.5

_TAG_DONE = 0x0D1F
POLL = 0.01

JSON_OUT = Path(__file__).parents[1] / "BENCH_partition.json"


def _rank0_owned(prefix: str) -> str:
    for i in range(1000):
        path = f"out/{prefix}{i}.bin"
        if zlib.crc32(path.encode("utf-8")) % NODES == 0:
            return path
    raise AssertionError("no rank-0-owned path found")


STALE_PATH = _rank0_owned("stale")  # written by the healed-but-stale rank


def _await(predicate, deadline_s, what):
    deadline = time.monotonic() + deadline_s
    while time.monotonic() < deadline:
        if predicate():
            return
        time.sleep(POLL)
    raise AssertionError(f"timed out waiting for {what}")


def _drain(comm):
    others = [r for r in range(NODES) if r != comm.rank]
    for other in others:
        comm.send("done", other, _TAG_DONE)
    for other in others:
        comm.recv(other, _TAG_DONE, timeout=120)


@pytest.fixture(scope="module")
def split_dataset(tmp_path_factory):
    raw = tmp_path_factory.mktemp("split-raw")
    generate_dataset("em", raw, num_files=24, avg_file_size=8_000,
                     num_dirs=3, seed=SEED)
    return prepare_dataset(
        raw, tmp_path_factory.mktemp("split-packed"),
        num_partitions=NODES, compressor="zlib-1", threads=2,
    )


def _run_regime(prepared, *, fenced: bool):
    """One cut → settle → heal → stale write → reconverge pass."""
    mcfg = MembershipConfig(quorum=fenced, **TIMING)
    config = DaemonConfig(epoch_fencing=fenced, **CONFIG)
    plan = FaultPlan(SEED)
    world = ChaosWorld(NODES, plan)

    settled = [threading.Event() for _ in range(NODES)]
    healed = threading.Event()
    stale_done = threading.Event()
    writers: dict[int, int | None] = {}
    shared: dict[str, object] = {}

    def body(comm):
        opts = FanStoreOptions(comm=comm, config=config, membership=mcfg)
        fs = FanStore(prepared, opts)
        det = fs.membership
        stats = fs.daemon.stats

        # warm pass + the expected repair size, before anything breaks
        for rec in fs.daemon.metadata.walk_files():
            fs.client.read_file(rec.path)
        if comm.rank == CONDUCTOR:
            recs = [r for r in fs.daemon.metadata.records()
                    if not r.is_broadcast]
            # copies the majority loses with MINORITY: the files homed
            # on it plus the partition it replicated (rank r holds
            # partition r-1 under extra_partition_budget=1)
            shared["expected_lost"] = (
                sum(1 for r in recs if r.home_rank == MINORITY)
                + sum(1 for r in recs
                      if r.partition_id % NODES == MINORITY - 1)
            )
            # mean compressed record size: staged copies are not
            # individually attributed, so storm bytes are reported as
            # records x mean
            shared["mean_record_bytes"] = (
                sum(r.compressed_size for r in recs) / len(recs)
            )
        comm.barrier()

        if comm.rank == CONDUCTOR:
            cut = plan.partition([0, 1], [MINORITY])
            shared["t_cut"] = time.monotonic()

        if comm.rank == MINORITY:
            if fenced:
                _await(lambda: fs.isolated, 30, "isolation to engage")
                _await(
                    lambda: det.stats.quorum_denied_convictions == 2,
                    10, "both overdue peers to be frozen",
                )
            else:
                # no quorum gate: the minority convicts both peers and
                # re-replicates the lost namespace onto itself
                _await(lambda: det.stats.convictions == 2,
                       30, "the minority to convict both peers")
        else:
            _await(
                lambda: det.view.state(MINORITY) == RankState.DEAD,
                30, "conviction of the cut-off rank",
            )
        time.sleep(SETTLE_S)  # let any re-replication wave finish
        writers[comm.rank] = det.elect_writer()
        settled[comm.rank].set()

        if comm.rank == CONDUCTOR:
            for ev in settled:
                assert ev.wait(60)
            shared["t_heal"] = time.monotonic()
            plan.heal(cut=cut)
            healed.set()

        if comm.rank == MINORITY:
            assert healed.wait(60)
            try:
                fs.client.write_file(STALE_PATH, b"stale" * 10)
                shared["stale_error"] = None
            except StaleEpochError:
                shared["stale_error"] = "StaleEpochError"
            stale_done.set()
            if fenced:
                # the shipped path back: rejoin handshake, snapshot
                # adoption, verified promotion, heal anti-entropy
                snapshot = det.request_join(CONDUCTOR)
                fs.daemon.replication.apply_membership_snapshot(snapshot)
                det.request_promotion(CONDUCTOR)
        else:
            assert stale_done.wait(60)

        if fenced:
            _await(
                lambda: det.view.epoch >= 2 and all(
                    det.view.state(r) == RankState.ALIVE
                    for r in range(NODES)
                ),
                90, "every view to reconverge all-ALIVE post-promotion",
            )
            if comm.rank == CONDUCTOR:
                shared["t_converged"] = time.monotonic()
            if comm.rank == MINORITY:
                _await(lambda: not fs.isolated, 60, "isolation to exit")
                _await(lambda: stats.reconciled_records > 0,
                       60, "heal reconciliation to run")
        else:
            # bounded settle window: heartbeats skip DEAD targets in
            # both directions, so the views stay wedged — measure that
            time.sleep(SETTLE_S)

        result = {
            "rank": comm.rank,
            "epoch": det.view.epoch,
            "states": [det.view.state(r).name for r in range(NODES)],
            "convictions": det.stats.convictions,
            "rereplicated": stats.rereplicated_records,
            "failed": stats.rereplication_failed,
            "mttr_s": stats.mean_time_to_repair,
            "fenced_rejects": stats.fenced_rejects,
            "duplicates_dropped": stats.duplicate_replicas_dropped,
        }
        if comm.rank == CONDUCTOR:
            # did the stale write ever reach its metadata owner?
            result["owner_sees_stale"] = fs.daemon.metadata.exists(
                STALE_PATH
            )
        _drain(comm)
        fs.shutdown()
        return result

    results = run_parallel(body, NODES, world=world, timeout=300)
    by_rank = {r["rank"]: r for r in results}
    converged = (
        len({r["epoch"] for r in results}) == 1
        and all(s == "ALIVE" for r in results for s in r["states"])
    )
    return {
        "expected_lost": shared["expected_lost"],
        "writers_in_split": sorted(
            {w for w in writers.values() if w is not None}
        ),
        "storm_records": sum(r["rereplicated"] for r in results),
        "storm_bytes_approx": round(
            sum(r["rereplicated"] for r in results)
            * shared["mean_record_bytes"]
        ),
        "minority_rereplicated": by_rank[MINORITY]["rereplicated"],
        "repair_mttr_s": max(
            r["mttr_s"] for r in results if r["rank"] != MINORITY
        ),
        "stale_write": shared["stale_error"],
        "owner_sees_stale": by_rank[CONDUCTOR]["owner_sees_stale"],
        "fenced_rejects": sum(r["fenced_rejects"] for r in results),
        "duplicates_dropped": by_rank[MINORITY]["duplicates_dropped"],
        "reconverged": converged,
        "reconverge_s": (
            shared["t_converged"] - shared["t_heal"]
            if "t_converged" in shared else None
        ),
        "final_views": {r["rank"]: r["states"] for r in results},
    }


def test_partition_fencing(benchmark, split_dataset, emit_report):
    def run_all():
        return {
            "fenced (quorum + epochs)": _run_regime(
                split_dataset, fenced=True
            ),
            "unfenced (naive detector)": _run_regime(
                split_dataset, fenced=False
            ),
        }

    rows = benchmark.pedantic(run_all, rounds=1, iterations=1)
    fenced = rows["fenced (quorum + epochs)"]
    naive = rows["unfenced (naive detector)"]

    report = PaperComparison(
        "Split-brain cost of quorum fencing",
        "3 ranks cut 2|1; same fault, detector fenced vs naive",
        columns=["regime", "writers", "storm records", "storm KiB",
                 "repair MTTR ms", "stale write", "reconverged"],
    )
    for name, r in rows.items():
        report.add_row(
            name,
            len(r["writers_in_split"]),
            r["storm_records"],
            round(r["storm_bytes_approx"] / 1024, 1),
            round(r["repair_mttr_s"] * 1e3, 1),
            r["stale_write"] or "accepted silently",
            "yes" if r["reconverged"]
            else "never (views wedged)",
        )
    report.add_note(
        f"fenced: {fenced['storm_records']} records restored "
        f"(exactly the {fenced['expected_lost']} lost copies), stale "
        f"write refused, one view reconverged "
        f"{fenced['reconverge_s']:.2f}s after heal; unfenced: "
        f"{naive['storm_records']} records "
        f"({naive['minority_rereplicated']} of them a minority storm), "
        f"two writers, the stale write silently local-only"
    )
    emit_report(report)

    JSON_OUT.write_text(json.dumps({
        "bench": "partition",
        "ranks": NODES,
        "cut": "2|1",
        "detector": TIMING,
        "regimes": rows,
    }, indent=2) + "\n")

    # one writer, minimal repair, a loud refusal, bounded reconvergence
    assert fenced["writers_in_split"] == [CONDUCTOR]
    assert fenced["storm_records"] == fenced["expected_lost"]
    assert fenced["minority_rereplicated"] == 0
    assert fenced["stale_write"] == "StaleEpochError"
    assert fenced["fenced_rejects"] >= 1
    assert not fenced["owner_sees_stale"]
    assert fenced["reconverged"] and fenced["reconverge_s"] < 30
    # the naive detector: split brain, a storm, silent divergence
    assert len(naive["writers_in_split"]) == 2
    assert naive["minority_rereplicated"] >= 1
    assert naive["storm_records"] > fenced["storm_records"]
    assert naive["stale_write"] is None
    assert not naive["owner_sees_stale"]
    assert not naive["reconverged"]
