"""The functional data-parallel trainer (§II-A).

Implements the paper's training loop for real: each rank reads its
share of the batch through FanStore, computes gradients on its (tiny
numpy) model replica, averages them with ``allreduce``, and applies the
identical update everywhere — so replicas stay bit-identical, which the
integration tests assert. Epoch boundaries write epoch-numbered
checkpoints (§V-E) and a training log through the FanStore write path
(§II-B3's three output types).

With a ``membership`` detector attached the trainer goes *elastic*:
gradient averaging runs over a point-to-point gather/broadcast rooted
at the lowest non-DEAD rank instead of the world collectives (which
rendezvous with *every* rank of the original cohort and therefore can
never complete once one is dead), so survivors of a mid-run node loss
keep taking steps — the paper's §IV-C2 replication promise carried all
the way up to the training loop. Steps whose reduction ran over fewer
than the full world are counted in ``TrainReport.elastic_steps``.
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from repro.comm.communicator import ANY_SOURCE, Communicator
from repro.comm.fusion import bucketed_allreduce
from repro.errors import (
    CommClosedError,
    CommError,
    RankDeadError,
    ReproError,
)
from repro.fanstore.client import FanStoreClient
from repro.fanstore.faults import CheckpointManager
from repro.fanstore.membership import FailureDetector
from repro.training.loader import Batch, SyncLoader
from repro.training.models import softmax_cross_entropy

#: tag band of the elastic allreduce: step ``s`` gathers on
#: ``base + 2s`` and broadcasts on ``base + 2s + 1`` — far above the
#: daemon's per-rank reply bands (``0x1000 + rank·10⁶``, so ranks would
#: need to exceed ~1073 to reach it) and the membership tags, and never
#: reused, so a straggling message from an abandoned attempt rots
#: harmlessly.
_ELASTIC_TAG_BASE = 0x40000000


@dataclass
class TrainReport:
    """What one rank observed over a training run."""

    iterations: int = 0
    epochs_completed: int = 0
    losses: list[float] = field(default_factory=list)
    bytes_read: int = 0
    wall_seconds: float = 0.0
    resumed_from_epoch: int | None = None
    iteration_seconds: list[float] = field(default_factory=list)
    #: steps whose gradient reduction ran elastically — over fewer
    #: contributors than the launch-time world (a peer was dead or
    #: unreachable), including the solo-fallback case.
    elastic_steps: int = 0

    @property
    def final_loss(self) -> float:
        if not self.losses:
            raise ReproError("no iterations ran")
        return self.losses[-1]

    @property
    def mean_iteration_seconds(self) -> float:
        if not self.iteration_seconds:
            return 0.0
        return sum(self.iteration_seconds) / len(self.iteration_seconds)


#: collate callback: a Batch → (inputs, integer labels) numpy pair.
Collator = Callable[[Batch], tuple[np.ndarray, np.ndarray]]

#: distinct default log names per trainer instance within one process.
_run_counter = itertools.count()


class DataParallelTrainer:
    """SGD with gradient allreduce over the in-process communicator."""

    def __init__(
        self,
        model,
        loader: SyncLoader,
        collate: Collator,
        *,
        comm: Communicator | None = None,
        lr: float = 0.05,
        checkpoints: CheckpointManager | None = None,
        log_client: FanStoreClient | None = None,
        log_path: str | None = None,
        fusion_bytes: int | None = None,
        comm_timeout: float | None = None,
        membership: FailureDetector | None = None,
        elastic_timeout: float = 2.0,
        elastic_deadline: float = 20.0,
        metrics=None,
    ) -> None:
        self.model = model
        self.loader = loader
        self.collate = collate
        self.comm = comm
        self.lr = lr
        self.checkpoints = checkpoints
        self.log_client = log_client
        #: membership view source; when set, gradient averaging runs
        #: over the elastic p2p path (collectives would hang forever on
        #: a dead rank) and checkpoint/log writing falls to the lowest
        #: *non-dead* rank instead of a possibly-dead rank 0.
        self.membership = membership
        #: per-attempt bound inside one elastic reduction (gather wait,
        #: result wait); timing out re-reads the view and re-routes.
        self.elastic_timeout = elastic_timeout
        #: total bound for one step's reduction; past it the rank takes
        #: a solo step with its local gradients rather than failing.
        self.elastic_deadline = elastic_deadline
        # FanStore seals output files at close (single-write model), so
        # each run gets a distinct default log name instead of appending.
        if log_path is None:
            log_path = f"logs/train-{next(_run_counter):04d}.log"
        self.log_path = log_path
        #: §II-A's fusion buffer: gradients allreduce in buckets of this
        #: many bytes. None = one bucket of the whole gradient.
        self.fusion_bytes = fusion_bytes
        #: bound on each gradient allreduce (None = communicator
        #: default). Fault-recovery drills set this low so survivors of
        #: a dead rank abort the epoch in seconds, not at the default
        #: collective timeout.
        self.comm_timeout = comm_timeout
        #: optional :class:`repro.obs.metrics.MetricsRegistry`: when
        #: given (usually ``fanstore.metrics``, so trainer and daemon
        #: share one snapshot), every step is broken into the
        #: ``trainer.{data,compute,allreduce,step}_seconds`` phase
        #: histograms — the paper's "is I/O the bottleneck?" question
        #: answered per run instead of per paper.
        self.metrics = metrics
        self._h_data = self._h_compute = self._h_reduce = self._h_step = None
        self._c_steps = None
        if metrics is not None:
            self._h_data = metrics.histogram("trainer.data_seconds")
            self._h_compute = metrics.histogram("trainer.compute_seconds")
            self._h_reduce = metrics.histogram("trainer.allreduce_seconds")
            self._h_step = metrics.histogram("trainer.step_seconds")
            self._c_steps = metrics.counter("trainer.steps")

    # -- checkpoint plumbing ------------------------------------------------

    def _is_writer(self) -> bool:
        """Whether this rank writes checkpoints and the log: rank 0
        normally, the lowest non-DEAD rank once a membership view says
        rank 0 (or whoever preceded us) is gone — a dead writer must
        not orphan the run's checkpoints. Quorum-gated: the detector's
        :meth:`~repro.fanstore.membership.FailureDetector.elect_writer`
        returns None on the minority side of a partition, so an
        ISOLATED rank never writes — two sides of a split must not
        each elect a writer and clobber the checkpoint stream."""
        if self.comm is None:
            return True
        if self.membership is not None:
            writer = self.membership.elect_writer()
            return writer is not None and self.comm.rank == writer
        return self.comm.rank == 0

    def _save_checkpoint(self, epoch: int) -> None:
        if self.checkpoints is None:
            return
        if self._is_writer():
            self.checkpoints.save(
                epoch, {"params": self.model.get_flat_params().tolist()}
            )

    def _try_resume(self) -> int | None:
        """Restore the latest checkpoint (§V-E); returns its epoch. The
        writer first clears the tmp files of a save that crashed before
        its rename (no other rank saves, so none is live)."""
        if self.checkpoints is None:
            return None
        if self._is_writer():
            self.checkpoints.gc_orphans()
        latest = self.checkpoints.latest()
        if latest is None:
            return None
        self.model.set_flat_params(
            np.asarray(latest.payload["params"], dtype=np.float64)
        )
        return latest.epoch

    # -- the loop -------------------------------------------------------------

    def train(self, *, resume: bool = False) -> TrainReport:
        report = TrainReport()
        start_epoch = -1
        if resume:
            resumed = self._try_resume()
            if resumed is not None:
                start_epoch = resumed
                report.resumed_from_epoch = resumed
        start = time.perf_counter()
        current_epoch: int | None = None
        log_lines: list[str] = []
        prev_end = start
        for batch in self.loader:
            if batch.epoch <= start_epoch:
                prev_end = time.perf_counter()  # skipped batches are not
                continue  # data-wait; skip epochs covered by the checkpoint
            if current_epoch is None:
                current_epoch = batch.epoch
            elif batch.epoch != current_epoch:
                self._on_epoch_end(current_epoch, report, log_lines)
                current_epoch = batch.epoch
            it_start = time.perf_counter()
            x, labels = self.collate(batch)
            loss, grads = self.model.loss_and_gradients(x, labels)
            t_compute = time.perf_counter()
            if self.comm is not None and self.comm.size > 1:
                if self.membership is not None:
                    grads, loss = self._elastic_allreduce(
                        grads, float(loss), report.iterations, report
                    )
                else:
                    kw = {} if self.comm_timeout is None else {
                        "timeout": self.comm_timeout
                    }
                    bucket = self.fusion_bytes
                    if bucket is None:  # monolithic: one bucket
                        bucket = max(grads.nbytes, 1)
                    grads = bucketed_allreduce(self.comm, grads, bucket, **kw)
                    loss = self.comm.allreduce(loss, lambda a, b: a + b, **kw) / self.comm.size
            t_reduce = time.perf_counter()
            self.model.apply_gradients(grads, self.lr)
            report.iterations += 1
            report.losses.append(float(loss))
            report.bytes_read += batch.bytes_read
            it_end = time.perf_counter()
            report.iteration_seconds.append(it_end - it_start)
            if self._h_step is not None:
                # data = time spent inside the loader between iterations
                self._h_data.observe(it_start - prev_end)
                self._h_compute.observe(t_compute - it_start)
                self._h_reduce.observe(t_reduce - t_compute)
                self._h_step.observe(it_end - prev_end)
                self._c_steps.inc()
            prev_end = it_end
        if current_epoch is not None:
            self._on_epoch_end(current_epoch, report, log_lines)
        report.wall_seconds = time.perf_counter() - start
        self._flush_log(log_lines)
        return report

    # -- elastic gradient averaging -----------------------------------------

    def _elastic_allreduce(
        self, grads: np.ndarray, loss: float, step: int, report: TrainReport
    ) -> tuple[np.ndarray, float]:
        """Membership-aware replacement for the gradient ``allreduce``.

        The world collectives rendezvous with every launch-time rank, so
        one corpse stalls them forever; this path instead gathers the
        per-rank ``(grads, loss)`` at a root — the lowest non-DEAD rank
        in the current view — which averages over whoever arrived and
        broadcasts ``(mean_grads, mean_loss, n)`` back. A timeout at any
        point re-reads the view and re-routes (the root itself may have
        just died); past ``elastic_deadline`` the rank takes a solo step
        with its local gradients instead of failing the training step.
        Survivors stay bit-identical with each other because they all
        apply the root's averaged result.
        """
        comm = self.comm
        assert comm is not None and self.membership is not None
        gather_tag = _ELASTIC_TAG_BASE + 2 * step
        result_tag = gather_tag + 1
        deadline = time.monotonic() + self.elastic_deadline
        while True:
            view = self.membership.view
            participants = set(view.non_dead_ranks()) | {comm.rank}
            root = min(participants)
            try:
                if comm.rank == root:
                    return self._elastic_root(
                        grads, loss, participants, gather_tag, result_tag,
                        report,
                    )
                comm.send((grads, loss), root, gather_tag)
                mean_grads, mean_loss, n = comm.recv(
                    root, result_tag, timeout=self.elastic_timeout
                )
                if n < comm.size:
                    report.elastic_steps += 1
                return mean_grads, mean_loss
            except (RankDeadError, CommClosedError):
                raise  # this rank is the corpse / world teardown
            except CommError:
                if time.monotonic() >= deadline:
                    # solo step: local gradients beat a failed run
                    report.elastic_steps += 1
                    return grads, loss
                # re-read the view — the root may have been convicted —
                # and retry on whatever route it now prescribes

    def _elastic_root(
        self,
        grads: np.ndarray,
        loss: float,
        participants: set[int],
        gather_tag: int,
        result_tag: int,
        report: TrainReport,
    ) -> tuple[np.ndarray, float]:
        """Root side of one elastic reduction: gather whoever shows up
        within the attempt budget, average, broadcast back. Late or
        duplicate contributions on the step's tag are harmless — the
        tag is never reused and resends carry identical payloads."""
        comm = self.comm
        assert comm is not None
        contributions: dict[int, tuple[np.ndarray, float]] = {
            comm.rank: (grads, loss)
        }
        expected = participants - set(contributions)
        gather_deadline = time.monotonic() + self.elastic_timeout
        while expected:
            budget = gather_deadline - time.monotonic()
            if budget <= 0:
                break
            try:
                payload, source, _tag = comm.recv_with_status(
                    ANY_SOURCE, gather_tag, timeout=budget
                )
            except (RankDeadError, CommClosedError):
                raise
            except CommError:
                break  # attempt budget spent: average over who arrived
            contributions[source] = payload
            expected.discard(source)
        n = len(contributions)
        mean_grads = sum(g for g, _ in contributions.values()) / n
        mean_loss = sum(l for _, l in contributions.values()) / n
        # broadcast to every participant, contributor or not: a rank
        # whose contribution arrived late still finds this result when
        # it re-routes here, and applies the same update as everyone
        # (its gradients are lost for the step; its replica is not)
        for dest in participants:
            if dest == comm.rank:
                continue
            try:
                comm.send((mean_grads, mean_loss, n), dest, result_tag)
            except (RankDeadError, CommClosedError):
                raise
            except CommError:
                pass  # that peer will retry or take a solo step
        if n < comm.size:
            report.elastic_steps += 1
        return mean_grads, mean_loss

    def _on_epoch_end(
        self, epoch: int, report: TrainReport, log_lines: list[str]
    ) -> None:
        report.epochs_completed += 1
        self._save_checkpoint(epoch)
        log_lines.append(
            f"epoch={epoch} iterations={report.iterations} "
            f"loss={report.losses[-1]:.4f}\n"
        )

    def evaluate(self, loader: SyncLoader) -> tuple[float, float]:
        """Validation pass: mean loss and accuracy over a loader.

        Meant for the *broadcast* partition (§V-B): every node holds the
        full validation set locally, so each rank can evaluate the whole
        thing without any interconnect traffic — rank-identical replicas
        make the result identical everywhere, no reduction needed.
        """
        losses: list[float] = []
        correct = 0
        total = 0
        for batch in loader:
            x, labels = self.collate(batch)
            logits = self.model.forward(x)
            loss, _ = softmax_cross_entropy(logits, labels)
            losses.append(loss)
            correct += int((logits.argmax(axis=1) == labels).sum())
            total += len(labels)
        if total == 0:
            raise ReproError("evaluate() saw no samples")
        return float(np.mean(losses)), correct / total

    def _flush_log(self, log_lines: list[str]) -> None:
        """§II-B3: the write-once log file, through the FanStore path."""
        if self.log_client is None or not log_lines:
            return
        if self._is_writer():
            self.log_client.write_file(
                self.log_path, "".join(log_lines).encode("utf-8")
            )


def make_array_collate(
    feature_shape: Sequence[int], num_classes: int, dtype=np.float64
) -> Collator:
    """A collator for decoders that emit ``(features, label)`` tuples."""

    def _collate(batch: Batch) -> tuple[np.ndarray, np.ndarray]:
        xs = np.stack(
            [np.asarray(s[0], dtype=dtype).reshape(feature_shape) for s in batch.samples]
        )
        ys = np.asarray([int(s[1]) % num_classes for s in batch.samples])
        return xs, ys

    return _collate
