"""MPI-like in-process runtime.

A thread-per-rank :class:`~repro.comm.communicator.Communicator` with
tagged point-to-point messaging and the three collectives FanStore and
the trainer use (``barrier``, ``allgather``, ``allreduce``), the
``mpiexec``-style :func:`~repro.comm.launcher.run_parallel` launcher,
the §V-D virtual-ring transfer pattern, and the seeded fault-injection
layer (:mod:`~repro.comm.chaos`) the resilience tests run on.
"""

from repro.comm.chaos import (
    ChaosCommunicator,
    ChaosStats,
    ChaosWorld,
    FaultPlan,
)
from repro.comm.communicator import (
    ANY_SOURCE,
    ANY_TAG,
    Communicator,
    World,
)
from repro.comm.deadline import Deadline, wire_deadline
from repro.comm.fusion import (
    FusionBuffer,
    bucketed_allreduce,
    modeled_allreduce_seconds,
)
from repro.comm.launcher import ParallelFailure, run_parallel
from repro.comm.ring import ring_exchange, ring_neighbors, ring_replicate

__all__ = [
    "ANY_SOURCE",
    "ANY_TAG",
    "Communicator",
    "World",
    "ChaosCommunicator",
    "ChaosStats",
    "ChaosWorld",
    "Deadline",
    "FaultPlan",
    "wire_deadline",
    "ParallelFailure",
    "run_parallel",
    "ring_exchange",
    "ring_neighbors",
    "ring_replicate",
    "FusionBuffer",
    "bucketed_allreduce",
    "modeled_allreduce_seconds",
]
