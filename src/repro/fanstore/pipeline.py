"""The sizes of the pipelined daemon core.

The paper's throughput argument (Eq. 2) assumes fetch and decompress
*overlap*; the daemon's pipelined scheduler makes that so. Its three
sizes (:data:`PIPELINE_WORKERS`, :data:`MAX_INFLIGHT`,
:data:`BATCH_MAX`) are constants, not options: no workload in this
repository has ever needed a second value.
"""

from __future__ import annotations

#: width of the serve-side worker pool: admitted requests that find the
#: daemon busy are served on this many threads, so the serve loop never
#: blocks on digest-verify or codec work.
PIPELINE_WORKERS = 4

#: bound on admitted requests in flight across the worker pool; at the
#: bound the serve loop stops dispatching but keeps draining and
#: shedding its mailbox, so admission control stays live under a
#: stalled pool.
MAX_INFLIGHT = 32

#: most parked client requests one flush packs into a single batched
#: envelope per destination. Batching is opportunistic: a flush packs
#: whatever already parked behind the busy destination and sends at
#: once (backlog, not waiting, is what fills batches).
BATCH_MAX = 16
