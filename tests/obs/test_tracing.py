"""Request tracing: span mechanics, and the chaos trace drill — one
read followed across three ranks through retry, replica failover, and
a degraded shared-FS re-read, reconstructed from per-rank JSONL."""

from __future__ import annotations

import pytest

from repro.comm.chaos import ChaosWorld, FaultPlan
from repro.comm.launcher import run_parallel
from repro.fanstore.daemon import DaemonConfig
from repro.fanstore.exchange import REPLY_TAG_BASE
from repro.fanstore.store import FanStore, FanStoreOptions
from repro.obs import (
    NULL_SPAN,
    TraceContext,
    Tracer,
    assemble_trace,
    format_trace,
    load_spans,
    trace_ids,
)
from repro.obs.metrics import ObservabilityError

RANKS = 3
#: requester / home / replica casting for the drill: rank 1 reads a
#: file homed on rank 2; with one extra ring partition, rank 0 holds
#: rank 2's block as the announced replica.
REQUESTER, HOME, REPLICA = 1, 2, 0

FAST = dict(
    request_timeout=0.4,
    max_retries=1,
)


class TestSpanMechanics:
    def test_root_span_has_no_parent_and_fresh_trace_id(self):
        tr = Tracer(rank=3)
        with tr.root("client.read") as span:
            assert span.parent_id is None
            assert span.trace_id.startswith("t3-")
            assert span.rank == 3
        assert span.duration_s is not None

    def test_child_spans_nest_through_the_thread_local_stack(self):
        tr = Tracer()
        with tr.root("outer") as outer:
            with tr.span("inner") as inner:
                assert inner.trace_id == outer.trace_id
                assert inner.parent_id == outer.span_id
        names = [s.name for s in tr.finished()]
        assert names == ["inner", "outer"]  # children close first

    def test_span_without_open_parent_is_null(self):
        tr = Tracer()
        assert tr.span("orphan") is NULL_SPAN
        assert not NULL_SPAN
        assert NULL_SPAN.context() is None
        assert NULL_SPAN.tag(x=1) is NULL_SPAN

    def test_maybe_root_respects_sampling(self):
        assert Tracer(sample=0.0).maybe_root("r") is NULL_SPAN
        span = Tracer(sample=1.0).maybe_root("r")
        assert span is not NULL_SPAN
        span.__enter__()
        span.__exit__(None, None, None)

    def test_maybe_root_continues_open_trace_even_unsampled(self):
        tr = Tracer(sample=0.0)
        with tr.root("outer") as outer:
            child = tr.maybe_root("continued")
            assert child is not NULL_SPAN
            with child:
                assert child.trace_id == outer.trace_id

    def test_exception_marks_span_error(self):
        tr = Tracer()
        with pytest.raises(ValueError):
            with tr.root("boom"):
                raise ValueError("x")
        assert tr.finished()[0].error == "ValueError"

    def test_adopt_joins_remote_trace_and_survives_garbage(self):
        server = Tracer(rank=2)
        span = server.adopt(("trace-a", "span-b"), "daemon.serve.fetch")
        with span:
            assert span.trace_id == "trace-a"
            assert span.parent_id == "span-b"
        for garbage in (None, "x", (1, 2), ("a",), ("a", "b", "c"), 17):
            assert server.adopt(garbage, "n") is NULL_SPAN

    def test_context_wire_round_trip(self):
        ctx = TraceContext("t", "s")
        assert TraceContext.from_wire(ctx.as_wire()).trace_id == "t"

    def test_sample_range_checked(self):
        with pytest.raises(ObservabilityError):
            Tracer(sample=1.5)

    def test_finished_buffer_is_bounded(self):
        tr = Tracer(max_spans=4)
        for i in range(10):
            with tr.root(f"s{i}"):
                pass
        names = [s.name for s in tr.finished()]
        assert names == ["s6", "s7", "s8", "s9"]

    def test_export_jsonl_handles_non_json_tags(self, tmp_path):
        tr = Tracer()
        with tr.root("r", path=tmp_path):  # a Path is not JSON-able
            pass
        spans = load_spans([tr.export_jsonl(tmp_path / "t.jsonl")])
        assert spans[0]["tags"]["path"] == str(tmp_path)


class TestReconstruction:
    def _spans(self):
        tr = Tracer(rank=0)
        with tr.root("read") as root:
            with tr.span("fetch"):
                pass
            with tr.span("decompress"):
                pass
        return [s.to_dict() for s in tr.finished()], root.trace_id

    def test_assemble_builds_the_tree(self):
        spans, tid = self._spans()
        tree = assemble_trace(spans, tid)
        assert tree["span"]["name"] == "read"
        assert sorted(c["span"]["name"] for c in tree["children"]) == [
            "decompress", "fetch",
        ]

    def test_orphans_attach_to_root(self):
        spans, tid = self._spans()
        spans.append({
            "kind": "span", "trace_id": tid, "span_id": "z-1",
            "parent_id": "missing", "name": "lost", "rank": 9,
            "start_s": 1e12, "duration_s": 0.0, "error": None, "tags": {},
        })
        tree = assemble_trace(spans, tid)
        assert "lost" in [c["span"]["name"] for c in tree["children"]]

    def test_unknown_trace_raises(self):
        spans, _ = self._spans()
        with pytest.raises(ObservabilityError):
            assemble_trace(spans, "nope")

    def test_format_trace_renders_indented_lines(self):
        spans, tid = self._spans()
        text = format_trace(assemble_trace(spans, tid))
        lines = text.splitlines()
        assert lines[0].startswith("read rank=0")
        assert all(line.startswith("  ") for line in lines[1:])


class TestChaosTraceDrill:
    """The ISSUE acceptance drill: one ``client.read()`` that traverses
    retry → replica failover → degraded shared-FS read must leave ONE
    trace whose spans name every hop and rank, reconstructable from the
    per-rank JSONL exports."""

    def test_trace_follows_read_across_retry_failover_degraded(
        self, prepared_dataset, originals, tmp_path
    ):
        # Drop the first three reply-band messages addressed to the
        # requester: the home rank's two replies (attempt 0 and the
        # retry) and then the replica's one reply. The fourth tier —
        # the degraded shared-FS re-read — needs no reply to lose.
        plan = FaultPlan(101).drop(
            min_tag=REPLY_TAG_BASE, dest=REQUESTER, times=3
        )
        world = ChaosWorld(RANKS, plan)
        config = DaemonConfig(
            extra_partition_budget=1,  # ring copy: rank 0 replicates rank 2
            trace_sample=1.0,
            **FAST,
        )
        out = tmp_path

        def body(comm):
            opts = FanStoreOptions(comm=comm, config=config)
            with FanStore(prepared_dataset, opts) as fs:
                comm.barrier()  # everyone loaded and serving
                result = None
                if comm.rank == REQUESTER:
                    target = next(
                        rec.path
                        for rec in sorted(
                            fs.daemon.metadata.walk_files(),
                            key=lambda r: r.path,
                        )
                        if rec.home_rank == HOME
                        and rec.path not in fs.daemon.backend
                    )
                    data = fs.client.read_file(target)
                    assert data == originals[target]
                    stats = fs.daemon.stats
                    result = (
                        stats.retries,
                        stats.failovers,
                        stats.degraded_reads,
                    )
                comm.barrier()  # serving ranks outlive the drill read
                fs.tracer.export_jsonl(out / f"rank{comm.rank}.traces.jsonl")
                return result

        results = run_parallel(body, RANKS, world=world, timeout=120)
        assert plan.stats.dropped == 3
        retries, failovers, degraded = results[REQUESTER]
        assert retries == 1  # one lost reply re-asked at the home rank
        assert failovers == 1  # the fetch left the home rank once
        assert degraded == 1  # the floor of the ladder answered

        spans = load_spans(
            out / f"rank{r}.traces.jsonl" for r in range(RANKS)
        )
        degraded_spans = [s for s in spans if s["name"] == "fetch.degraded"]
        assert len(degraded_spans) == 1
        tid = degraded_spans[0]["trace_id"]

        mine = [s for s in spans if s["trace_id"] == tid]
        by_name = {}
        for s in mine:
            by_name.setdefault(s["name"], []).append(s)

        # the root: the requester's observed open
        (root,) = by_name["client.read"]
        assert root["rank"] == REQUESTER
        assert root["parent_id"] is None

        # retry tier: two rpc.fetch attempts at the home rank, both
        # errored (their replies were dropped), then one attempt at the
        # replica — every hop a sibling span naming its destination
        rpc = by_name["rpc.fetch"]
        home_attempts = sorted(
            s["tags"]["attempt"] for s in rpc if s["tags"]["dest"] == HOME
        )
        assert home_attempts == [0, 1]
        assert [s["tags"]["dest"] for s in rpc].count(REPLICA) == 1
        assert all(s["error"] for s in rpc)  # every reply was lost
        assert all(s["rank"] == REQUESTER for s in rpc)

        # failover tier: the replica attempt wrapped in its own span
        (replica_span,) = by_name["fetch.replica"]
        assert replica_span["tags"]["rank"] == REPLICA

        # server side: the home rank served twice, the replica once —
        # their spans joined the requester's trace via the wire context
        serves = by_name["daemon.serve.fetch"]
        assert sorted(s["rank"] for s in serves) == [REPLICA, HOME, HOME]
        rpc_ids = {s["span_id"] for s in rpc}
        assert all(s["parent_id"] in rpc_ids for s in serves)

        # floor: the degraded shared-FS read happened on the requester
        assert degraded_spans[0]["rank"] == REQUESTER

        # the whole journey assembles into one tree under the root and
        # renders with every hop visible
        assert tid in trace_ids(spans)
        tree = assemble_trace(spans, tid)
        assert tree["span"]["span_id"] == root["span_id"]
        text = format_trace(tree)
        for name in (
            "client.read",
            "rpc.fetch",
            "fetch.replica",
            "fetch.degraded",
            "daemon.serve.fetch",
        ):
            assert name in text
