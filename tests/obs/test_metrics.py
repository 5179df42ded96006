"""The metrics registry: bucket semantics, binding, snapshots, merge."""

from __future__ import annotations

import json
import math
import threading

import pytest

from repro.fanstore.daemon import DaemonStats
from repro.obs import (
    DEFAULT_LATENCY_EDGES,
    Counter,
    Histogram,
    MetricsRegistry,
    ObservabilityError,
    live_registries,
    load_snapshots,
    merge_snapshots,
)


class TestHistogramBuckets:
    def test_edges_are_sorted_unique_and_span_the_ladder(self):
        edges = DEFAULT_LATENCY_EDGES
        assert list(edges) == sorted(set(edges))
        assert edges[0] == pytest.approx(1e-6)
        assert edges[-1] == 100.0

    def test_value_on_edge_lands_in_that_bucket(self):
        """``le`` semantics: an observation exactly equal to an upper
        edge belongs to that edge's bucket, not the next one."""
        h = Histogram("t", edges=(1.0, 2.0, 5.0))
        h.observe(2.0)
        assert h.buckets == [0, 1, 0, 0]

    def test_value_below_first_edge_lands_in_first_bucket(self):
        h = Histogram("t", edges=(1.0, 2.0, 5.0))
        h.observe(0.001)
        assert h.buckets == [1, 0, 0, 0]

    def test_value_past_last_edge_lands_in_overflow(self):
        h = Histogram("t", edges=(1.0, 2.0, 5.0))
        h.observe(7.5)
        assert h.buckets == [0, 0, 0, 1]
        assert h.max == 7.5

    def test_interior_value_picks_the_ceiling_bucket(self):
        h = Histogram("t", edges=(1.0, 2.0, 5.0))
        h.observe(1.5)  # between 1 and 2 → the le=2 bucket
        assert h.buckets == [0, 1, 0, 0]

    def test_count_sum_min_max_track_observations(self):
        h = Histogram("t", edges=(1.0, 2.0, 5.0))
        for v in (0.5, 2.0, 9.0):
            h.observe(v)
        assert h.count == 3
        assert h.sum == pytest.approx(11.5)
        assert h.min == 0.5
        assert h.max == 9.0
        assert h.mean == pytest.approx(11.5 / 3)

    def test_bad_edges_rejected(self):
        with pytest.raises(ObservabilityError):
            Histogram("t", edges=())
        with pytest.raises(ObservabilityError):
            Histogram("t", edges=(2.0, 1.0))
        with pytest.raises(ObservabilityError):
            Histogram("t", edges=(1.0, 1.0, 2.0))


def test_a_folded_record_is_observe_and_inc():
    """A sampled record folded by the registry leaves every histogram
    and counter as the separate ``observe`` / ``inc`` calls do: buckets
    (the overflow one included), count, min and max exactly, the sum up
    to float rounding. A plan entry with two fields feeds their
    difference."""
    values = [0.0, 3e-6, 2.0, 1e9, 5e-4, 2.0]
    reg = MetricsRegistry()
    fused = [reg.histogram(f"h{i}") for i in range(len(values))]
    span = reg.histogram("span")
    apart = [Histogram(f"h{i}") for i in range(len(values))]
    apart_span = Histogram("span")
    counters = [reg.counter("fused"), Counter("apart")]
    plan = (
        *((h, i, None) for i, h in enumerate(fused)),
        (span, 2, 1),
        (counters[0], len(values), None),
    )
    for _ in range(2):
        reg.samples.append((plan, *values, 7))
        for h, value in zip(apart, values):
            h.observe(value)
        apart_span.observe(values[2] - values[1])
        counters[1].inc(7)
    reg.fold()
    assert not reg.samples
    for got, want in zip([*fused, span], [*apart, apart_span]):
        got, want = got.to_dict(), want.to_dict()
        assert got.pop("sum") == pytest.approx(want.pop("sum"))
        assert got == want
    assert counters[0].value == counters[1].value == 14


def test_a_fold_loses_nothing_that_arrives_while_it_runs():
    """Constructed, not raced: while a fold copies the waiting records,
    a sampler appends one more and a second fold starts on another
    thread. The late record waits for the next fold instead of being
    dropped with the ones copied, and the second fold waits for the
    first instead of folding the same records again."""
    reg = MetricsRegistry()
    h, c = reg.histogram("h"), reg.counter("c")
    plan = ((h, 0, None), (c, 1, None))
    second: list[threading.Thread] = []

    class Interleaved(list):
        def __getitem__(self, index):
            copied = super().__getitem__(index)
            if not second:
                self.append((plan, 3.0, 1))  # a sampler, mid-fold
                second.append(threading.Thread(target=reg.fold))
                second[0].start()
                # a second fold that does not wait would finish here
                second[0].join(timeout=0.2)
            return copied

    reg.samples = Interleaved([(plan, 1.0, 1), (plan, 2.0, 1)])
    reg.fold()
    second[0].join(timeout=10)
    assert not second[0].is_alive()
    assert not reg.samples
    assert (h.count, h.sum, c.value) == (3, 6.0, 3)


class TestHistogramQuantiles:
    def test_quantile_of_empty_histogram_is_zero(self):
        assert Histogram("t").quantile(0.5) == 0.0

    def test_quantile_returns_bucket_upper_edge(self):
        h = Histogram("t", edges=(1.0, 2.0, 5.0))
        for _ in range(9):
            h.observe(0.5)  # le=1 bucket
        h.observe(4.0)  # le=5 bucket
        assert h.quantile(0.5) == 1.0
        assert h.quantile(0.9) == 1.0
        assert h.quantile(1.0) == 5.0

    def test_overflow_quantile_reports_recorded_max(self):
        h = Histogram("t", edges=(1.0,))
        h.observe(123.0)
        assert h.quantile(1.0) == 123.0

    def test_quantile_range_checked(self):
        with pytest.raises(ObservabilityError):
            Histogram("t").quantile(1.5)


class TestRegistry:
    def test_get_or_create_returns_same_object(self):
        reg = MetricsRegistry()
        assert reg.counter("a") is reg.counter("a")
        assert reg.gauge("g") is reg.gauge("g")
        assert reg.histogram("h") is reg.histogram("h")

    def test_kind_clash_raises(self):
        reg = MetricsRegistry()
        reg.counter("x")
        with pytest.raises(ObservabilityError):
            reg.gauge("x")
        with pytest.raises(ObservabilityError):
            reg.histogram("x")

    def test_bound_counter_reads_and_writes_through_stats_field(self):
        """The fold-DaemonStats-in contract: the dataclass field IS the
        counter cell, so hot-path ``stats.x += 1`` and registry reads
        observe the same storage."""
        stats = DaemonStats()
        reg = MetricsRegistry()
        bound = reg.bind_counter("daemon.retries", stats, "retries")
        stats.retries += 3
        assert bound.value == 3
        bound.inc(2)
        assert stats.retries == 5
        assert reg.snapshot().value("daemon.retries") == 5

    def test_bound_counter_requires_existing_attribute(self):
        with pytest.raises(ObservabilityError):
            MetricsRegistry().bind_counter("bad", DaemonStats(), "nope")

    def test_bound_gauge_fn_evaluated_at_snapshot_time(self):
        reg = MetricsRegistry()
        cell = {"v": 1}
        reg.bind_gauge("g", fn=lambda: cell["v"])
        cell["v"] = 42
        assert reg.snapshot().value("g") == 42

    def test_bound_gauge_rejects_both_or_neither_binding(self):
        reg = MetricsRegistry()
        with pytest.raises(ObservabilityError):
            reg.bind_gauge("g1")
        with pytest.raises(ObservabilityError):
            reg.bind_gauge("g2", obj=object(), attr="x", fn=lambda: 0)

    def test_live_registries_tracks_instances(self):
        reg = MetricsRegistry(rank=9)
        assert reg in live_registries()

    def test_contains_len_names(self):
        reg = MetricsRegistry()
        reg.counter("b")
        reg.counter("a")
        assert "a" in reg and "zzz" not in reg
        assert len(reg) == 2
        assert reg.names() == ["a", "b"]


class TestSnapshotRoundTrip:
    def _populated(self, rank):
        reg = MetricsRegistry(rank=rank, label="t")
        reg.counter("c").inc(10 + rank)
        reg.gauge("g").set(rank)
        h = reg.histogram("h", edges=(1.0, 2.0))
        h.observe(0.5)
        h.observe(1.5 + rank)
        return reg

    def test_jsonl_round_trip(self, tmp_path):
        snap = self._populated(0).snapshot()
        path = snap.write_jsonl(tmp_path / "r0.jsonl")
        loaded = load_snapshots([path])
        assert len(loaded) == 1
        back = loaded[0]
        assert back.rank == 0 and back.label == "t"
        assert back.names() == snap.names()
        assert back.value("c") == 10
        assert back.get("h")["buckets"] == snap.get("h")["buckets"]

    def test_lines_are_flat_json_objects(self):
        for line in self._populated(1).snapshot().to_lines():
            obj = json.loads(line)
            assert obj["rank"] == 1
            assert obj["label"] == "t"
            assert obj["type"] in ("counter", "gauge", "histogram")

    def test_load_skips_interleaved_span_and_junk_lines(self, tmp_path):
        path = tmp_path / "mixed.jsonl"
        lines = self._populated(0).snapshot().to_lines()
        lines.insert(0, json.dumps({"kind": "span", "trace_id": "t0-1"}))
        lines.append("not json at all")
        path.write_text("\n".join(lines) + "\n")
        loaded = load_snapshots([path])
        assert len(loaded) == 1
        assert loaded[0].names() == ["c", "g", "h"]

    def test_merge_across_ranks(self, tmp_path):
        paths = []
        for rank in range(3):
            snap = self._populated(rank).snapshot()
            paths.append(snap.write_jsonl(tmp_path / f"r{rank}.jsonl"))
        merged = merge_snapshots(load_snapshots(paths))
        assert merged.rank == -1 and merged.label == "merged"
        assert merged.value("c") == 10 + 11 + 12  # counters sum
        assert merged.value("g") == 2  # gauges keep the max
        h = merged.get("h")  # histograms add bucket-wise
        assert h["count"] == 6
        assert sum(h["buckets"]) == 6
        assert h["min"] == 0.5
        assert h["max"] == 3.5

    def test_merge_rejects_mismatched_edges(self):
        a = MetricsRegistry(rank=0)
        a.histogram("h", edges=(1.0,)).observe(0.5)
        b = MetricsRegistry(rank=1)
        b.histogram("h", edges=(2.0,)).observe(0.5)
        with pytest.raises(ObservabilityError):
            merge_snapshots([a.snapshot(), b.snapshot()])

    def test_render_is_a_parseable_table(self):
        text = self._populated(0).snapshot().render()
        lines = text.splitlines()
        assert lines[0].split() == ["metric", "type", "value"]
        assert any(line.startswith("c ") for line in lines)
        assert any("count=2" in line for line in lines)

    def test_render_prefix_filters(self):
        reg = MetricsRegistry()
        reg.counter("daemon.x").inc()
        reg.counter("cache.y").inc()
        text = reg.snapshot().render(prefix="daemon.")
        assert "daemon.x" in text and "cache.y" not in text


def test_counter_to_dict_shape():
    c = Counter("n")
    c.inc(7)
    assert c.to_dict() == {"name": "n", "type": "counter", "value": 7}


def test_histogram_empty_to_dict_has_null_extremes():
    d = Histogram("h").to_dict()
    assert d["min"] is None and d["max"] is None
    assert math.isinf(Histogram("h").min)
