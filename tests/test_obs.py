"""Unit tests for the ``repro.obs`` observability layer.

Covers the tentpole's core guarantees: span nesting and ordering (including
thread independence and deterministic worker-trace ingest), exact
Prometheus-style histogram bucket semantics, exporter round-trips (a JSONL
file parses back into the same span tree), and the no-op path being truly
state-free when the layer is disabled.
"""

import json
import threading

import pytest

from repro import obs
from repro.obs.metrics import Histogram, MetricError, MetricsRegistry
from repro.obs.tracing import SpanRecord, Tracer


@pytest.fixture(autouse=True)
def clean_obs():
    """Module-level singletons: every test starts and ends disabled+empty."""
    obs.disable()
    obs.reset()
    yield
    obs.disable()
    obs.reset()


# -- spans -------------------------------------------------------------------


def test_disabled_span_is_shared_noop_and_records_nothing():
    assert not obs.enabled()
    span = obs.span("anything", attr=1)
    assert span is obs.NOOP_SPAN
    with span as sp:
        assert sp.set(more=2) is sp
    assert obs.tracer().records() == []
    assert obs.current_span_id() is None


def test_noop_layer_leaves_no_metric_state():
    with obs.span("campaign"):
        pass
    # Counters still work while disabled (publishers guard themselves), but
    # the disabled span path itself must leave the registry untouched.
    assert obs.registry().metrics() == []


def test_span_nesting_and_attrs():
    obs.enable()
    with obs.span("outer", system="B") as outer:
        with obs.span("inner", index=1) as inner:
            inner.set(result="ok")
        outer.set(children=1)
    records = obs.tracer().records()
    assert [r.name for r in records] == ["inner", "outer"]  # finish order
    inner_rec, outer_rec = records
    assert outer_rec.parent_id is None
    assert inner_rec.parent_id == outer_rec.span_id
    assert outer_rec.attrs == {"system": "B", "children": 1}
    assert inner_rec.attrs == {"index": 1, "result": "ok"}
    assert outer_rec.duration_ns >= inner_rec.duration_ns >= 0


def test_sibling_spans_share_parent_and_keep_start_order():
    obs.enable()
    with obs.span("root") as root:
        for index in range(3):
            with obs.span("child", index=index):
                pass
    tree = obs.span_tree(obs.tracer().records())
    assert len(tree) == 1
    assert tree[0]["name"] == "root"
    assert tree[0]["span_id"] == root.record.span_id
    assert [c["attrs"]["index"] for c in tree[0]["children"]] == [0, 1, 2]


def test_span_records_error_attribute_on_exception():
    obs.enable()
    with pytest.raises(ValueError):
        with obs.span("failing"):
            raise ValueError("boom")
    (record,) = obs.tracer().records()
    assert record.attrs["error"] == "ValueError"
    assert record.end_ns >= record.start_ns


def test_span_stacks_are_thread_local():
    obs.enable()
    barrier = threading.Barrier(2)
    seen = {}

    def work(label):
        with obs.span(f"root-{label}"):
            barrier.wait()  # both roots open at once
            with obs.span(f"leaf-{label}"):
                seen[label] = obs.current_span_id()
            barrier.wait()

    threads = [
        threading.Thread(target=work, args=(label,)) for label in ("a", "b")
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    records = {r.name: r for r in obs.tracer().records()}
    assert records["leaf-a"].parent_id == records["root-a"].span_id
    assert records["leaf-b"].parent_id == records["root-b"].span_id
    assert records["root-a"].parent_id is None
    assert records["root-b"].parent_id is None
    assert seen["a"] != seen["b"]


def test_ingest_remaps_ids_and_reparents_deterministically():
    obs.enable()
    # Records exactly as a pool worker would ship them: worker-local ids,
    # roots parentless, one internal parent edge.
    shipped = [
        SpanRecord(span_id=10, parent_id=None, name="job", attrs={"index": 0}),
        SpanRecord(span_id=11, parent_id=10, name="mna.smw_solve"),
        SpanRecord(span_id=20, parent_id=None, name="job", attrs={"index": 1}),
    ]
    with obs.span("campaign.execute") as execute:
        merged = obs.tracer().ingest(shipped, parent_id=execute.record.span_id)
    assert [r.name for r in merged] == ["job", "mna.smw_solve", "job"]
    by_old = dict(zip([10, 11, 20], merged))
    # Parentless worker roots hang under the given parent; internal edges
    # are remapped onto the parent tracer's id space.
    assert by_old[10].parent_id == execute.record.span_id
    assert by_old[20].parent_id == execute.record.span_id
    assert by_old[11].parent_id == by_old[10].span_id
    assert len({r.span_id for r in merged}) == 3

    # Determinism: ingesting the same payload into a fresh tracer twice
    # produces identical id assignments.
    t1, t2 = Tracer(), Tracer()
    ids1 = [r.span_id for r in t1.ingest(shipped)]
    ids2 = [r.span_id for r in t2.ingest(shipped)]
    assert ids1 == ids2


def test_drain_and_ingest_worker_payload_round_trip():
    obs.enable()
    with obs.span("job", index=7):
        pass
    obs.counter("campaign_jobs").inc(1)
    payload = obs.drain_worker_data()
    assert payload is not None
    assert obs.tracer().records() == []  # drained
    obs.reset()
    merged = obs.ingest_worker_data(payload, parent_id=None)
    assert [r.name for r in merged] == ["job"]
    assert merged[0].attrs == {"index": 7}
    assert obs.counter("campaign_jobs").value == 1


def test_tracer_keeps_the_newest_depth_records_and_counts_the_rest():
    tracer = Tracer(depth=4)
    dropped = []
    tracer.on_drop = lambda: dropped.append(1)
    for index in range(10):
        with tracer.span("step", {"index": index}):
            pass
    assert [r.attrs["index"] for r in tracer.records()] == [6, 7, 8, 9]
    assert len(dropped) == 6
    # drain pops the retained window; the ring keeps its depth
    assert [r.attrs["index"] for r in tracer.drain()] == [6, 7, 8, 9]
    assert tracer.records() == []
    # ingest still returns every merged record; the ring keeps the newest
    shipped = [SpanRecord(span_id=i, parent_id=None, name="w") for i in range(6)]
    merged = tracer.ingest(shipped)
    assert len(merged) == 6
    assert tracer.records() == merged[-4:]
    assert len(dropped) == 8


def test_evicted_spans_are_counted_in_obs_spans_dropped(monkeypatch):
    obs.enable()
    monkeypatch.setattr(obs.tracer(), "depth", 3)
    obs.reset()  # rebuilds the ring at the patched depth
    for _ in range(5):
        with obs.span("step"):
            pass
    assert len(obs.tracer().records()) == 3
    assert obs.counter("obs_spans_dropped").value == 2


def test_drain_worker_data_is_none_when_disabled():
    assert obs.drain_worker_data() is None
    assert obs.ingest_worker_data(None) == []


# -- metrics -----------------------------------------------------------------


def test_counter_increments_and_rejects_negatives():
    counter = obs.counter("solves")
    counter.inc()
    counter.inc(41)
    assert counter.value == 42
    with pytest.raises(MetricError):
        counter.inc(-1)


def test_gauge_set_and_inc():
    gauge = obs.gauge("wall_seconds")
    gauge.set(2.5)
    gauge.inc(0.5)
    assert gauge.value == 3.0
    gauge.set(-1)
    assert gauge.value == -1.0


def test_metric_type_conflicts_raise():
    obs.counter("x")
    with pytest.raises(MetricError):
        obs.gauge("x")
    with pytest.raises(MetricError):
        obs.histogram("x")


def test_histogram_bucket_boundaries_follow_le_semantics():
    histogram = Histogram("t", (1.0, 2.0, 5.0))
    for value in (0.5, 1.0):  # <= 1.0
        histogram.observe(value)
    histogram.observe(1.5)  # (1.0, 2.0]
    histogram.observe(2.0)  # exactly on a bound -> that bucket (le)
    histogram.observe(5.0)
    histogram.observe(7.0)  # above the last bound -> +Inf
    assert histogram.bucket_counts() == [2, 2, 1, 1]
    assert histogram.cumulative() == [
        (1.0, 2),
        (2.0, 4),
        (5.0, 5),
        (float("inf"), 6),
    ]
    assert histogram.count == 6
    assert histogram.sum == pytest.approx(0.5 + 1.0 + 1.5 + 2.0 + 5.0 + 7.0)


def test_histogram_quantile_interpolates_within_buckets():
    histogram = Histogram("t", (1.0, 2.0, 5.0))
    for value in (0.5, 1.0, 1.5, 2.0):
        histogram.observe(value)
    # rank 2 of 4 lands at the top of the (0, 1.0] bucket
    assert histogram.quantile(0.5) == pytest.approx(1.0)
    # rank 4 of 4 lands at the top of the (1.0, 2.0] bucket
    assert histogram.quantile(1.0) == pytest.approx(2.0)
    assert histogram.quantile(0.25) == pytest.approx(0.5)


def test_histogram_quantile_edge_cases():
    histogram = Histogram("t", (1.0, 2.0))
    assert histogram.quantile(0.5) == 0.0  # empty
    histogram.observe(10.0)  # +Inf bucket only
    # Ranks in the +Inf bucket clamp to the last finite bound.
    assert histogram.quantile(0.99) == 2.0
    with pytest.raises(MetricError):
        histogram.quantile(1.5)
    with pytest.raises(MetricError):
        histogram.quantile(-0.1)


def test_histogram_quantile_first_bucket_interpolates_from_zero():
    # All mass in the first bucket: the implicit lower edge is 0.0, not
    # the smallest observation.
    histogram = Histogram("t", (4.0, 8.0))
    for _ in range(4):
        histogram.observe(3.0)
    assert histogram.quantile(0.0) == pytest.approx(0.0)
    assert histogram.quantile(0.5) == pytest.approx(2.0)
    assert histogram.quantile(1.0) == pytest.approx(4.0)


def test_histogram_quantile_q0_skips_empty_leading_buckets():
    # q=0 answers the lower edge of the first *occupied* bucket rather
    # than interpolating across empty leading buckets.
    histogram = Histogram("t", (1.0, 2.0, 5.0))
    histogram.observe(3.0)  # lands in (2.0, 5.0]
    assert histogram.quantile(0.0) == pytest.approx(2.0)
    assert histogram.quantile(1.0) == pytest.approx(5.0)


def test_histogram_quantile_q1_ignores_inf_tail():
    # q=1 is the upper bound of the last occupied *finite* bucket; mass
    # in the +Inf bucket clamps every rank it owns to bounds[-1].
    histogram = Histogram("t", (1.0, 2.0))
    histogram.observe(0.5)
    histogram.observe(9.0)  # +Inf bucket
    assert histogram.quantile(0.5) == pytest.approx(1.0)
    assert histogram.quantile(1.0) == pytest.approx(2.0)


def test_histogram_rejects_unsorted_or_empty_buckets():
    with pytest.raises(MetricError):
        Histogram("bad", ())
    with pytest.raises(MetricError):
        Histogram("bad", (2.0, 1.0))
    with pytest.raises(MetricError):
        Histogram("bad", (1.0, 1.0, 2.0))


def test_registry_snapshot_merge_adds_counters_and_histograms():
    registry = MetricsRegistry()
    registry.counter("jobs").inc(3)
    registry.gauge("workers").set(2)
    registry.histogram("secs", (0.1, 1.0)).observe(0.05)
    snap = registry.snapshot()

    parent = MetricsRegistry()
    parent.counter("jobs").inc(10)
    parent.histogram("secs", (0.1, 1.0)).observe(0.5)
    parent.merge(snap)
    parent.merge(snap)  # merging twice adds twice (counters are cumulative)
    assert parent.counter("jobs").value == 16
    assert parent.gauge("workers").value == 2
    histogram = parent.histogram("secs")
    assert histogram.count == 3
    assert histogram.bucket_counts() == [2, 1, 0]

    mismatched = MetricsRegistry()
    mismatched.histogram("secs", (0.2, 2.0))
    with pytest.raises(MetricError):
        mismatched.merge(snap)


def test_gauge_merge_is_last_write_wins_not_summing():
    """Re-merging the same worker snapshot must be idempotent for gauges
    (they are instantaneous readings, not cumulative counters)."""
    worker = MetricsRegistry()
    worker.gauge("campaign_workers").set(4)
    snap = worker.snapshot()

    parent = MetricsRegistry()
    parent.merge(snap)
    parent.merge(snap)
    assert parent.gauge("campaign_workers").value == 4


def test_gauge_merge_keeps_newer_local_write_over_stale_snapshot():
    """A snapshot drained *before* the parent's own write must not clobber
    the newer value when it is merged late (out-of-order worker delta)."""
    worker = MetricsRegistry()
    worker.gauge("campaign_workers").set(1)
    stale = worker.snapshot()  # drained first ...

    parent = MetricsRegistry()
    parent.gauge("campaign_workers").set(2)  # ... written after
    parent.merge(stale)
    assert parent.gauge("campaign_workers").value == 2

    # A genuinely newer snapshot still wins over the older local write.
    worker.gauge("campaign_workers").set(1)
    parent.merge(worker.snapshot())
    assert parent.gauge("campaign_workers").value == 1


def test_gauge_restore_without_timestamp_applies_unconditionally():
    gauge = MetricsRegistry().gauge("legacy")
    gauge.set(7)
    gauge.restore(3, None)  # pre-timestamp snapshot format
    assert gauge.value == 3


# -- exporters ---------------------------------------------------------------


def _sample_trace():
    obs.enable()
    with obs.span("campaign", system="demo"):
        with obs.span("campaign.execute", jobs=2):
            for index in range(2):
                with obs.span("campaign.job", job=index):
                    pass
    obs.counter("campaign_jobs").inc(2)
    obs.gauge("campaign_workers").set(1)
    obs.histogram("campaign_job_seconds", (0.1, 1.0)).observe(0.01)


def test_jsonl_round_trip_reproduces_the_span_tree(tmp_path):
    _sample_trace()
    path = obs.export_jsonl(tmp_path / "trace.jsonl")
    spans, metric_events = obs.read_jsonl(path)
    assert obs.span_tree(spans) == obs.span_tree(obs.tracer().records())
    kinds = {e["name"]: e["kind"] for e in metric_events}
    assert kinds == {
        "campaign_jobs": "counter",
        "campaign_workers": "gauge",
        "campaign_job_seconds": "histogram",
    }
    # Every line is valid standalone JSON (grep-ability contract).
    for line in path.read_text().splitlines():
        assert json.loads(line)["type"] in ("span", "metric")


def test_jsonl_export_without_metrics(tmp_path):
    _sample_trace()
    path = obs.export_jsonl(tmp_path / "spans.jsonl", include_metrics=False)
    spans, metric_events = obs.read_jsonl(path)
    assert len(spans) == 4
    assert metric_events == []


def test_prometheus_text_format():
    _sample_trace()
    text = obs.prometheus_text()
    assert "# TYPE campaign_jobs counter" in text
    assert "campaign_jobs 2" in text
    assert "# TYPE campaign_workers gauge" in text
    assert 'campaign_job_seconds_bucket{le="0.1"} 1' in text
    assert 'campaign_job_seconds_bucket{le="+Inf"} 1' in text
    assert "campaign_job_seconds_count 1" in text


def test_prometheus_export_writes_file(tmp_path):
    _sample_trace()
    path = obs.export_prometheus(tmp_path / "deep" / "metrics.txt")
    assert path.read_text().startswith("# HELP")


def test_chrome_trace_events_are_valid_and_ordered(tmp_path):
    _sample_trace()
    path = obs.export_chrome_trace(tmp_path / "trace.json")
    payload = json.loads(path.read_text())
    events = payload["traceEvents"]
    assert len(events) == 4
    assert {e["ph"] for e in events} == {"X"}
    assert all(e["dur"] >= 0 and e["ts"] >= 0 for e in events)
    assert [e["ts"] for e in events] == sorted(e["ts"] for e in events)
    names = [e["name"] for e in events]
    assert names[0] == "campaign"  # earliest wall-clock start first
    assert {e["cat"] for e in events} == {"campaign"}


def test_reset_clears_spans_and_metrics_but_keeps_enabled():
    _sample_trace()
    assert obs.tracer().records()
    obs.reset()
    assert obs.enabled()
    assert obs.tracer().records() == []
    assert obs.registry().metrics() == []
