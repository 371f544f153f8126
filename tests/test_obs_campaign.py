"""Observability ⇄ campaign-engine integration (the PR's acceptance gate).

Running the smoke-sized System B campaign with tracing enabled must yield a
JSONL trace whose per-job span count equals ``CampaignStats.jobs`` and
whose published solver metrics match the ``CampaignStats`` counters
exactly.  Tracing must cost < 5% wall time on that same campaign.
"""

import time

import pytest

from repro import obs
from repro.casestudies import (
    SYSTEM_B_ASSUMED_STABLE,
    build_system_b_simulink,
    power_network_reliability,
)
from repro.cli import main
from repro.obs.metrics import Histogram
from repro.safety.campaign import CampaignStats, FaultInjectionCampaign

#: Smoke-sized System B (matches BENCH_INJECTION_SMOKE=1's rail count).
SMOKE_RAILS = 4


@pytest.fixture(autouse=True)
def clean_obs():
    obs.disable()
    obs.reset()
    yield
    obs.disable()
    obs.reset()


@pytest.fixture(scope="module")
def system_b():
    return (
        build_system_b_simulink(rails=SMOKE_RAILS),
        power_network_reliability(),
    )


def _campaign(system_b, **kwargs):
    model, reliability = system_b
    return FaultInjectionCampaign(
        model, reliability, assume_stable=SYSTEM_B_ASSUMED_STABLE, **kwargs
    )


def _job_spans(records):
    return [r for r in records if r.name == "campaign.job"]


def _assert_counters_match(stats):
    """Published ``campaign_*`` metrics equal the CampaignStats counters."""
    for name in CampaignStats._COUNTER_FIELDS:
        assert obs.counter(f"campaign_{name}").value == getattr(stats, name), name
    assert obs.gauge("campaign_wall_seconds").value == pytest.approx(
        stats.wall_time
    )


def test_serial_trace_job_spans_and_metrics_match_stats(system_b, tmp_path):
    obs.enable()
    result = _campaign(system_b).run()
    stats = result.stats

    records = obs.tracer().records()
    assert len(_job_spans(records)) == stats.jobs
    _assert_counters_match(stats)
    assert obs.histogram("campaign_job_seconds").count == stats.jobs

    # The JSONL file carries the same tree as the in-memory tracer.
    path = obs.export_jsonl(tmp_path / "trace.jsonl")
    spans, metric_events = obs.read_jsonl(path)
    assert len(_job_spans(spans)) == stats.jobs
    tree = obs.span_tree(spans)
    assert tree == obs.span_tree(records)
    assert [node["name"] for node in tree] == ["campaign"]
    campaign_node = tree[0]
    assert [child["name"] for child in campaign_node["children"]] == [
        "campaign.baseline",
        "campaign.enumerate",
        "campaign.execute",
        "campaign.classify",
    ]
    execute_node = campaign_node["children"][2]
    jobs_in_tree = [
        c for c in execute_node["children"] if c["name"] == "campaign.job"
    ]
    assert len(jobs_in_tree) == stats.jobs
    # Exported counters agree with the stats too (exact, not approximate).
    exported = {e["name"]: e for e in metric_events}
    for name in CampaignStats._COUNTER_FIELDS:
        assert exported[f"campaign_{name}"]["value"] == getattr(stats, name)
    assert exported["campaign_job_seconds"]["count"] == stats.jobs


def _per_call_seconds(call, calls=500):
    """CPU seconds of one ``call()``, averaged over ``calls`` calls."""
    obs.reset()
    started = time.process_time()
    for _ in range(calls):
        call()
    return (time.process_time() - started) / calls


def _record_span():
    with obs.span(
        "campaign.job", job=1, component="R1", failure_mode="Open"
    ) as sp:
        sp.set(outcome="ok")


def _record_observation():
    started = time.perf_counter()
    obs.histogram("campaign_job_seconds").observe(
        time.perf_counter() - started
    )


def test_tracing_overhead_below_five_percent(system_b):
    """< 5% overhead with tracing on, on the smoke campaign.

    The tracer's cost is the records it writes: spans and metric updates.
    A traced run gives their count; a tight loop gives each one's CPU cost
    with the same shape as the campaign's (a ``campaign.job``-style span
    with four attributes nested in a parent, a histogram observation of a
    ``perf_counter`` delta).  Count x cost is compared with the untraced
    campaign's ``process_time``.  Each quantity is the floor over rounds
    that interleave the three measurements, so a noisy stretch of the
    machine inflates all of them or none.  This is steady where an A/B of
    two ~30 ms campaigns is not: back-to-back plain campaigns spread by far
    more than 5%.
    """
    campaign = _campaign(system_b)
    obs.enable()
    obs.reset()
    jobs = campaign.run().stats.jobs
    spans = len(obs.tracer().records())
    metrics = obs.registry().metrics()
    observations = sum(
        metric.count for metric in metrics if isinstance(metric, Histogram)
    )
    updates = sum(
        1 for metric in metrics if not isinstance(metric, Histogram)
    )
    assert spans > jobs and observations >= jobs

    plain = span_cost = observe_cost = float("inf")
    for _ in range(10):
        obs.disable()
        started = time.process_time()
        campaign.run()
        plain = min(plain, time.process_time() - started)
        obs.enable()
        with obs.span("campaign.run"):
            span_cost = min(span_cost, _per_call_seconds(_record_span))
        observe_cost = min(observe_cost, _per_call_seconds(_record_observation))
    overhead = spans * span_cost + (observations + updates) * observe_cost
    assert overhead <= plain * 0.05, (plain, spans, observations, overhead)


def test_cli_demo_writes_trace_metrics_and_stats(tmp_path, capsys):
    trace_path = tmp_path / "demo.jsonl"
    metrics_path = tmp_path / "demo.prom"
    code = main(
        [
            "demo",
            "--stats",
            "--trace",
            str(trace_path),
            "--metrics",
            str(metrics_path),
        ]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "campaign statistics" in out
    assert str(trace_path) in out
    assert str(metrics_path) in out

    spans, metric_events = obs.read_jsonl(trace_path)
    assert any(r.name == "campaign" for r in spans)
    job_count = sum(1 for r in spans if r.name == "campaign.job")
    exported = {e["name"]: e for e in metric_events}
    assert exported["campaign_jobs"]["value"] == job_count
    prom_text = metrics_path.read_text()
    assert "# TYPE campaign_jobs counter" in prom_text
    assert "campaign_job_seconds_bucket" in prom_text


def test_cli_chrome_trace_export(tmp_path, capsys):
    import json

    trace_path = tmp_path / "demo_trace.json"
    assert main(["demo", "--trace", str(trace_path)]) == 0
    out = capsys.readouterr().out
    assert "chrome://tracing" in out
    payload = json.loads(trace_path.read_text())
    assert any(e["name"] == "campaign" for e in payload["traceEvents"])
