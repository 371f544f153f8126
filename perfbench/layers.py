"""Per-layer breakdown of a traced run.

Input: the span document ``trace_server.py`` wrote, the client's outcomes and
the ``/metrics`` counter deltas over the timed phase.  Output: the
``per_layer`` metrics of ``BENCHMARK.json`` plus report lines that print every
ratio with its base.

A span's *self time* is its duration minus the time its child spans (same
thread, nested calls) cover.  Times are summed per metric over the traced
slices and divided by the number of jobs sent in those slices (``ms/job``);
counts come from counter deltas over the whole timed phase, divided by every
timed job (``1/job``).
"""

from __future__ import annotations

import statistics
from collections import defaultdict
from typing import Dict, List, Sequence, Tuple

#: Self-time metrics: name -> span names summed.
SELF_TIME = {
    "server.post_ms": ("server.post", "server.read_body"),
    "server.get_ms": ("server.get",),
    "jobs.parse_ms": ("jobs.parse",),
    "jobs.resolve_ms": ("jobs.resolve",),
    "jobs.fingerprint_ms": (
        "jobs.fingerprint", "campaign.fingerprint", "ledger.fingerprint",
    ),
    "jobs.cache_key_ms": ("jobs.cache_key",),
    "jobs.model_digest_ms": ("jobs.model_digest", "ledger.model_digest"),
    "simulink.materialize_ms": ("simulink.materialize", "simulink.to_netlist"),
    "campaign.campaign_ms": ("campaign.init", "campaign.run"),
    "mna.solve_ms": (
        "mna.solve", "mna.solve_full", "mna.compile", "mna.factorize",
    ),
    "fmeda.fmeda_ms": ("fmeda.run",),
    "optimizer.search_ms": ("optimizer.search",),
    "ledger.lookup_ms": ("ledger.lookup",),
    "ledger.record_ms": ("ledger.record",),
    "ledger.append_ms": ("ledger.append",),
    "ledger.attach_ms": ("ledger.attach",),
    "obs.slo_ms": ("obs.slo",),
    "obs.log_export_ms": ("obs.log_export",),
    "obs.emit_ms": ("obs.event", "obs.log"),
}

#: Counter-delta metrics: name -> (/metrics counters summed).
COUNTS = {
    "simulink.model_cache_hits": ("service_model_cache_hits",),
    "campaign.injections": ("campaign_jobs",),
    "campaign.retries": ("campaign_retries",),
    "campaign.job_failures": ("campaign_job_failures",),
    "mna.solves": ("campaign_solves",),
    "mna.newton_iterations": ("campaign_newton_iterations",),
    "mna.smw_solves": ("campaign_smw_solves",),
    "mna.full_rebuilds": ("campaign_full_rebuilds",),
    "optimizer.dp_states": ("optimizer_dp_states",),
    "ledger.index_seeks": ("ledger_index_seeks",),
    "ledger.index_extensions": ("ledger_index_extensions",),
    "ledger.index_rebuilds": ("ledger_index_rebuilds",),
    "ledger.index_fallbacks": ("ledger_index_fallbacks",),
}

#: Span-count metrics (traced slices): name -> span names counted.
SPAN_COUNTS = {
    "mna.factorizations": ("mna.factorize",),
    "obs.events_emitted": ("obs.event",),
}


def self_times(spans) -> List[Tuple[str, float, float, str]]:
    """``(name, self seconds, duration, cid)`` per span."""
    child = defaultdict(float)
    for _, parent, _, start, end, _ in spans:
        if parent:
            child[parent] += end - start
    return [
        (name, (end - start) - child[span_id], end - start, cid or "")
        for span_id, _, name, start, end, cid in spans
    ]


def analyse(
    document: Dict[str, object],
    outcomes: Sequence,
    counters: Dict[str, float],
    closed: bool,
) -> Tuple[Dict[str, Tuple[float, str]], List[str]]:
    """The ``per_layer`` metrics ``{name: (value, unit)}`` and report lines."""
    spans = [tuple(span) for span in document["spans"]]  # type: ignore[union-attr]
    selfs = self_times(spans)
    sent = [o for o in outcomes if o.job_id]
    traced = [o for o in sent if o.traced]
    untraced = [o for o in sent if not o.traced]
    done = [o for o in sent if o.done]
    traced_done = [o for o in traced if o.done]
    n_traced = max(1, len(traced))
    n_all = max(1, len(sent))
    metrics: Dict[str, Tuple[float, str]] = {}
    lines: List[str] = []

    by_name = defaultdict(float)
    calls = defaultdict(int)
    for name, own, _, _ in selfs:
        if name in ("ledger.open",):
            continue
        by_name[name] += own
        calls[name] += 1
    wall_traced = sum(_wall(o) for o in traced_done)
    for metric, names in SELF_TIME.items():
        total = sum(by_name[n] for n in names)
        metrics[metric] = (total * 1e3 / n_traced, "ms/job")
        lines.append(
            f"  {metric:26s} {total * 1e3 / n_traced:9.3f} ms/job  "
            f"self {total * 1e3:9.1f} ms over {len(traced)} traced jobs, "
            f"{sum(calls[n] for n in names)} calls, "
            f"{_share(total, wall_traced)} of server job wall"
        )

    opens = [d for name, _, d, _ in selfs if name == "ledger.open"]
    metrics["ledger.open_ms"] = (
        (opens[-1] * 1e3) if opens else 0.0, "ms"
    )
    lines.append(
        f"  {'ledger.open_ms':26s} {metrics['ledger.open_ms'][0]:9.3f} ms "
        f"(last of {len(opens)} index loads/rebuilds)"
    )

    # Job-level timings from the job records (server clock).
    queue = [_queue(o) for o in done]
    walls = [_wall(o) for o in done]
    metrics["jobs.queue_wait_ms"] = (_mean(queue) * 1e3, "ms")
    metrics["jobs.job_wall_ms"] = (_mean(walls) * 1e3, "ms")

    # Residual: job wall not covered by queue wait or any layer span.
    root_by_cid: Dict[str, Tuple[float, float]] = {}
    for name, own, duration, cid in selfs:
        if name == "jobs.run" and cid:
            root_by_cid[cid] = (own, duration)
    residual = 0.0
    attributed_wall = 0.0
    for o in traced_done:
        cid = str(o.record.get("correlation_id", ""))
        if cid not in root_by_cid:
            continue
        own, duration = root_by_cid[cid]
        wall = _wall(o)
        residual += own + max(0.0, wall - _queue(o) - duration)
        attributed_wall += wall
    share = residual / attributed_wall if attributed_wall else 0.0
    metrics["jobs.unattributed_share"] = (share, "ratio")
    lines.append(
        f"  {'jobs.unattributed_share':26s} {share:9.4f}  "
        f"(residual {residual * 1e3:.1f} ms / server job wall "
        f"{attributed_wall * 1e3:.1f} ms over {len(root_by_cid)} traced jobs)"
    )

    hits = counters.get("service_cache_hits", 0.0)
    misses = counters.get("service_cache_misses", 0.0)
    metrics["jobs.cache_hit_ratio"] = (_ratio(hits, hits + misses), "ratio")
    lines.append(
        f"  {'jobs.cache_hit_ratio':26s} {_ratio(hits, hits + misses):9.4f}  "
        f"(hits {hits:.0f} / lookups {hits + misses:.0f})"
    )
    coalesced = counters.get("service_coalesced_jobs", 0.0)
    metrics["jobs.coalesced"] = (coalesced / n_all, "1/job")
    lines.append(
        f"  {'jobs.coalesced':26s} {coalesced / n_all:9.4f} /job  "
        f"({coalesced:.0f} coalesced / {len(sent)} jobs)"
    )
    campaigns = calls["campaign.run"]
    fingerprints = {
        str(o.record.get("fingerprint")) for o in traced_done
        if not o.cached and not o.coalesced
    }
    metrics["jobs.campaigns_per_fingerprint"] = (
        _ratio(campaigns, len(fingerprints)), "ratio"
    )
    questions = {
        o.key for o in traced_done if not o.cached and not o.coalesced
    }
    lines.append(
        f"  {'jobs.campaigns_per_fingerprint':26s} "
        f"{_ratio(campaigns, len(fingerprints)):9.4f}  "
        f"({campaigns} campaign.run calls / {len(fingerprints)} distinct "
        f"fingerprints computed in traced slices; "
        f"{_ratio(campaigns, len(questions)):.4f} per computed question, "
        f"{len(questions)} questions)"
    )

    for metric, names in COUNTS.items():
        total = sum(counters.get(n, 0.0) for n in names)
        metrics[metric] = (total / n_all, "1/job")
        lines.append(
            f"  {metric:26s} {total / n_all:9.3f} /job  "
            f"({total:.0f} over {len(sent)} jobs)"
        )
    seeks = counters.get("ledger_index_seeks", 0.0)
    lines.append(
        f"  {'ledger seeks per lookup':26s} "
        f"{_ratio(seeks, hits + misses):9.3f}  "
        f"({seeks:.0f} seeks / {calls['ledger.lookup']} traced lookup calls, "
        f"{hits + misses:.0f} service lookups)"
    )
    for metric, names in SPAN_COUNTS.items():
        total = sum(calls[n] for n in names)
        metrics[metric] = (total / n_traced, "1/job")
        lines.append(
            f"  {metric:26s} {total / n_traced:9.3f} /job  "
            f"({total} over {len(traced)} traced jobs)"
        )

    toggles = document.get("toggles") or []
    first = toggles[0][2] if toggles else 0
    retained = int(document.get("tracer_records", 0)) - int(first)
    metrics["obs.spans_retained"] = (retained / n_all, "1/job")
    lines.append(
        f"  {'obs.spans_retained':26s} {retained / n_all:9.2f} /job  "
        f"({retained} tracer records over {len(sent)} jobs)"
    )

    overhead, basis = tracing_overhead(traced, untraced, closed)
    metrics["obs.tracing_overhead"] = (overhead, "ratio")
    lines.append(f"  {'obs.tracing_overhead':26s} {overhead:9.4f}  ({basis})")

    missing = document.get("missing") or []
    if missing:
        lines.append(f"  not traced (entry point absent): {', '.join(missing)}")
    return metrics, lines


def tracing_overhead(traced, untraced, closed: bool) -> Tuple[float, str]:
    """How much slower jobs ran with recording on than off (a ratio - 1).

    Closed loop (one client): ``jobs_per_s(off) / jobs_per_s(on) - 1``,
    i.e. mean client latency on over off.  Open loop, where throughput is
    the offered rate: mean server job wall on over off.
    """
    if closed:
        on = [o.latency for o in traced if o.done]
        off = [o.latency for o in untraced if o.done]
        label = "jobs_per_s untraced {:.2f} vs traced {:.2f}"
    else:
        on = [_wall(o) for o in traced if o.done]
        off = [_wall(o) for o in untraced if o.done]
        label = "jobs/s of service time untraced {:.2f} vs traced {:.2f}"
    if not on or not off:
        return 0.0, "needs traced and untraced slices"
    mean_on, mean_off = statistics.fmean(on), statistics.fmean(off)
    return (
        mean_on / mean_off - 1.0,
        label.format(1 / mean_off, 1 / mean_on)
        + f" (n={len(off)} untraced, {len(on)} traced jobs)",
    )


def _wall(outcome) -> float:
    record = outcome.record
    return float(record["finished_at"]) - float(record["submitted_at"])


def _queue(outcome) -> float:
    record = outcome.record
    return float(record["started_at"]) - float(record["submitted_at"])


def _mean(values) -> float:
    return statistics.fmean(values) if values else 0.0


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _share(part: float, whole: float) -> str:
    return f"{part / whole:6.1%}" if whole else "   n/a"
