"""Exporters for the observability layer.

Three formats, matched to three consumers:

- **JSONL event log** (:func:`export_jsonl` / :func:`read_jsonl`) — one
  JSON object per line (``{"type": "span", ...}`` and
  ``{"type": "metric", ...}``), lossless, grep-able, and round-trippable
  back into span trees;
- **Prometheus text** (:func:`prometheus_text` / :func:`export_prometheus`)
  — the classic exposition format, so campaign counters can be scraped or
  diffed between runs;
- **Chrome trace JSON** (:func:`export_chrome_trace`) — complete ``"X"``
  duration events loadable in ``chrome://tracing`` / Perfetto, one lane
  per (process, thread).
"""

from __future__ import annotations

import json
import math
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple, Union

from repro.obs.metrics import Counter, Gauge, Histogram, MetricsRegistry
from repro.obs.tracing import SpanRecord, Tracer


# -- JSONL event log --------------------------------------------------------


def _metric_events(registry: MetricsRegistry) -> List[Dict[str, object]]:
    events: List[Dict[str, object]] = []
    for metric in registry.metrics():
        if isinstance(metric, Counter):
            events.append(
                {"type": "metric", "kind": "counter",
                 "name": metric.name, "value": metric.value}
            )
        elif isinstance(metric, Gauge):
            events.append(
                {"type": "metric", "kind": "gauge",
                 "name": metric.name, "value": metric.value}
            )
        elif isinstance(metric, Histogram):
            dump = metric.snapshot()  # one lock: counts/sum/count coherent
            events.append(
                {"type": "metric", "kind": "histogram", "name": metric.name,
                 "bounds": dump["bounds"], "counts": dump["counts"],
                 "sum": dump["sum"], "count": dump["count"]}
            )
    return events


def export_jsonl(
    path: Union[str, Path],
    tracer: Tracer,
    registry: Optional[MetricsRegistry] = None,
) -> Path:
    """Write spans (and, optionally, a metrics snapshot) as JSON lines."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    lines: List[str] = []
    for record in tracer.records():
        event = record.to_dict()
        event["type"] = "span"
        lines.append(json.dumps(event, sort_keys=True))
    if registry is not None:
        for event in _metric_events(registry):
            lines.append(json.dumps(event, sort_keys=True))
    path.write_text("\n".join(lines) + ("\n" if lines else ""), encoding="utf-8")
    return path


def read_jsonl(
    path: Union[str, Path],
) -> Tuple[List[SpanRecord], List[Dict[str, object]]]:
    """Parse a JSONL event log back into (span records, metric events)."""
    spans: List[SpanRecord] = []
    metrics: List[Dict[str, object]] = []
    for line in Path(path).read_text(encoding="utf-8").splitlines():
        line = line.strip()
        if not line:
            continue
        event = json.loads(line)
        if event.get("type") == "span":
            spans.append(SpanRecord.from_dict(event))
        elif event.get("type") == "metric":
            metrics.append(event)
    return spans, metrics


def span_tree(records: Sequence[SpanRecord]) -> List[Dict[str, object]]:
    """Nest span records into ``{"name", "attrs", "span_id", "children"}``
    dicts.  Roots and children keep *start order* (monotonic within a
    process), so a tree built from a round-tripped JSONL file compares
    equal to one built from the in-memory records."""
    nodes: Dict[int, Dict[str, object]] = {}
    for record in records:
        nodes[record.span_id] = {
            "span_id": record.span_id,
            "name": record.name,
            "attrs": dict(record.attrs),
            "duration_ns": record.duration_ns,
            "children": [],
        }
    roots: List[Tuple[Tuple[int, int], Dict[str, object]]] = []
    children: Dict[int, List[Tuple[Tuple[int, int], Dict[str, object]]]] = {}
    for record in records:
        key = (record.start_ns, record.span_id)
        if record.parent_id is not None and record.parent_id in nodes:
            children.setdefault(record.parent_id, []).append(
                (key, nodes[record.span_id])
            )
        else:
            roots.append((key, nodes[record.span_id]))
    for parent_id, ordered in children.items():
        nodes[parent_id]["children"] = [
            node for _, node in sorted(ordered, key=lambda item: item[0])
        ]
    return [node for _, node in sorted(roots, key=lambda item: item[0])]


# -- Prometheus exposition format -------------------------------------------


def _prom_name(name: str) -> str:
    out = []
    for ch in name:
        out.append(ch if (ch.isalnum() or ch in "_:") else "_")
    text = "".join(out)
    return "_" + text if text[:1].isdigit() else text


def _prom_value(value: float) -> str:
    if value == math.inf:
        return "+Inf"
    if value == int(value) and abs(value) < 1e15:
        return str(int(value))
    return repr(value)


#: ``# HELP`` text for the metrics the layers publish; anything else gets
#: a generic line (the exposition format requires HELP/TYPE per family).
_METRIC_HELP = {
    "campaign_jobs": "Fault-injection simulations requested.",
    "campaign_rows": "FMEA rows produced (jobs + uninjectable warnings).",
    "campaign_solves": "MNA system solves performed.",
    "campaign_newton_iterations": "Newton iterations across nonlinear solves.",
    "campaign_factorization_reuses": "LU factorizations reused across faults.",
    "campaign_smw_solves": "Sherman-Morrison-Woodbury low-rank fault solves.",
    "campaign_full_rebuilds": "Faults requiring full matrix re-assembly.",
    "campaign_baseline_reuses": "No-op faults served from the healthy baseline.",
    "campaign_job_failures": "Jobs recorded as structured failures.",
    "campaign_resumed_jobs": "Jobs skipped thanks to a checkpoint.",
    "campaign_wall_seconds": "Wall time of the last campaign, seconds.",
    "campaign_baseline_seconds": "Healthy baseline solve time, seconds.",
    "campaign_job_seconds": "Per-injection execution time, seconds.",
    "decisive_fmea_reuses": "DECISIVE Step 4a evaluations served from cache.",
    "service_fmea_reuses":
        "Service FMEDA/search jobs derived from the recorded FMEA.",
}


def _prom_help(name: str) -> str:
    return _METRIC_HELP.get(name, f"repro.obs metric {name}.")


def prometheus_text(registry: MetricsRegistry) -> str:
    """The registry in Prometheus text exposition format.

    Each metric family carries ``# HELP`` and ``# TYPE`` lines; histograms
    expose cumulative ``_bucket`` series ending in ``le="+Inf"`` whose
    count equals ``_count``, plus ``_sum`` — the invariants
    :func:`parse_prometheus_text` checks on the way back in.
    """
    lines: List[str] = []
    for metric in registry.metrics():
        name = _prom_name(metric.name)
        if isinstance(metric, Counter):
            lines.append(f"# HELP {name} {_prom_help(metric.name)}")
            lines.append(f"# TYPE {name} counter")
            lines.append(f"{name} {_prom_value(metric.value)}")
        elif isinstance(metric, Gauge):
            lines.append(f"# HELP {name} {_prom_help(metric.name)}")
            lines.append(f"# TYPE {name} gauge")
            lines.append(f"{name} {_prom_value(metric.value)}")
        elif isinstance(metric, Histogram):
            lines.append(f"# HELP {name} {_prom_help(metric.name)}")
            lines.append(f"# TYPE {name} histogram")
            # One atomic snapshot per histogram: buckets, _sum and _count
            # come from the same instant, so a live scrape racing observe()
            # still satisfies the +Inf == _count invariant.
            dump = metric.snapshot()
            running = 0
            for bound, count in zip(dump["bounds"], dump["counts"]):
                running += count
                lines.append(
                    f'{name}_bucket{{le="{_prom_value(bound)}"}} {running}'
                )
            lines.append(
                f'{name}_bucket{{le="+Inf"}} {dump["count"]}'
            )
            lines.append(f"{name}_sum {repr(dump['sum'])}")
            lines.append(f"{name}_count {dump['count']}")
    return "\n".join(lines) + ("\n" if lines else "")


def parse_prometheus_text(text: str) -> Dict[str, Dict[str, object]]:
    """Parse exposition text back into metric families, with validation.

    Returns ``{family: {"type", "help", "value" | ("buckets", "sum",
    "count")}}``.  Raises ``ValueError`` when the text violates the
    format's invariants: samples without a preceding ``# TYPE``, histogram
    buckets that are not cumulative, a missing ``le="+Inf"`` bucket, or an
    ``+Inf`` bucket disagreeing with ``_count``.
    """
    families: Dict[str, Dict[str, object]] = {}

    def family_of(sample: str) -> Optional[str]:
        for suffix in ("_bucket", "_sum", "_count"):
            base = sample[: -len(suffix)] if sample.endswith(suffix) else None
            if base and families.get(base, {}).get("type") == "histogram":
                return base
        return sample if sample in families else None

    for raw in text.splitlines():
        line = raw.strip()
        if not line:
            continue
        if line.startswith("# HELP "):
            _, _, rest = line.partition("# HELP ")
            name, _, help_text = rest.partition(" ")
            families.setdefault(name, {})["help"] = help_text
            continue
        if line.startswith("# TYPE "):
            _, _, rest = line.partition("# TYPE ")
            name, _, kind = rest.partition(" ")
            families.setdefault(name, {})["type"] = kind.strip()
            continue
        if line.startswith("#"):
            continue
        sample, _, value_text = line.rpartition(" ")
        labels = ""
        if "{" in sample:
            sample, _, labels = sample.partition("{")
            labels = labels.rstrip("}")
        family = family_of(sample)
        if family is None:
            raise ValueError(f"sample {sample!r} has no # TYPE line")
        record = families[family]
        value = float(value_text)
        if record.get("type") == "histogram":
            if sample.endswith("_bucket"):
                le = labels.partition("=")[2].strip('"')
                bound = math.inf if le == "+Inf" else float(le)
                buckets = record.setdefault("buckets", [])
                if buckets and value < buckets[-1][1]:
                    raise ValueError(
                        f"{family}: bucket counts not cumulative at le={le}"
                    )
                buckets.append((bound, int(value)))
            elif sample.endswith("_sum"):
                record["sum"] = value
            elif sample.endswith("_count"):
                record["count"] = int(value)
        else:
            record["value"] = value
    for family, record in families.items():
        if record.get("type") != "histogram":
            continue
        buckets = record.get("buckets", [])
        if not buckets or buckets[-1][0] != math.inf:
            raise ValueError(f'{family}: missing le="+Inf" bucket')
        if "count" in record and buckets[-1][1] != record["count"]:
            raise ValueError(
                f"{family}: +Inf bucket {buckets[-1][1]} != "
                f"_count {record['count']}"
            )
    return families


def export_prometheus(path: Union[str, Path], registry: MetricsRegistry) -> Path:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(prometheus_text(registry), encoding="utf-8")
    return path


# -- Chrome trace JSON ------------------------------------------------------


def chrome_trace_events(records: Sequence[SpanRecord]) -> List[Dict[str, object]]:
    """Complete-duration (``"ph": "X"``) events for ``chrome://tracing``.

    Timestamps are microseconds relative to the earliest span's wall-clock
    epoch; durations stay monotonic-clock exact.
    """
    if not records:
        return []
    base_epoch = min(r.epoch_ns for r in records)
    tids: Dict[Tuple[int, str], int] = {}
    events: List[Dict[str, object]] = []
    for record in records:
        key = (record.pid, record.thread)
        tid = tids.setdefault(key, len(tids) + 1)
        events.append(
            {
                "name": record.name,
                "cat": record.name.split(".", 1)[0],
                "ph": "X",
                "ts": (record.epoch_ns - base_epoch) / 1000.0,
                "dur": record.duration_ns / 1000.0,
                "pid": record.pid,
                "tid": tid,
                "args": dict(record.attrs),
            }
        )
    events.sort(key=lambda e: (e["ts"], e["pid"], e["tid"]))
    return events


def export_chrome_trace(path: Union[str, Path], tracer: Tracer) -> Path:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    payload = {"traceEvents": chrome_trace_events(tracer.records())}
    path.write_text(json.dumps(payload, indent=1), encoding="utf-8")
    return path
