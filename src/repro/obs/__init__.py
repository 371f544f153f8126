"""``repro.obs`` — unified tracing + metrics for the whole toolchain.

One dependency-free layer gives every expensive subsystem — the MNA solver,
fault-injection campaigns, the mechanism optimiser, the DECISIVE loop — a
shared vocabulary of **spans** (hierarchical timed regions) and **metrics**
(counters / gauges / histograms), with exporters to JSONL, Prometheus text
and Chrome ``chrome://tracing`` JSON.  See ``docs/observability.md`` for
the span taxonomy and metric names.

Usage::

    from repro import obs

    obs.enable()
    with obs.span("campaign", system="System B") as sp:
        ...
        sp.set(jobs=230)
    obs.counter("campaign_jobs").inc(230)
    obs.export_jsonl("trace.jsonl")

Disabled (the default), :func:`span` returns a shared no-op singleton and
instrumented code costs a single module-flag check — the layer is designed
to stay in the hot paths permanently.

A second, independently-switched plane is the **event stream**: typed,
leveled records (:class:`~repro.obs.events.Event`) on one bounded
:class:`~repro.obs.events.EventBus` (:func:`enable_events` /
:func:`emit_event`).  It drives the ``--progress`` console, the
``--events`` JSONL sink, the ``/events`` SSE feed of the live HTTP server
(:func:`serve_live`, next to ``/metrics`` and ``/healthz``) and the
service's per-job log artifacts; a log line is an event with a level.
A sampling profiler lives in ``repro.obs.profile``.

Spans stay in their own :class:`~repro.obs.tracing.Tracer` rather than on
the event ring: a trace export needs every span of a run, and the span
hot path takes no lock.

Cutting across both planes is the **correlation context**: the
analysis service mints a ``correlation_id`` per job (the CLI per
invocation), installs it with :func:`correlation` /
:func:`set_correlation_id`, and every event, span attribute and ledger
entry emitted underneath carries it.  That is what makes
``/jobs/<id>/events`` per-job streams and per-job log artifacts possible
on a multi-tenant service.
"""

from __future__ import annotations

import threading
import uuid
from contextlib import contextmanager
from pathlib import Path
from typing import Iterator, Optional, Sequence, Union

from repro.obs.export import (
    chrome_trace_events,
    export_chrome_trace as _export_chrome_trace,
    export_jsonl as _export_jsonl,
    export_prometheus as _export_prometheus,
    parse_prometheus_text,
    prometheus_text as _prometheus_text,
    read_jsonl,
    span_tree,
)
from repro.obs.metrics import (
    DEFAULT_TIME_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricError,
    MetricsRegistry,
)
from repro.obs.events import ConsoleProgress, Event, EventBus
from repro.obs.tracing import NOOP_SPAN, Span, SpanRecord, Tracer

__all__ = [
    "enable", "disable", "enabled", "reset",
    "enable_events", "disable_events", "events_enabled",
    "emit_event", "event_bus", "serve_live",
    "mint_correlation_id", "set_correlation_id", "correlation_id",
    "correlation",
    "span", "current_span_id", "current_span_name", "tracer",
    "counter", "gauge", "histogram", "registry",
    "export_jsonl", "export_prometheus", "export_chrome_trace",
    "prometheus_text", "parse_prometheus_text",
    "read_jsonl", "span_tree", "chrome_trace_events",
    "Counter", "Gauge", "Histogram", "MetricsRegistry", "MetricError",
    "Span", "SpanRecord", "Tracer", "NOOP_SPAN", "DEFAULT_TIME_BUCKETS",
    "Event", "EventBus", "ConsoleProgress",
]

_ENABLED: bool = False
_EVENTS_ENABLED: bool = False
_TRACER = Tracer()
_REGISTRY = MetricsRegistry()
_BUS = EventBus()

# -- correlation context ----------------------------------------------------
# Thread-local stack over a process-global default: the service's worker
# threads each run a different job concurrently (thread-local wins), while
# the CLI installs one id per invocation (the global default).

_CID_LOCAL = threading.local()
_CID_GLOBAL: Optional[str] = None


def mint_correlation_id() -> str:
    """A fresh 16-hex-char correlation id (collision-safe per service)."""
    return uuid.uuid4().hex[:16]


def set_correlation_id(cid: Optional[str]) -> None:
    """Install ``cid`` as the process-global default correlation id
    (``None`` clears it).  The CLI calls it once per invocation."""
    global _CID_GLOBAL
    _CID_GLOBAL = None if cid is None else str(cid)


def correlation_id() -> Optional[str]:
    """The ambient correlation id: innermost :func:`correlation` scope on
    this thread, else the process-global default, else ``None``."""
    stack = getattr(_CID_LOCAL, "stack", None)
    if stack:
        return stack[-1]
    return _CID_GLOBAL


@contextmanager
def correlation(cid: Optional[str]) -> Iterator[Optional[str]]:
    """Scope ``cid`` as this thread's correlation id.  ``None`` is a
    no-op passthrough, so callers can thread an optional id untested."""
    if cid is None:
        yield None
        return
    stack = getattr(_CID_LOCAL, "stack", None)
    if stack is None:
        stack = []
        _CID_LOCAL.stack = stack
    stack.append(str(cid))
    try:
        yield str(cid)
    finally:
        stack.pop()

_TRACER.cid_provider = correlation_id


def _span_dropped() -> None:
    counter("obs_spans_dropped").inc()


_TRACER.on_drop = _span_dropped


def enable() -> None:
    """Turn tracing + metrics collection on (module-wide)."""
    global _ENABLED
    _ENABLED = True


def disable() -> None:
    global _ENABLED
    _ENABLED = False


def enabled() -> bool:
    return _ENABLED


def reset() -> None:
    """Drop all collected spans, metrics and buffered events (the enabled
    flags are kept; the correlation context is cleared)."""
    global _CID_GLOBAL
    _TRACER.clear()
    _REGISTRY.reset()
    _BUS.clear()
    _CID_GLOBAL = None


# -- the event stream (independently switched) -------------------------------


def enable_events() -> None:
    """Turn the progress event bus on (module-wide, independent of
    :func:`enable` — tracing without events and events without tracing are
    both valid configurations)."""
    global _EVENTS_ENABLED
    _EVENTS_ENABLED = True


def disable_events() -> None:
    global _EVENTS_ENABLED
    _EVENTS_ENABLED = False


def events_enabled() -> bool:
    return _EVENTS_ENABLED


def emit_event(type_: str, level: str = "info", **payload: object):
    """Publish one typed event at ``level`` (``debug``, ``info``,
    ``warning`` or ``error``) stamped with the ambient correlation id;
    ``None`` (one flag check) when the event stream is disabled — same
    hot-path discipline as :func:`span`."""
    if not _EVENTS_ENABLED:
        return None
    return _BUS.emit(type_, payload, cid=correlation_id(), level=level)


def event_bus() -> EventBus:
    return _BUS


def serve_live(host: str = "127.0.0.1", port: int = 0):
    """Start the live telemetry HTTP server (``/metrics`` ``/healthz``
    ``/events``) on a daemon thread and return it.  Lazy import: the
    stdlib ``http.server`` machinery is only paid for when serving."""
    from repro.obs.live import LiveTelemetryServer

    return LiveTelemetryServer(host, port).start()


# -- tracing ----------------------------------------------------------------


def span(name: str, **attrs: object):
    """Start a span (context manager).  No-op singleton when disabled."""
    if not _ENABLED:
        return NOOP_SPAN
    return _TRACER.span(name, attrs)


def current_span_id() -> Optional[int]:
    if not _ENABLED:
        return None
    return _TRACER.current_span_id()


def current_span_name() -> Optional[str]:
    """Name of the innermost active span on this thread (profiler hook)."""
    if not _ENABLED:
        return None
    return _TRACER.current_span_name()


def tracer() -> Tracer:
    return _TRACER


# -- metrics ----------------------------------------------------------------


def counter(name: str) -> Counter:
    return _REGISTRY.counter(name)


def gauge(name: str) -> Gauge:
    return _REGISTRY.gauge(name)


def histogram(name: str, buckets: Optional[Sequence[float]] = None) -> Histogram:
    return _REGISTRY.histogram(name, buckets)


def registry() -> MetricsRegistry:
    return _REGISTRY


# -- exporters (bound to the module-level tracer/registry) ------------------


def export_jsonl(path: Union[str, Path], include_metrics: bool = True) -> Path:
    return _export_jsonl(
        path, _TRACER, _REGISTRY if include_metrics else None
    )


def export_prometheus(path: Union[str, Path]) -> Path:
    return _export_prometheus(path, _REGISTRY)


def export_chrome_trace(path: Union[str, Path]) -> Path:
    return _export_chrome_trace(path, _TRACER)


def prometheus_text() -> str:
    return _prometheus_text(_REGISTRY)
