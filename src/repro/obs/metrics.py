"""Metrics registry: counters, gauges and fixed-bucket histograms.

The campaign engine's :class:`~repro.safety.campaign.CampaignStats` and the
solver's :class:`~repro.circuit.SolveStats` stay plain dataclasses on the
hot path (an int increment is cheaper than any registry lookup); at the end
of a campaign their counters are *published* into this registry, making
them first-class metrics that every exporter — Prometheus text, the JSONL
event log — can see alongside live gauges and histograms.

Histograms are Prometheus-style: a fixed, sorted tuple of upper bounds,
with cumulative counts materialised at export time.  All mutation is
lock-protected.
"""

from __future__ import annotations

import bisect
import threading
from typing import Dict, List, Optional, Sequence, Tuple, Union

#: Default histogram buckets for durations in seconds (solver and campaign
#: job times span ~100 µs to seconds).
DEFAULT_TIME_BUCKETS: Tuple[float, ...] = (
    1e-4, 2.5e-4, 5e-4, 1e-3, 2.5e-3, 5e-3,
    1e-2, 2.5e-2, 5e-2, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0,
)


class MetricError(Exception):
    """Raised on metric-type conflicts or malformed bucket specs."""


class Counter:
    """A monotonically increasing counter."""

    __slots__ = ("name", "_lock", "_value")

    def __init__(self, name: str) -> None:
        self.name = name
        self._lock = threading.Lock()
        self._value = 0.0

    @property
    def value(self) -> float:
        return self._value

    def inc(self, amount: Union[int, float] = 1) -> None:
        if amount < 0:
            raise MetricError(f"counter {self.name!r} cannot decrease")
        with self._lock:
            self._value += amount


class Gauge:
    """A value that can go up and down (last write wins)."""

    __slots__ = ("name", "_lock", "_value")

    def __init__(self, name: str) -> None:
        self.name = name
        self._lock = threading.Lock()
        self._value = 0.0

    @property
    def value(self) -> float:
        return self._value

    def set(self, value: Union[int, float]) -> None:
        with self._lock:
            self._value = float(value)

    def inc(self, amount: Union[int, float] = 1) -> None:
        with self._lock:
            self._value += amount


class Histogram:
    """Fixed-bucket histogram; bucket ``i`` counts values ``<= bounds[i]``
    (exclusive of lower bounds, like Prometheus ``le`` semantics); values
    above the last bound land in the implicit ``+Inf`` bucket."""

    __slots__ = ("name", "bounds", "_lock", "_counts", "_sum", "_count")

    def __init__(self, name: str, buckets: Sequence[float]) -> None:
        bounds = tuple(float(b) for b in buckets)
        if not bounds or list(bounds) != sorted(set(bounds)):
            raise MetricError(
                f"histogram {name!r} buckets must be a sorted, de-duplicated,"
                f" non-empty sequence; got {buckets!r}"
            )
        self.name = name
        self.bounds = bounds
        self._lock = threading.Lock()
        self._counts = [0] * (len(bounds) + 1)  # last slot: +Inf
        self._sum = 0.0
        self._count = 0

    def observe(self, value: Union[int, float]) -> None:
        index = bisect.bisect_left(self.bounds, float(value))
        with self._lock:
            self._counts[index] += 1
            self._sum += value
            self._count += 1

    @property
    def count(self) -> int:
        return self._count

    @property
    def sum(self) -> float:
        return self._sum

    def bucket_counts(self) -> List[int]:
        """Per-bucket (non-cumulative) counts; last entry is ``+Inf``."""
        with self._lock:
            return list(self._counts)

    def snapshot(self) -> Dict[str, object]:
        """Bounds, per-bucket counts, sum and count — read under ONE lock
        acquisition, so a concurrent :meth:`observe` can never produce a
        snapshot whose ``+Inf`` cumulative count disagrees with ``count``
        (the invariant a live ``/metrics`` scrape is validated against)."""
        with self._lock:
            return {
                "bounds": list(self.bounds),
                "counts": list(self._counts),
                "sum": self._sum,
                "count": self._count,
            }

    def quantile(self, q: float) -> float:
        """Bucket-interpolated quantile estimate (Prometheus
        ``histogram_quantile`` semantics): the target rank is located in
        its bucket and linearly interpolated between the bucket's bounds.
        Powers the analysis service's latency summary without retaining
        raw samples.

        The interpolation contract (pinned by
        ``tests/test_obs.py::test_histogram_quantile_*``):

        - an **empty** histogram returns ``0.0`` for every ``q``;
        - the first bucket interpolates from an implicit lower edge of
          ``0.0`` — all mass in the first bucket means ``quantile(1.0)``
          is its upper bound and ``quantile(0.0)`` is ``0.0``;
        - ``q=0`` returns the lower edge of the first *occupied* bucket
          (empty leading buckets are skipped, not interpolated across);
        - ``q=1`` returns the upper bound of the last occupied finite
          bucket;
        - ranks landing in the ``+Inf`` bucket are **clamped** to the last
          finite bound, never extrapolated — a histogram whose mass sits
          entirely above its bounds still answers with ``bounds[-1]``;
        - ``q`` outside ``[0, 1]`` raises :class:`MetricError`."""
        if not 0.0 <= q <= 1.0:
            raise MetricError(f"quantile must be in [0, 1], got {q!r}")
        with self._lock:
            counts = list(self._counts)
            total = self._count
        if total == 0:
            return 0.0
        rank = q * total
        running = 0.0
        for index, count in enumerate(counts[:-1]):
            previous = running
            running += count
            if running >= rank and count > 0:
                lower = self.bounds[index - 1] if index > 0 else 0.0
                upper = self.bounds[index]
                fraction = (rank - previous) / count
                return lower + (upper - lower) * fraction
        return self.bounds[-1]

    def cumulative(self) -> List[Tuple[float, int]]:
        """Prometheus-style ``(le, cumulative_count)`` pairs, +Inf last."""
        with self._lock:
            counts = list(self._counts)
        out: List[Tuple[float, int]] = []
        running = 0
        for bound, count in zip(self.bounds, counts):
            running += count
            out.append((bound, running))
        out.append((float("inf"), running + counts[-1]))
        return out


Metric = Union[Counter, Gauge, Histogram]


class MetricsRegistry:
    """Name → metric, with get-or-create accessors and worker-merge."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._metrics: Dict[str, Metric] = {}

    def _get_or_create(self, name: str, factory) -> Metric:
        with self._lock:
            metric = self._metrics.get(name)
            if metric is None:
                metric = factory()
                self._metrics[name] = metric
            return metric

    def counter(self, name: str) -> Counter:
        metric = self._get_or_create(name, lambda: Counter(name))
        if not isinstance(metric, Counter):
            raise MetricError(f"{name!r} is already a {type(metric).__name__}")
        return metric

    def gauge(self, name: str) -> Gauge:
        metric = self._get_or_create(name, lambda: Gauge(name))
        if not isinstance(metric, Gauge):
            raise MetricError(f"{name!r} is already a {type(metric).__name__}")
        return metric

    def histogram(
        self, name: str, buckets: Optional[Sequence[float]] = None
    ) -> Histogram:
        metric = self._get_or_create(
            name, lambda: Histogram(name, buckets or DEFAULT_TIME_BUCKETS)
        )
        if not isinstance(metric, Histogram):
            raise MetricError(f"{name!r} is already a {type(metric).__name__}")
        return metric

    def metrics(self) -> List[Metric]:
        with self._lock:
            return [self._metrics[name] for name in sorted(self._metrics)]

    def reset(self) -> None:
        with self._lock:
            self._metrics = {}
