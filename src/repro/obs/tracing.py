"""Hierarchical tracing spans (the ``repro.obs`` trace substrate).

A *span* is a named, timed region of execution with key/value attributes;
spans nest, forming a tree per campaign / analysis run.  Design points:

- **monotonic clocks** — durations come from :func:`time.perf_counter_ns`
  (never wall clock); a wall-clock epoch is recorded once per span only so
  exporters can align spans from different processes on a display axis;
- **thread safety** — the active-span stack is thread-local, so spans
  started on different threads nest independently; finished records are
  appended without a lock (``deque.append`` is atomic under the GIL);
- **bounded retention** — finished records live in a ring of
  :data:`SPAN_BUFFER` records, so a long-running service that never
  exports its trace keeps a constant-size tracer; evictions are reported
  through :attr:`Tracer.on_drop`;
- **process safety** — worker processes trace into their own tracer and
  ship finished records back as plain dicts; :meth:`Tracer.ingest` remaps
  span ids and re-parents the worker roots deterministically, so a merged
  trace is identical run-to-run for a fixed chunking;
- **zero cost when disabled** — callers go through :func:`repro.obs.span`,
  which returns the module-level :data:`NOOP_SPAN` singleton without
  touching this module's machinery at all.
"""

from __future__ import annotations

import itertools
import os
import threading
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple

#: Finished spans a tracer retains before evicting the oldest (~8 MB at
#: ~504 B per record).  Sized above the largest traced run in
#: ``benchmarks/``: the full-mode ``bench_perf_injection.py`` with
#: ``BENCH_INJECTION_TRACE`` records 11,362 spans, so every benchmark trace
#: export stays complete.
SPAN_BUFFER = 16384


@dataclass
class SpanRecord:
    """One finished span."""

    span_id: int
    parent_id: Optional[int]
    name: str
    start_ns: int = 0  # perf_counter_ns at entry (process-local, monotonic)
    end_ns: int = 0  # perf_counter_ns at exit
    epoch_ns: int = 0  # time_ns at entry (wall; cross-process alignment only)
    attrs: Dict[str, object] = field(default_factory=dict)
    pid: int = 0
    thread: str = ""

    @property
    def duration_ns(self) -> int:
        return self.end_ns - self.start_ns

    def to_dict(self) -> Dict[str, object]:
        return {
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "name": self.name,
            "start_ns": self.start_ns,
            "end_ns": self.end_ns,
            "epoch_ns": self.epoch_ns,
            "attrs": dict(self.attrs),
            "pid": self.pid,
            "thread": self.thread,
        }

    @classmethod
    def from_dict(cls, payload: Mapping[str, object]) -> "SpanRecord":
        return cls(
            span_id=int(payload["span_id"]),
            parent_id=(
                None
                if payload.get("parent_id") is None
                else int(payload["parent_id"])  # type: ignore[arg-type]
            ),
            name=str(payload["name"]),
            start_ns=int(payload.get("start_ns", 0)),
            end_ns=int(payload.get("end_ns", 0)),
            epoch_ns=int(payload.get("epoch_ns", 0)),
            attrs=dict(payload.get("attrs", {})),  # type: ignore[arg-type]
            pid=int(payload.get("pid", 0)),
            thread=str(payload.get("thread", "")),
        )


class _NoOpSpan:
    """The do-nothing span handed out while tracing is disabled.

    A single shared instance; every method is a no-op returning ``self``,
    so instrumented code costs one flag check and one method call when
    observability is off.
    """

    __slots__ = ()

    def __enter__(self) -> "_NoOpSpan":
        return self

    def __exit__(self, *exc: object) -> bool:
        return False

    def set(self, **attrs: object) -> "_NoOpSpan":
        return self


#: Shared no-op singleton (see :func:`repro.obs.span`).
NOOP_SPAN = _NoOpSpan()


class Span:
    """A live span; use as a context manager."""

    __slots__ = ("_tracer", "record")

    def __init__(self, tracer: "Tracer", record: SpanRecord) -> None:
        self._tracer = tracer
        self.record = record

    def set(self, **attrs: object) -> "Span":
        """Attach/overwrite attributes on the span."""
        self.record.attrs.update(attrs)
        return self

    def __enter__(self) -> "Span":
        record = self.record
        stack = self._tracer._stack()
        record.parent_id = stack[-1][0] if stack else None
        stack.append((record.span_id, record.name))
        record.epoch_ns = time.time_ns()
        record.start_ns = time.perf_counter_ns()
        return self

    def __exit__(self, exc_type: object, exc: object, tb: object) -> bool:
        record = self.record
        record.end_ns = time.perf_counter_ns()
        if exc_type is not None:
            record.attrs.setdefault("error", getattr(exc_type, "__name__", str(exc_type)))
        self._tracer._pop(record.span_id)
        self._tracer._finish(record)
        return False


class Tracer:
    """Collects finished :class:`SpanRecord` objects for one process,
    keeping the newest ``depth`` of them."""

    def __init__(self, depth: int = SPAN_BUFFER) -> None:
        self._lock = threading.Lock()
        self.depth = depth
        self._records: "deque[SpanRecord]" = deque(maxlen=depth)
        # itertools.count.__next__ is atomic under the GIL — id allocation
        # on the span hot path needs no lock.
        self._ids = itertools.count(1)
        self._local = threading.local()
        #: Optional zero-arg callable returning the ambient correlation id
        #: (``repro.obs`` wires its correlation context here).  When set and
        #: returning a value, spans carry a ``correlation_id`` attribute —
        #: stored in ``attrs``, so it survives the worker drain/ingest
        #: re-sequencing like any other attribute.
        self.cid_provider: Optional[Callable[[], Optional[str]]] = None
        #: Optional zero-arg callable run once per record the full ring
        #: evicts (``repro.obs`` counts them in ``obs_spans_dropped``).
        #: The check takes no lock, so concurrent finishes at the moment
        #: the ring fills may go uncounted.
        self.on_drop: Optional[Callable[[], None]] = None

    # -- the thread-local active-span stack -------------------------------
    # Entries are ``(span_id, name)`` tuples: the id drives parenting and
    # the ledger's trace_span linkage; the name lets the sampling profiler
    # label stacks without a lock or a record lookup from a signal handler.

    def _stack(self) -> List[Tuple[int, str]]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = []
            self._local.stack = stack
        return stack

    def _thread_name(self) -> str:
        # Cached per thread: current_thread() is a dict lookup per call,
        # and the name cannot change out from under the running thread.
        name = getattr(self._local, "thread_name", None)
        if name is None:
            name = threading.current_thread().name
            self._local.thread_name = name
        return name

    def current_span_id(self) -> Optional[int]:
        stack = self._stack()
        return stack[-1][0] if stack else None

    def current_span_name(self) -> Optional[str]:
        stack = self._stack()
        return stack[-1][1] if stack else None

    def _push(self, span_id: int, name: str = "") -> None:
        self._stack().append((span_id, name))

    def _pop(self, span_id: int) -> None:
        stack = self._stack()
        # Tolerate exotic exits (generators suspended across spans): pop the
        # id wherever it is, rather than corrupting the stack.
        if stack and stack[-1][0] == span_id:
            stack.pop()
        else:
            for index in range(len(stack) - 1, -1, -1):
                if stack[index][0] == span_id:
                    del stack[index]
                    break

    # -- span lifecycle ---------------------------------------------------

    def span(self, name: str, attrs: Optional[Dict[str, object]] = None) -> Span:
        # The attrs dict is taken over, not copied: the facade builds it
        # fresh from keyword arguments on every call.
        if self.cid_provider is not None:
            cid = self.cid_provider()
            if cid is not None:
                if attrs is None:
                    attrs = {}
                attrs.setdefault("correlation_id", cid)
        record = SpanRecord(
            span_id=next(self._ids),
            parent_id=None,
            name=name,
            attrs=attrs if attrs is not None else {},
            pid=os.getpid(),
            thread=self._thread_name(),
        )
        return Span(self, record)

    def _finish(self, record: SpanRecord) -> None:
        # deque.append is atomic under the GIL; the lock is only needed by
        # operations that swap or iterate the ring (records/drain/clear).
        records = self._records
        if len(records) == self.depth and self.on_drop is not None:
            self.on_drop()
        records.append(record)

    # -- access / merge ---------------------------------------------------

    def records(self) -> List[SpanRecord]:
        """A snapshot of the finished spans (finish order)."""
        with self._lock:
            return list(self._records)

    def drain(self) -> List[SpanRecord]:
        """Pop and return all finished spans (e.g. from a pool worker)."""
        with self._lock:
            records, self._records = self._records, deque(maxlen=self.depth)
            return list(records)

    def clear(self) -> None:
        with self._lock:
            self._records = deque(maxlen=self.depth)

    def ingest(
        self,
        records: Sequence[SpanRecord],
        parent_id: Optional[int] = None,
    ) -> List[SpanRecord]:
        """Merge spans recorded elsewhere (a pool worker) into this tracer.

        Ids are remapped onto this tracer's id space (preserving the given
        order, so the merge is deterministic for a fixed chunk order) and
        parentless spans are re-parented under ``parent_id``.
        """
        with self._lock:
            mapping: Dict[int, int] = {}
            for record in records:
                mapping[record.span_id] = next(self._ids)
            merged: List[SpanRecord] = []
            for record in records:
                clone = SpanRecord(
                    span_id=mapping[record.span_id],
                    parent_id=(
                        mapping.get(record.parent_id, parent_id)
                        if record.parent_id is not None
                        else parent_id
                    ),
                    name=record.name,
                    start_ns=record.start_ns,
                    end_ns=record.end_ns,
                    epoch_ns=record.epoch_ns,
                    attrs=dict(record.attrs),
                    pid=record.pid,
                    thread=record.thread,
                )
                merged.append(clone)
                self._finish(clone)
            return merged
