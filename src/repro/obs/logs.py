"""Structured, leveled JSONL logs (the third ``repro.obs`` plane).

Spans time regions, events drive progress UIs, metrics aggregate — but
operating the analysis service also needs plain *narrative*: "job X
retried after TimeoutError", "pool worker lost (chunk 2, attempt 1)",
"checkpoint flushed 128 outcomes".  :class:`StructuredLog` collects those
as small typed records that always carry the ambient ``correlation_id``
(see ``repro.obs.correlation``), the emitting pid, and free-form fields —
so one job's log lines can be pulled out of a multi-tenant service run
and attached to its ledger entry as an artifact.

The plane is independently switched (``obs.enable_logs``) and follows the
same discipline as the other planes:

- disabled (the default), producers pay one module-flag check in
  :func:`repro.obs.log` and never reach this module;
- records land in a bounded ring buffer (:data:`DEFAULT_BUFFER`) with an
  optional always-flushed JSONL sink for ``tail -f``;
- pool workers log into their own process-local :class:`StructuredLog`
  and the parent re-sequences drained records via :meth:`ingest` on the
  same per-chunk delta path as spans/metrics/events.
"""

from __future__ import annotations

import json
import os
import threading
import time
from collections import deque
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterable, List, Mapping, Optional, Union

__all__ = ["LogRecord", "StructuredLog", "LEVELS", "DEFAULT_BUFFER"]

#: Severity order (index = rank).  Unknown levels coerce to ``info``:
#: a typo'd level must never crash an instrumented hot path.
LEVELS = ("debug", "info", "warning", "error")

#: Ring depth — mirrors the event bus: ample for any test-sized run,
#: bounded so week-long service runs cannot grow without limit.
DEFAULT_BUFFER = 4096


def _coerce_level(level: str) -> str:
    level = str(level).lower()
    return level if level in LEVELS else "info"


@dataclass
class LogRecord:
    """One structured log line."""

    seq: int
    ts: float  # wall clock (time.time) at emit
    level: str  # one of LEVELS
    message: str
    pid: int
    cid: Optional[str] = None  # correlation id (None when uncorrelated)
    fields: Dict[str, object] = field(default_factory=dict)

    def to_dict(self) -> Dict[str, object]:
        out: Dict[str, object] = {
            "seq": self.seq,
            "ts": self.ts,
            "level": self.level,
            "message": self.message,
            "pid": self.pid,
        }
        if self.cid is not None:
            out["correlation_id"] = self.cid
        if self.fields:
            out["fields"] = dict(self.fields)
        return out

    @classmethod
    def from_dict(cls, data: Mapping[str, object]) -> "LogRecord":
        cid = data.get("correlation_id", data.get("cid"))
        return cls(
            seq=int(data.get("seq", 0)),
            ts=float(data.get("ts", 0.0)),
            level=_coerce_level(str(data.get("level", "info"))),
            message=str(data.get("message", "")),
            pid=int(data.get("pid", 0)),
            cid=None if cid is None else str(cid),
            fields=dict(data.get("fields", {})),  # type: ignore[arg-type]
        )


class StructuredLog:
    """Thread-safe bounded collector of :class:`LogRecord` objects.

    One instance lives per process (module singleton in ``repro.obs``);
    pool workers drain theirs with :meth:`drain_dicts` and the parent
    re-sequences with :meth:`ingest`, preserving origin ts/pid/cid.
    """

    def __init__(self, buffer: int = DEFAULT_BUFFER) -> None:
        self._lock = threading.Lock()
        self._seq = 0
        self._buffer: "deque[LogRecord]" = deque(maxlen=buffer)
        self._sink = None
        self._sink_path: Optional[Path] = None

    # -- producing ---------------------------------------------------------

    def log(
        self,
        level: str,
        message: str,
        cid: Optional[str] = None,
        **fields: object,
    ) -> LogRecord:
        """Append one leveled record stamped with ``cid`` and this pid."""
        return self._append(
            time.time(), _coerce_level(level), str(message), os.getpid(), cid,
            dict(fields),
        )

    def _append(
        self,
        ts: float,
        level: str,
        message: str,
        pid: int,
        cid: Optional[str],
        fields: Dict[str, object],
    ) -> LogRecord:
        with self._lock:
            self._seq += 1
            record = LogRecord(
                seq=self._seq, ts=ts, level=level, message=message,
                pid=pid, cid=cid, fields=fields,
            )
            self._buffer.append(record)
            if self._sink is not None:
                try:
                    self._sink.write(
                        json.dumps(record.to_dict(), sort_keys=True) + "\n"
                    )
                    self._sink.flush()
                except (OSError, ValueError):
                    self._sink = None  # dead sink: stop writing, keep logging
        return record

    # -- consuming ---------------------------------------------------------

    def records(
        self,
        cid: Optional[str] = None,
        min_level: str = "debug",
        since: int = 0,
    ) -> List[LogRecord]:
        """Buffered records, optionally filtered to one correlation stream
        and/or at least ``min_level`` severity."""
        rank = LEVELS.index(_coerce_level(min_level))
        with self._lock:
            return [
                record
                for record in self._buffer
                if record.seq > since
                and (cid is None or record.cid == cid)
                and LEVELS.index(record.level) >= rank
            ]

    def last_seq(self) -> int:
        with self._lock:
            return self._seq

    # -- sinks / export ----------------------------------------------------

    def attach_jsonl(self, path: Union[str, Path]) -> Path:
        """Append every record (including the buffered backlog) to ``path``
        as JSON lines, flushed per record."""
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        handle = open(path, "a", encoding="utf-8")
        with self._lock:
            if self._sink is not None:
                try:
                    self._sink.close()
                except OSError:
                    pass
            for record in self._buffer:
                handle.write(json.dumps(record.to_dict(), sort_keys=True) + "\n")
            handle.flush()
            self._sink = handle
            self._sink_path = path
        return path

    def detach_jsonl(self) -> Optional[Path]:
        with self._lock:
            path, self._sink_path = self._sink_path, None
            sink, self._sink = self._sink, None
        if sink is not None:
            try:
                sink.close()
            except OSError:
                pass
        return path

    def write_jsonl(self, path: Union[str, Path], cid: Optional[str] = None) -> Path:
        """Write the buffered records (optionally one correlation stream)
        to ``path`` — the per-job ledger-artifact export."""
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        records = self.records(cid=cid)
        with open(path, "w", encoding="utf-8") as handle:
            for record in records:
                handle.write(json.dumps(record.to_dict(), sort_keys=True) + "\n")
        return path

    # -- worker shipping ---------------------------------------------------

    def drain_dicts(self) -> List[Dict[str, object]]:
        """Worker side: pop buffered records as picklable dicts (clears the
        buffer — each chunk's delta ships exactly once)."""
        with self._lock:
            records = [record.to_dict() for record in self._buffer]
            self._buffer.clear()
        return records

    def ingest(self, records: Iterable[Mapping[str, object]]) -> List[LogRecord]:
        """Parent side: re-sequence drained worker records onto this log,
        preserving origin ts/pid/cid."""
        merged: List[LogRecord] = []
        for data in records:
            try:
                record = LogRecord.from_dict(data)
            except (KeyError, TypeError, ValueError):
                continue
            merged.append(
                self._append(
                    record.ts, record.level, record.message, record.pid,
                    record.cid, dict(record.fields),
                )
            )
        return merged

    # -- lifecycle ---------------------------------------------------------

    def clear(self) -> None:
        """Drop buffered records and the sequence counter (sink survives —
        this is the per-run reset, not a teardown)."""
        with self._lock:
            self._buffer.clear()
            self._seq = 0
