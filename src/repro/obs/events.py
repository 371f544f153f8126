"""The ``repro.obs`` event stream: typed, leveled telemetry records.

Spans and metrics answer "what happened" after a run; the event stream
answers "what is happening" *during* one, and is also the operator's log.
Every record is an :class:`Event`: a type, a level (``debug``, ``info``,
``warning`` or ``error``), a payload, the emitting pid and the ambient
correlation id.  Producers — the campaign engine, the recovery ladder,
the DECISIVE loop, the analysis service — publish through
:func:`repro.obs.emit_event`; consumers attach in four ways:

- a **JSONL sink** (:meth:`EventBus.attach_jsonl`) appends one line per
  event, flushed immediately, so ``tail -f`` works mid-campaign;
- a **per-stream export** (:meth:`EventBus.write_jsonl`) writes one
  correlation id's buffered records — the service's per-job log artifact;
- **callback subscribers** (:meth:`EventBus.add_callback`) drive the
  ``--progress`` console renderer in-process;
- **queue subscribers** (:meth:`EventBus.subscribe`) feed the ``/events``
  SSE endpoint, with bounded-buffer replay via ``?since=SEQ``.

The event taxonomy and each type's level are tabled in
``docs/observability.md``.

Everything here is dependency-free and lock-protected; with events disabled
(the default) producers pay a single module-flag check in
:func:`repro.obs.emit_event` and never reach this module.
"""

from __future__ import annotations

import json
import math
import os
import queue
import sys
import threading
import time
from collections import deque
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Mapping, Optional, Union

__all__ = ["Event", "EventBus", "ConsoleProgress", "DEFAULT_BUFFER", "LEVELS"]

#: Replay-buffer depth: enough for the whole event stream of any test-sized
#: campaign and for the recent jobs' per-job streams of a busy service,
#: bounded so week-long service runs cannot grow without limit.
DEFAULT_BUFFER = 4096

#: Severity order.  Unknown levels coerce to ``info``: a typo'd level must
#: never crash an instrumented hot path.
LEVELS = ("debug", "info", "warning", "error")


def _coerce_level(level: object) -> str:
    return level if level in LEVELS else "info"  # type: ignore[return-value]


@dataclass
class Event:
    """One typed, leveled telemetry record.

    ``cid`` is the correlation id of the job/invocation the event belongs
    to (``None`` for uncorrelated emitters).
    """

    seq: int
    type: str
    ts: float  # wall clock (time.time) at emit, for humans and ETAs
    pid: int
    payload: Dict[str, object] = field(default_factory=dict)
    cid: Optional[str] = None
    level: str = "info"  # one of LEVELS

    def to_dict(self) -> Dict[str, object]:
        out: Dict[str, object] = {
            "seq": self.seq,
            "type": self.type,
            "ts": self.ts,
            "pid": self.pid,
            "payload": dict(self.payload),
            "level": self.level,
        }
        if self.cid is not None:
            out["cid"] = self.cid
        return out

    @classmethod
    def from_dict(cls, data: Mapping[str, object]) -> "Event":
        cid = data.get("cid")
        return cls(
            seq=int(data.get("seq", 0)),
            type=str(data["type"]),
            ts=float(data.get("ts", 0.0)),
            pid=int(data.get("pid", 0)),
            payload=dict(data.get("payload", {})),  # type: ignore[arg-type]
            cid=None if cid is None else str(cid),
            level=_coerce_level(data.get("level", "info")),
        )


class EventBus:
    """Thread-safe fan-out of :class:`Event` objects with bounded replay.

    A single bus instance lives per process (module singleton in
    ``repro.obs``).
    """

    def __init__(self, buffer: int = DEFAULT_BUFFER) -> None:
        self._lock = threading.Lock()
        self._seq = 0
        self._buffer: "deque[Event]" = deque(maxlen=buffer)
        #: Correlation-id index over ``_buffer``: per-stream replay without
        #: scanning the whole ring.  Entries share the Event objects with
        #: ``_buffer`` and are trimmed as the ring evicts.
        self._by_cid: Dict[str, "deque[Event]"] = {}
        self._queues: List["tuple[queue.Queue[Event], Optional[str]]"] = []
        self._callbacks: List[Callable[[Event], None]] = []
        self._sink = None
        self._sink_path: Optional[Path] = None
        self._status: Dict[str, object] = {}

    # -- producing ---------------------------------------------------------

    def emit(
        self,
        type_: str,
        payload: Optional[Mapping[str, object]] = None,
        cid: Optional[str] = None,
        level: str = "info",
    ) -> Event:
        """Publish one event (allocating the next sequence number)."""
        ts, pid = time.time(), os.getpid()
        payload, level = dict(payload or {}), _coerce_level(level)
        with self._lock:
            self._seq += 1
            event = Event(
                seq=self._seq, type=type_, ts=ts, pid=pid, payload=payload,
                cid=cid, level=level,
            )
            if (
                self._buffer.maxlen is not None
                and len(self._buffer) == self._buffer.maxlen
                and self._buffer
            ):
                evicted = self._buffer[0]
                if evicted.cid is not None:
                    view = self._by_cid.get(evicted.cid)
                    if view and view[0].seq == evicted.seq:
                        view.popleft()
                    if not view:
                        self._by_cid.pop(evicted.cid, None)
            self._buffer.append(event)
            if cid is not None:
                self._by_cid.setdefault(cid, deque()).append(event)
            self._track_status(event)
            if self._sink is not None:
                try:
                    self._sink.write(json.dumps(event.to_dict(), sort_keys=True) + "\n")
                    self._sink.flush()
                except (OSError, ValueError):
                    self._sink = None  # dead sink: stop writing, keep emitting
            queues = [
                q for q, want in self._queues if want is None or want == cid
            ]
            callbacks = list(self._callbacks)
        for q in queues:
            q.put(event)
        # Callbacks run outside the lock: a slow console renderer must not
        # serialize producers, and a callback that emits would deadlock.
        for callback in callbacks:
            try:
                callback(event)
            except Exception:  # noqa: BLE001 — rendering must never kill a run
                pass
        return event

    #: Bound on the per-campaign `/healthz` progress map: finished entries
    #: are evicted oldest-first past this, so week-long service runs with
    #: thousands of campaigns keep a constant-size health payload.
    MAX_TRACKED_CAMPAIGNS = 16

    @staticmethod
    def _campaign_key(event: Event) -> str:
        """Identity of the campaign a progress event belongs to.

        Campaign events carry the campaign fingerprint; the correlation id
        disambiguates identical campaigns run for different jobs.  Legacy
        emitters with neither collapse onto one shared slot (the pre-keyed
        behaviour)."""
        fingerprint = event.payload.get("fingerprint")
        if event.cid is not None and fingerprint:
            return f"{fingerprint}/{event.cid}"
        if fingerprint:
            return str(fingerprint)
        return event.cid or "-"

    def _track_status(self, event: Event) -> None:
        """Maintain the `/healthz` campaign summary (caller holds the lock).

        Progress is tracked **per campaign** under ``campaigns`` (keyed by
        fingerprint/correlation id, so two campaigns running concurrently
        under the service do not clobber each other); the legacy
        ``campaign`` key aliases the most recently *started* campaign's
        entry."""
        self._status["last_seq"] = event.seq
        self._status["last_type"] = event.type
        self._status["last_ts"] = event.ts
        p = event.payload
        if event.type == "campaign_started":
            info: Dict[str, object] = {
                "active": True,
                "system": p.get("system"),
                "jobs_total": p.get("jobs"),
                "jobs_done": p.get("resumed", 0),
                "eta_seconds": None,
            }
            if p.get("fingerprint"):
                info["fingerprint"] = p.get("fingerprint")
            if event.cid is not None:
                info["correlation_id"] = event.cid
            campaigns = self._status.setdefault("campaigns", {})
            campaigns.pop(self._campaign_key(event), None)  # restart resets
            campaigns[self._campaign_key(event)] = info  # type: ignore[index]
            self._evict_campaigns(campaigns)  # type: ignore[arg-type]
            self._status["campaign"] = info
        elif event.type == "chunk_completed":
            campaign = self._campaign_entry(event)
            campaign["jobs_done"] = p.get("done")
            campaign["jobs_total"] = p.get("total")
            campaign["eta_seconds"] = p.get("eta_seconds")
        elif event.type == "campaign_finished":
            campaign = self._campaign_entry(event)
            campaign["active"] = False
            campaign["eta_seconds"] = 0.0

    def _campaign_entry(self, event: Event) -> Dict[str, object]:
        """The keyed progress entry for ``event``'s campaign (lock held)."""
        campaigns = self._status.setdefault("campaigns", {})
        entry = campaigns.setdefault(  # type: ignore[union-attr]
            self._campaign_key(event), {"active": True}
        )
        if not isinstance(self._status.get("campaign"), dict):
            self._status["campaign"] = entry
        return entry  # type: ignore[return-value]

    @classmethod
    def _evict_campaigns(cls, campaigns: Dict[str, object]) -> None:
        while len(campaigns) > cls.MAX_TRACKED_CAMPAIGNS:
            for key, info in campaigns.items():
                if not (isinstance(info, dict) and info.get("active")):
                    campaigns.pop(key)
                    break
            else:  # all active: drop the oldest
                campaigns.pop(next(iter(campaigns)))

    # -- consuming ---------------------------------------------------------

    def subscribe(
        self, since: int = 0, cid: Optional[str] = None
    ) -> "queue.Queue[Event]":
        """A queue receiving every future event, pre-loaded with the
        buffered events whose ``seq`` is greater than ``since``.

        With ``cid``, the subscription is a **per-stream view**: only
        events carrying that correlation id are replayed (via the
        id-indexed buffer view) and delivered."""
        q: "queue.Queue[Event]" = queue.Queue()
        with self._lock:
            source = self._buffer if cid is None else self._by_cid.get(cid, ())
            for event in source:
                if event.seq > since:
                    q.put(event)
            self._queues.append((q, cid))
        return q

    def unsubscribe(self, q: "queue.Queue[Event]") -> None:
        with self._lock:
            self._queues = [pair for pair in self._queues if pair[0] is not q]

    def add_callback(self, callback: Callable[[Event], None]) -> None:
        with self._lock:
            self._callbacks.append(callback)

    def remove_callback(self, callback: Callable[[Event], None]) -> None:
        with self._lock:
            if callback in self._callbacks:
                self._callbacks.remove(callback)

    def attach_jsonl(self, path: Union[str, Path]) -> Path:
        """Append every event (including the buffered backlog) to ``path``
        as JSON lines, flushed per event."""
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        handle = open(path, "a", encoding="utf-8")
        with self._lock:
            if self._sink is not None:
                try:
                    self._sink.close()
                except OSError:
                    pass
            for event in self._buffer:
                handle.write(json.dumps(event.to_dict(), sort_keys=True) + "\n")
            handle.flush()
            self._sink = handle
            self._sink_path = path
        return path

    def write_jsonl(self, path: Union[str, Path], cid: Optional[str] = None) -> Path:
        """Write the buffered events (with ``cid``, that correlation
        stream's, read through the id index) to ``path`` — the per-job
        ledger-artifact export."""
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        events = self.events(cid=cid)
        with open(path, "w", encoding="utf-8") as handle:
            for event in events:
                handle.write(json.dumps(event.to_dict(), sort_keys=True) + "\n")
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

    # -- inspection / lifecycle -------------------------------------------

    def events(self, since: int = 0, cid: Optional[str] = None) -> List[Event]:
        """Buffered events with ``seq`` greater than ``since`` (replay);
        with ``cid``, only the events of that correlation stream."""
        with self._lock:
            source = self._buffer if cid is None else self._by_cid.get(cid, ())
            return [event for event in source if event.seq > since]

    def last_seq(self) -> int:
        with self._lock:
            return self._seq

    def status(self) -> Dict[str, object]:
        """A summary for `/healthz`: last event + campaign progress."""
        with self._lock:
            out = dict(self._status)
            campaign = out.get("campaign")
            if isinstance(campaign, dict):
                out["campaign"] = dict(campaign)
            campaigns = out.get("campaigns")
            if isinstance(campaigns, dict):
                out["campaigns"] = {
                    key: dict(info) if isinstance(info, dict) else info
                    for key, info in campaigns.items()
                }
            return out

    def clear(self) -> None:
        """Drop buffered events, status and the sequence counter.

        Subscribers, callbacks and an attached sink survive — ``clear`` is
        the per-run reset (`obs.reset`), not a teardown."""
        with self._lock:
            self._buffer.clear()
            self._by_cid.clear()
            self._seq = 0
            self._status = {}


class ConsoleProgress:
    """An :class:`EventBus` callback rendering progress lines to a stream.

    ``chunk_completed`` lines are throttled (default two per second) except
    for the final one.  Attach with
    ``bus.add_callback(ConsoleProgress())``; the CLI wires this behind
    ``--progress``.
    """

    #: Event types rendered; anything else is visible in the JSONL stream /
    #: SSE feed but too noisy for a console.
    RENDERED = (
        "campaign_started",
        "chunk_completed",
        "job_retried",
        "checkpoint_written",
        "campaign_finished",
        "iteration_finished",
    )

    def __init__(self, stream=None, min_interval: float = 0.5) -> None:
        self.stream = stream if stream is not None else sys.stderr
        self.min_interval = min_interval
        self._last_progress = 0.0
        self._chunks_seen = 0

    def __call__(self, event: Event) -> None:
        if event.type not in self.RENDERED:
            return
        p = event.payload
        if event.type == "chunk_completed":
            done, total = p.get("done"), p.get("total")
            final = done is not None and done == total
            self._chunks_seen += 1
            now = time.monotonic()
            if not final and now - self._last_progress < self.min_interval:
                return
            self._last_progress = now
            eta = p.get("eta_seconds")
            # One completed chunk is not a rate: zero- and single-job
            # campaigns (and the first chunk of any campaign) render a
            # placeholder instead of a division-derived 0.0/inf ETA.
            if (
                self._chunks_seen < 2
                or not isinstance(eta, (int, float))
                or isinstance(eta, bool)
                or not math.isfinite(float(eta))
            ):
                eta_text = " eta=--:--"
            else:
                eta_text = f" eta={eta:.1f}s"
            self._write(f"progress {done}/{total}{eta_text}")
        elif event.type == "campaign_started":
            self._chunks_seen = 0
            self._write(
                "campaign started: system={system} analysis={analysis} "
                "jobs={jobs}".format(
                    system=p.get("system"), analysis=p.get("analysis"),
                    jobs=p.get("jobs"),
                )
            )
        elif event.type == "campaign_finished":
            self._write(
                "campaign finished: jobs={jobs} rows={rows} "
                "wall={wall:.2f}s".format(
                    jobs=p.get("jobs"), rows=p.get("rows"),
                    wall=float(p.get("wall_seconds") or 0.0),
                )
            )
        elif event.type == "iteration_finished":
            self._write(
                "iteration {index}: spfm={spfm} asil={asil} met_target={met}".format(
                    index=p.get("index"), spfm=p.get("spfm"),
                    asil=p.get("asil"), met=p.get("met_target"),
                )
            )
        elif event.type == "job_retried":
            self._write(
                "retry job={job} attempt={attempt} error={error}".format(
                    job=p.get("job"), attempt=p.get("attempt"),
                    error=p.get("error"),
                )
            )
        elif event.type == "checkpoint_written":
            self._write(
                "checkpoint: +{written} outcomes -> {path}".format(
                    written=p.get("written"), path=p.get("path"),
                )
            )

    def _write(self, text: str) -> None:
        try:
            self.stream.write(f"[same] {text}\n")
            self.stream.flush()
        except (OSError, ValueError):
            pass
