"""HTTP client side of the benchmark: submit, notification, result fetch.

The client uses at most two threads and two connections at a time:

- the *sender* (the calling thread) submits ``POST /jobs`` and fetches
  ``GET /jobs/<id>``, one connection per request, closed after the reply —
  the way ``urllib`` (and the repository's own ``same slo --url``) talks to
  the service;
- the :class:`Collector` thread holds one ``GET /events`` stream open and
  records when each ``job_finished`` frame arrives, so the sender learns of
  completions without polling.

Latency is measured from a request's due time (closed loop: the moment it is
sent) to the moment its result body has been received.
"""

from __future__ import annotations

import http.client
import json
import socket
import threading
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

#: Seconds a job may take before the client gives up on it.
JOB_TIMEOUT = 120.0
#: Socket timeout for one request.
REQUEST_TIMEOUT = 60.0


@dataclass
class Outcome:
    """What the client saw for one submitted request."""

    index: int
    role: str
    key: str
    kind: str
    case: str
    due: float
    status: int = 0
    job_id: str = ""
    record: Optional[Dict[str, object]] = None
    #: Seconds from due time to result received; None when it never came.
    latency: Optional[float] = None
    #: Seconds the send started after its due time (open loop only).
    late: float = 0.0
    #: Wall-clock (time.time) at which the finish notification arrived.
    notified_at: Optional[float] = None
    result_bytes: int = 0
    error: str = ""
    #: Tracing was switched on while this request ran.
    traced: bool = False
    step: str = ""

    @property
    def done(self) -> bool:
        return self.record is not None and self.record.get("state") == "done"

    @property
    def cached(self) -> bool:
        return bool(self.record and self.record.get("cached"))

    @property
    def coalesced(self) -> bool:
        return bool(self.record and self.record.get("coalesced"))


class Http:
    """One short-lived connection per request against ``host:port``."""

    def __init__(self, host: str, port: int) -> None:
        self.host = host
        self.port = port

    def request(
        self, method: str, path: str, body: Optional[bytes] = None
    ) -> Tuple[int, bytes]:
        conn = http.client.HTTPConnection(
            self.host, self.port, timeout=REQUEST_TIMEOUT
        )
        try:
            conn.connect()
            # The request goes out whole, never held back by Nagle.
            conn.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            headers = {"Connection": "close"}
            if body is not None:
                headers["Content-Type"] = "application/json"
            conn.request(method, path, body, headers)
            response = conn.getresponse()
            return response.status, response.read()
        finally:
            conn.close()

    def post_job(self, body: bytes) -> Tuple[int, Dict[str, object]]:
        status, raw = self.request("POST", "/jobs", body)
        try:
            return status, json.loads(raw)
        except ValueError:
            return status, {"error": raw[:200].decode("utf-8", "replace")}

    def get_job(self, job_id: str) -> Tuple[bytes, float]:
        """The raw job record and the moment it had fully arrived."""
        status, raw = self.request("GET", f"/jobs/{job_id}")
        received = time.perf_counter()
        if status != 200:
            raise OSError(f"GET /jobs/{job_id} answered {status}")
        return raw, received

    def counters(self) -> Dict[str, float]:
        """Every unlabelled sample of the ``/metrics`` scrape."""
        status, raw = self.request("GET", "/metrics")
        if status != 200:
            raise OSError(f"GET /metrics answered {status}")
        out: Dict[str, float] = {}
        for line in raw.decode("utf-8").splitlines():
            if not line or line.startswith("#") or "{" in line:
                continue
            name, _, value = line.partition(" ")
            try:
                out[name] = float(value)
            except ValueError:
                continue
        return out

    def healthy(self) -> bool:
        try:
            status, _ = self.request("GET", "/healthz")
        except OSError:
            return False
        return status == 200


class Collector(threading.Thread):
    """Reads the ``/events`` SSE stream; records ``job_finished`` arrivals."""

    def __init__(self, host: str, port: int) -> None:
        super().__init__(name="perfbench-events", daemon=True)
        self._sock = socket.create_connection((host, port), timeout=10.0)
        self._sock.sendall(
            f"GET /events HTTP/1.1\r\nHost: {host}:{port}\r\n\r\n".encode()
        )
        self._stream = self._sock.makefile("rb")
        status = self._stream.readline()
        if b" 200 " not in status:
            raise OSError(f"/events answered {status!r}")
        while self._stream.readline() not in (b"\r\n", b"\n", b""):
            pass
        self._sock.settimeout(None)
        self.cond = threading.Condition()
        self.finished: Dict[str, float] = {}
        self.closed = False

    def run(self) -> None:
        event = b""
        try:
            for line in self._stream:
                if line.startswith(b"event: "):
                    event = line[7:].strip()
                elif line.startswith(b"data: ") and event == b"job_finished":
                    arrived = time.time()
                    job = json.loads(line[6:])["payload"]["job"]
                    with self.cond:
                        self.finished[job] = arrived
                        self.cond.notify_all()
        except (OSError, ValueError):
            pass
        finally:
            with self.cond:
                self.closed = True
                self.cond.notify_all()

    def wait(self, job_id: str, timeout: float) -> Optional[float]:
        deadline = time.monotonic() + timeout
        with self.cond:
            while job_id not in self.finished and not self.closed:
                left = deadline - time.monotonic()
                if left <= 0:
                    return None
                self.cond.wait(left)
            return self.finished.get(job_id)

    def stop(self) -> None:
        try:
            self._sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        self._sock.close()
        self.join(timeout=10.0)


def _fetch(http_: Http, outcome: Outcome, notified: float, start: float) -> None:
    outcome.notified_at = notified
    try:
        raw, received = http_.get_job(outcome.job_id)
        outcome.record = json.loads(raw)
    except (OSError, ValueError) as exc:
        outcome.error = f"fetch failed: {exc}"
        return
    outcome.result_bytes = len(raw)
    outcome.latency = received - start - outcome.due


def _submit(http_: Http, outcome: Outcome, body: bytes) -> bool:
    try:
        outcome.status, reply = http_.post_job(body)
    except OSError as exc:
        outcome.error = f"submit failed: {exc}"
        return False
    if outcome.status != 202:
        outcome.error = f"refused with {outcome.status}: {reply.get('error')}"
        return False
    outcome.job_id = str(reply["id"])
    return True


def run_closed(
    http_: Http,
    collector: Collector,
    requests,
    first_index: int = 0,
    traced: bool = False,
) -> List[Outcome]:
    """Send ``requests`` one at a time, each after the previous answered."""
    outcomes = []
    for offset, request in enumerate(requests):
        start = time.perf_counter()
        outcome = Outcome(
            index=first_index + offset, role=request.role, key=request.key,
            kind=request.kind, case=request.case, due=0.0, traced=traced,
        )
        outcomes.append(outcome)
        if not _submit(http_, outcome, request.body):
            continue
        notified = collector.wait(outcome.job_id, JOB_TIMEOUT)
        if notified is None:
            outcome.error = "timed out"
            continue
        _fetch(http_, outcome, notified, start)
    return outcomes


@dataclass
class OpenLoopResult:
    outcomes: List[Outcome] = field(default_factory=list)
    #: Jobs still unanswered when each step's last request was sent.
    backlog: Dict[str, int] = field(default_factory=dict)
    #: The step after which sending stopped early ("" when all were sent).
    stopped_after: str = ""
    elapsed: float = 0.0


def run_open(
    http_: Http,
    collector: Collector,
    schedule,
    backlog_ok,
    on_slice=None,
    slice_seconds: float = 1.0,
) -> OpenLoopResult:
    """Send each request at its due time regardless of completions.

    One thread both sends (first priority, at the due time) and fetches the
    results the collector has announced (in between).  When a step ends,
    ``backlog_ok(step, unanswered)`` decides whether the next step is sent;
    the first step that leaves a growing queue ends sending, and the backlog
    drains.  ``on_slice(index)`` is called at each ``slice_seconds``
    boundary of the schedule and returns whether tracing is now on.
    """
    result = OpenLoopResult()
    pending: Dict[str, Outcome] = {}
    start = time.perf_counter()
    position = 0
    step_now = ""
    slice_index = -1
    traced = False

    def fetch_ready(wait: float) -> None:
        """Fetch every announced result; if none, wait up to ``wait`` s for
        an announcement (checked under the lock, so none is missed)."""
        with collector.cond:
            ready = [
                (job, collector.finished[job])
                for job in pending if job in collector.finished
            ]
            if not ready and wait > 0:
                collector.cond.wait(wait)
        for job, notified in ready:
            _fetch(http_, pending.pop(job), notified, start)

    while position < len(schedule) or pending:
        t = time.perf_counter() - start
        if position < len(schedule):
            due, request, step = schedule[position]
            if t >= due:
                if step != step_now and step_now:
                    result.backlog[step_now] = len(pending)
                    if not backlog_ok(step_now, len(pending)):
                        result.stopped_after = step_now
                        position = len(schedule)
                        continue
                step_now = step
                if on_slice is not None and int(due // slice_seconds) != slice_index:
                    slice_index = int(due // slice_seconds)
                    traced = bool(on_slice(slice_index))
                outcome = Outcome(
                    index=position, role=request.role, key=request.key,
                    kind=request.kind, case=request.case, due=due,
                    late=t - due, traced=traced, step=step,
                )
                result.outcomes.append(outcome)
                if _submit(http_, outcome, request.body):
                    pending[outcome.job_id] = outcome
                position += 1
                if position == len(schedule):
                    result.backlog[step_now] = len(pending)
                continue
            fetch_ready(min(due - t, 0.05))
            continue
        for job in [
            job for job, outcome in pending.items()
            if t - outcome.due > JOB_TIMEOUT or collector.closed
        ]:
            pending.pop(job).error = "timed out"
        fetch_ready(0.05)
    result.elapsed = time.perf_counter() - start
    return result
