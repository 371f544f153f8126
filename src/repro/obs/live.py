"""Live telemetry HTTP server: ``/metrics``, ``/healthz``, ``/events``.

A dependency-free, threaded stdlib server that makes a running analysis
inspectable while it executes — the substrate for the always-on SAME
service (ROADMAP item 1).  Three endpoints:

- ``GET /metrics`` — the :class:`~repro.obs.metrics.MetricsRegistry`
  rendered live as Prometheus text exposition (the same bytes
  ``obs.prometheus_text()`` produces post-run; histogram reads are atomic,
  so a mid-campaign scrape still satisfies ``parse_prometheus_text``);
- ``GET /healthz`` — JSON liveness: process uptime, observability flags,
  solver backend, and the event bus's campaign summary
  (jobs done/total + ETA);
- ``GET /events`` — Server-Sent Events stream of the
  :class:`~repro.obs.events.EventBus`.  ``?since=SEQ`` (or the standard
  ``Last-Event-ID`` request header an ``EventSource`` sends on reconnect;
  the query parameter wins when both are present) replays the bounded
  buffer from a sequence number; ``?limit=N`` closes the stream after N
  events (curl/test friendly).  Idle keepalive comments every few seconds
  hold proxies open.

The server runs daemon-threaded next to the analysis (`--serve HOST:PORT`
on the CLI, or :func:`repro.obs.serve_live` programmatically); ``port=0``
binds an ephemeral port, reported by :attr:`LiveTelemetryServer.address`.
Handlers only *read* shared state — all mutation stays with the analysis
thread, so serving adds no locking to the hot path.
"""

from __future__ import annotations

import json
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Dict, Optional, Tuple
from urllib.parse import parse_qs, urlparse

__all__ = ["LiveTelemetryServer"]

#: Seconds between SSE keepalive comments while no events arrive.
_KEEPALIVE_SECONDS = 5.0


def _backend_status() -> Dict[str, object]:
    try:
        from repro.circuit.backends import BACKENDS, default_backend
        return {"default": default_backend(), "available": list(BACKENDS)}
    except Exception:  # noqa: BLE001
        return {}


class _Handler(BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"
    server_version = "same-live/1"
    # Headers and body go out in separate writes; with Nagle on, the body
    # waits for the client's delayed ACK (~40 ms) on keep-alive connections.
    disable_nagle_algorithm = True

    # The ThreadingHTTPServer instance carries a backref to the telemetry
    # server object (set in LiveTelemetryServer.start).
    @property
    def telemetry(self) -> "LiveTelemetryServer":
        return self.server.telemetry  # type: ignore[attr-defined]

    def log_message(self, format: str, *args: object) -> None:  # noqa: A002
        pass  # scrapes every few seconds must not spam the console

    def do_GET(self) -> None:  # noqa: N802 — BaseHTTPRequestHandler API
        parsed = urlparse(self.path)
        try:
            if parsed.path == "/metrics":
                self._serve_metrics()
            elif parsed.path == "/healthz":
                self._serve_healthz()
            elif parsed.path == "/events":
                self._serve_events(parse_qs(parsed.query))
            else:
                self._respond(404, "text/plain; charset=utf-8", b"not found\n")
        except (BrokenPipeError, ConnectionResetError):
            pass  # client went away mid-response; nothing to clean up

    def _respond(self, status: int, content_type: str, body: bytes) -> None:
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def _serve_metrics(self) -> None:
        from repro import obs
        body = obs.prometheus_text().encode("utf-8")
        self._respond(200, "text/plain; version=0.0.4; charset=utf-8", body)

    def _serve_healthz(self) -> None:
        from repro import obs
        telemetry = self.telemetry
        payload = {
            "status": "ok",
            "uptime_seconds": round(time.time() - telemetry.started_at, 3),
            "pid": telemetry.pid,
            "observability": {
                "tracing": obs.enabled(),
                "events": obs.events_enabled(),
            },
            "solver_backend": _backend_status(),
            "events": obs.event_bus().status(),
        }
        payload.update(telemetry.healthz_extra())
        body = json.dumps(payload, sort_keys=True).encode("utf-8")
        self._respond(200, "application/json", body)

    def _int_param(
        self, query: Dict[str, list], name: str, default: int
    ) -> int:
        """Non-negative integer query parameter.

        Missing → ``default``; negative → clamped to 0 (a negative ``since``
        would replay the whole buffer and a negative ``limit`` would stream
        forever, neither of which the client meant); non-integer garbage →
        :class:`ValueError`, which the caller turns into a 400 *before* any
        response bytes are committed.
        """
        raw = query.get(name, [default])[0]
        try:
            value = int(raw)
        except (TypeError, ValueError):
            raise ValueError(
                f"query parameter {name!r} must be an integer, got {raw!r}"
            ) from None
        return max(0, value)

    def _since_param(self, query: Dict[str, list]) -> int:
        """The replay cursor: ``?since=SEQ``, else the standard
        ``Last-Event-ID`` header (what an ``EventSource`` client sends on
        reconnect, echoing the last SSE ``id:`` field), else 0.  The header
        value is validated exactly like ``?since`` — non-integer garbage
        raises (→ 400), negatives clamp to 0."""
        if "since" in query:
            return self._int_param(query, "since", 0)
        header = self.headers.get("Last-Event-ID")
        if header is None:
            return 0
        return self._int_param({"since": [header.strip()]}, "since", 0)

    def _serve_events(
        self, query: Dict[str, list], cid: Optional[str] = None
    ) -> None:
        from repro import obs

        # Validate before committing the 200/SSE headers: garbage must be
        # rejected as a 400, not leak into EventBus.subscribe or the send
        # loop as a bogus replay cursor / stream bound.
        try:
            since = self._since_param(query)
            limit = self._int_param(query, "limit", 0)  # 0 = stream on
        except ValueError as exc:
            self._respond(
                400, "text/plain; charset=utf-8", f"{exc}\n".encode("utf-8")
            )
            return
        self.send_response(200)
        self.send_header("Content-Type", "text/event-stream")
        self.send_header("Cache-Control", "no-cache")
        # SSE is unbounded: no Content-Length, so close delimits the body.
        self.send_header("Connection", "close")
        self.end_headers()
        bus = obs.event_bus()
        subscription = bus.subscribe(since=since, cid=cid)
        sent = 0
        try:
            while not self.telemetry.stopping:
                try:
                    event = subscription.get(timeout=_KEEPALIVE_SECONDS)
                except Exception:  # queue.Empty
                    self.wfile.write(b": keepalive\n\n")
                    self.wfile.flush()
                    continue
                data = json.dumps(event.to_dict(), sort_keys=True)
                frame = f"id: {event.seq}\nevent: {event.type}\ndata: {data}\n\n"
                self.wfile.write(frame.encode("utf-8"))
                self.wfile.flush()
                sent += 1
                if limit and sent >= limit:
                    break
        finally:
            bus.unsubscribe(subscription)


class LiveTelemetryServer:
    """The threaded live-telemetry endpoint; start/stop or context-manage.

    ::

        server = LiveTelemetryServer("127.0.0.1", 0)
        server.start()
        print(server.url)        # http://127.0.0.1:<port>
        ...
        server.stop()

    Subclasses may override :attr:`handler_class` to extend the endpoint
    surface (the analysis service adds ``/jobs``) and
    :meth:`healthz_extra` to enrich the ``/healthz`` document.
    """

    #: The request handler the server threads run; subclass hook.
    handler_class = _Handler

    def __init__(self, host: str = "127.0.0.1", port: int = 0) -> None:
        self.host = host
        self.port = port
        self.started_at = time.time()
        self.stopping = False
        import os
        self.pid = os.getpid()
        self._httpd: Optional[ThreadingHTTPServer] = None
        self._thread: Optional[threading.Thread] = None

    @property
    def address(self) -> Tuple[str, int]:
        """``(host, port)`` actually bound (resolves ``port=0``)."""
        if self._httpd is None:
            return (self.host, self.port)
        return self._httpd.server_address[:2]  # type: ignore[return-value]

    @property
    def url(self) -> str:
        host, port = self.address
        return f"http://{host}:{port}"

    def healthz_extra(self) -> Dict[str, object]:
        """Additional top-level ``/healthz`` fields; subclass hook."""
        return {}

    def start(self) -> "LiveTelemetryServer":
        if self._httpd is not None:
            return self
        self.started_at = time.time()
        self.stopping = False
        httpd = ThreadingHTTPServer((self.host, self.port), self.handler_class)
        httpd.daemon_threads = True
        httpd.telemetry = self  # type: ignore[attr-defined]
        self._httpd = httpd
        self._thread = threading.Thread(
            target=httpd.serve_forever,
            kwargs={"poll_interval": 0.1},
            name="same-live-telemetry",
            daemon=True,
        )
        self._thread.start()
        return self

    def stop(self) -> None:
        self.stopping = True
        httpd, self._httpd = self._httpd, None
        thread, self._thread = self._thread, None
        if httpd is not None:
            httpd.shutdown()
            httpd.server_close()
        if thread is not None:
            thread.join(timeout=2.0)

    def __enter__(self) -> "LiveTelemetryServer":
        return self.start()

    def __exit__(self, *exc: object) -> bool:
        self.stop()
        return False
