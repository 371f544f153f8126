"""HTTP surface of the analysis service, layered on the live-telemetry
server.

:class:`AnalysisServiceServer` extends
:class:`~repro.obs.live.LiveTelemetryServer` — the same threaded stdlib
server that already exposes ``/metrics``, ``/healthz`` and ``/events`` —
with the job endpoints:

- ``POST /jobs`` — submit an analysis request (JSON body; see
  :class:`~repro.service.jobs.AnalysisRequest`); replies ``202`` with the
  job id and its polling URL, or ``400`` for a malformed body.  The raw
  body goes to :meth:`~repro.service.jobs.AnalysisService.submit`, so a
  byte-identical revisit is keyed by one sha256 of it, with no parse;
- ``GET /jobs`` — queue state: the service summary plus every job the
  bounded history holds (without result bodies);
- ``GET /jobs/<id>`` — one job's full record, result included once done;
  jobs that attached to another job's in-flight computation report
  ``coalesced: true`` with the leader's correlation id in
  ``coalesced_with`` (see single-flight coalescing in
  :mod:`repro.service.jobs`);
- ``GET /jobs/<id>/events`` — the job's own SSE stream: the ``/events``
  machinery filtered to the job's ``correlation_id``, so one tenant
  watches exactly their campaign's events while another tenant's concurrent job streams elsewhere.  Replay,
  ``?since=``/``Last-Event-ID`` resume and ``?limit=`` behave exactly
  like ``/events``.

``/healthz`` gains a ``service`` section (queue depth, per-state job
counts, cache hit/miss totals, request-memo size, in-flight registry size
and coalesced-job total) via the :meth:`healthz_extra` hook, and the
``service_*`` metrics land on the existing ``/metrics`` scrape, so one
server answers both "is it alive" and "what is it doing".
"""

from __future__ import annotations

import json
from typing import Dict, Optional

from repro.obs.live import LiveTelemetryServer, _Handler
from repro.service.jobs import AnalysisService, ServiceError

__all__ = ["AnalysisServiceServer", "serve_analysis"]

#: Request bodies past this size are rejected (64 MiB — generous for
#: model payloads, small enough to bound a hostile submission).
_MAX_BODY_BYTES = 64 * 1024 * 1024


class _ServiceHandler(_Handler):
    server_version = "same-analysis/1"

    @property
    def service(self) -> AnalysisService:
        return self.telemetry.service  # type: ignore[attr-defined]

    def _json(self, status: int, payload: object) -> None:
        body = json.dumps(payload, sort_keys=True).encode("utf-8")
        self._respond(status, "application/json", body)

    def do_GET(self) -> None:  # noqa: N802 — BaseHTTPRequestHandler API
        from urllib.parse import parse_qs, urlparse

        parsed = urlparse(self.path)
        path = parsed.path
        try:
            if path == "/jobs":
                self._serve_jobs()
            elif path.startswith("/jobs/") and path.endswith("/events"):
                self._serve_job_events(
                    path[len("/jobs/"):-len("/events")],
                    parse_qs(parsed.query),
                )
            elif path.startswith("/jobs/"):
                self._serve_job(path[len("/jobs/"):])
            else:
                super().do_GET()
        except (BrokenPipeError, ConnectionResetError):
            pass

    def do_POST(self) -> None:  # noqa: N802 — BaseHTTPRequestHandler API
        from urllib.parse import urlparse

        path = urlparse(self.path).path
        try:
            if path == "/jobs":
                self._submit_job()
            else:
                self._json(404, {"error": f"no POST endpoint {path!r}"})
        except (BrokenPipeError, ConnectionResetError):
            pass

    # -- endpoints --------------------------------------------------------

    def _serve_jobs(self) -> None:
        self._json(
            200,
            {
                "service": self.service.status(),
                "jobs": [
                    job.to_dict(include_result=False)
                    for job in self.service.jobs()
                ],
            },
        )

    def _serve_job(self, job_id: str) -> None:
        try:
            job = self.service.job(job_id)
        except ServiceError:
            self._json(404, {"error": f"unknown job {job_id!r}"})
            return
        if job.state in ("done", "failed"):
            # The worker publishes the final state (and ``job_finished``)
            # before it attaches the job's event log to the ledger entry,
            # and sets ``done_event`` right after: a finished job is
            # answered once its record is complete.
            job.done_event.wait()
        self._json(200, job.to_dict())

    def _serve_job_events(self, job_id: str, query: Dict[str, list]) -> None:
        """The job's per-stream SSE view: the shared ``/events`` loop,
        subscribed with the job's correlation id so replay (the id-indexed
        buffer view) and live delivery carry only this job's events."""
        try:
            job = self.service.job(job_id)
        except ServiceError:
            self._json(404, {"error": f"unknown job {job_id!r}"})
            return
        if not job.correlation_id:
            self._json(
                409, {"error": f"job {job_id!r} has no correlation id"}
            )
            return
        self._serve_events(query, cid=job.correlation_id)

    def _read_body(self) -> bytes:
        try:
            length = int(self.headers.get("Content-Length", 0))
        except (TypeError, ValueError):
            raise ServiceError("Content-Length must be an integer") from None
        if length <= 0:
            raise ServiceError("request body required")
        if length > _MAX_BODY_BYTES:
            raise ServiceError(
                f"request body of {length} bytes exceeds the "
                f"{_MAX_BODY_BYTES}-byte limit"
            )
        return self.rfile.read(length)

    def _submit_job(self) -> None:
        try:
            job = self.service.submit(self._read_body())
        except ServiceError as exc:
            self._json(400, {"error": str(exc)})
            return
        self._json(
            202,
            {
                "id": job.id,
                "state": job.state,
                "kind": job.kind,
                "system": job.system,
                "url": f"/jobs/{job.id}",
            },
        )


class AnalysisServiceServer(LiveTelemetryServer):
    """The always-on SAME analysis endpoint: telemetry + job queue.

    ::

        service = AnalysisService("ledger.jsonl", workers=2)
        server = AnalysisServiceServer(service, "127.0.0.1", 0).start()
        print(server.url)   # POST /jobs, GET /jobs/<id>, /metrics, ...
        ...
        server.stop()       # stops the HTTP plane AND the worker threads
    """

    handler_class = _ServiceHandler

    def __init__(
        self,
        service: AnalysisService,
        host: str = "127.0.0.1",
        port: int = 0,
    ) -> None:
        super().__init__(host, port)
        self.service = service

    def healthz_extra(self) -> Dict[str, object]:
        return {"service": self.service.status()}

    def start(self) -> "AnalysisServiceServer":
        self.service.start()
        super().start()
        return self

    def stop(self) -> None:
        super().stop()
        self.service.stop()


def serve_analysis(
    ledger,
    host: str = "127.0.0.1",
    port: int = 0,
    workers: int = 2,
    checkpoint_dir: Optional[str] = None,
) -> AnalysisServiceServer:
    """One-call start: build the service over ``ledger`` and serve it."""
    service = AnalysisService(
        ledger, workers=workers, checkpoint_dir=checkpoint_dir,
    )
    return AnalysisServiceServer(service, host, port).start()
