"""``repro.service`` — the always-on SAME analysis service.

The paper's analyses (and this repo's CLI verbs) are one-shot: load the
model, compute, exit.  This package is the long-lived, multi-tenant shape
named by ROADMAP item 1 and the paper's "scalable model access" future
work:

- :class:`AnalysisService` — async job queue over
  :class:`~repro.safety.campaign.FaultInjectionCampaign` (worker threads,
  checkpoint/retry machinery) with a result
  cache keyed by campaign fingerprint against the
  :class:`~repro.obs.ledger.AnalysisLedger`;
- :class:`AnalysisServiceServer` — ``POST /jobs`` / ``GET /jobs[/<id>]``
  layered on the live-telemetry HTTP server (so ``/metrics``, ``/healthz``
  and ``/events`` come along for free);
- :func:`serve_analysis` — one-call start;
- ``same serve-analysis`` — the CLI verb.

See ``docs/service.md`` for the endpoint contract, the job lifecycle and
the caching semantics.
"""

from repro.service.jobs import (
    AnalysisJob,
    AnalysisRequest,
    AnalysisService,
    ServiceError,
    reliability_from_payload,
    reliability_payload,
)
from repro.service.server import AnalysisServiceServer, serve_analysis

__all__ = [
    "AnalysisJob",
    "AnalysisRequest",
    "AnalysisService",
    "AnalysisServiceServer",
    "ServiceError",
    "reliability_from_payload",
    "reliability_payload",
    "serve_analysis",
]
