"""CI smoke for the live telemetry plane.

Runs the smoke-sized System B campaign with the event bus and the HTTP
telemetry server up, scrapes ``/metrics`` over real HTTP *while the
campaign is running* (from a ``chunk_completed`` callback) and validates
the exposition with ``parse_prometheus_text``, checks ``/healthz`` and
the SSE framing of ``/events``, and asserts the progress stream is
monotonic with the final ``done`` equal to ``CampaignStats.jobs``.

Exits non-zero on any violation.  Run as::

    PYTHONPATH=src python benchmarks/live_smoke.py
"""

import json
import sys
import urllib.request

from repro import obs
from repro.casestudies import (
    SYSTEM_B_ASSUMED_STABLE,
    build_system_b_simulink,
    power_network_reliability,
)
from repro.obs.export import parse_prometheus_text
from repro.safety.campaign import FaultInjectionCampaign

SMOKE_RAILS = 4


def _get(url: str) -> bytes:
    with urllib.request.urlopen(url, timeout=30) as response:
        return response.read()


def main() -> int:
    obs.enable()
    obs.enable_events()
    server = obs.serve_live("127.0.0.1", 0)
    url = server.url
    print(f"live telemetry at {url}")

    scrapes = []
    events = []

    def watch(event):
        events.append(event)
        if event.type == "chunk_completed":
            scrapes.append(_get(f"{url}/metrics").decode("utf-8"))

    obs.event_bus().add_callback(watch)
    try:
        stats = (
            FaultInjectionCampaign(
                build_system_b_simulink(rails=SMOKE_RAILS),
                power_network_reliability(),
                assume_stable=SYSTEM_B_ASSUMED_STABLE,
            )
            .run()
            .stats
        )
    finally:
        obs.event_bus().remove_callback(watch)

    # -- /metrics scraped mid-run parses and carries the histograms ------
    assert scrapes, "no mid-run /metrics scrape happened"
    families = parse_prometheus_text(scrapes[-1])
    assert "campaign_job_seconds" in families, sorted(families)
    assert families["campaign_job_seconds"]["count"] == stats.jobs

    # -- progress stream: monotonic, complete ----------------------------
    dones = [e.payload["done"] for e in events if e.type == "chunk_completed"]
    assert dones == sorted(dones) and len(set(dones)) == len(dones), dones
    assert dones[-1] == stats.jobs, (dones, stats.jobs)
    types = [e.type for e in events]
    assert types[0] == "campaign_started" and types[-1] == "campaign_finished"

    # -- /healthz ---------------------------------------------------------
    health = json.loads(_get(f"{url}/healthz"))
    assert health["status"] == "ok", health
    assert health["observability"] == {
        "tracing": True, "events": True,
    }, health["observability"]
    campaign = health["events"]["campaign"]
    assert campaign["jobs_done"] == campaign["jobs_total"] == stats.jobs

    # -- /events SSE framing ----------------------------------------------
    sse = _get(f"{url}/events?since=0&limit=2").decode("utf-8")
    frames = [f for f in sse.split("\n\n") if f.strip()]
    assert len(frames) == 2, sse
    for frame in frames:
        lines = frame.splitlines()
        assert lines[0].startswith("id: "), frame
        assert lines[1].startswith("event: "), frame
        json.loads(lines[2][len("data: "):])

    server.stop()
    print(
        f"live telemetry smoke OK: jobs={stats.jobs} "
        f"scrapes={len(scrapes)} events={len(events)}"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
