"""Live telemetry plane: event bus, HTTP endpoints, sampling profiler.

The acceptance gate for the observability PR: a campaign run with the
event plane enabled must emit a monotonically increasing progress stream
whose final ``done`` equals ``CampaignStats.jobs``, ``/metrics`` must
round-trip through
``parse_prometheus_text`` *while the campaign is still running*, and the
SSE stream must be well-formed per the EventSource framing rules.
"""

import http.client
import json
import threading
import time

import pytest

from repro import obs
from repro.casestudies import (
    SYSTEM_B_ASSUMED_STABLE,
    build_system_b_simulink,
    power_network_reliability,
)
from repro.cli import main
from repro.obs.events import Event, EventBus
from repro.obs.export import parse_prometheus_text
from repro.obs.live import LiveTelemetryServer
from repro.obs.profile import SamplingProfiler
from repro.safety.campaign import FaultInjectionCampaign, _percentile

SMOKE_RAILS = 4


@pytest.fixture(autouse=True)
def clean_obs():
    obs.disable()
    obs.disable_events()
    obs.reset()
    yield
    obs.disable()
    obs.disable_events()
    obs.reset()


@pytest.fixture(scope="module")
def system_b():
    return (
        build_system_b_simulink(rails=SMOKE_RAILS),
        power_network_reliability(),
    )


def _campaign(system_b, **kwargs):
    model, reliability = system_b
    return FaultInjectionCampaign(
        model, reliability, assume_stable=SYSTEM_B_ASSUMED_STABLE, **kwargs
    )


def _http_get(host, port, path, timeout=10.0):
    conn = http.client.HTTPConnection(host, port, timeout=timeout)
    try:
        conn.request("GET", path)
        response = conn.getresponse()
        return response.status, dict(response.getheaders()), response.read()
    finally:
        conn.close()


# -- event bus ---------------------------------------------------------------


class TestEventBus:
    def test_seq_monotonic_and_replay(self):
        bus = EventBus()
        for index in range(5):
            bus.emit("tick", {"index": index})
        events = bus.events()
        assert [e.seq for e in events] == [1, 2, 3, 4, 5]
        assert [e.seq for e in bus.events(since=3)] == [4, 5]
        assert bus.last_seq() == 5

    def test_buffer_bounded(self):
        bus = EventBus(buffer=8)
        for index in range(20):
            bus.emit("tick", {"index": index})
        events = bus.events()
        assert len(events) == 8
        assert events[-1].seq == 20  # newest survives, oldest evicted

    def test_subscriber_queue_sees_live_events(self):
        bus = EventBus()
        bus.emit("early", {})
        q = bus.subscribe(since=0)
        bus.emit("late", {})
        types = [q.get_nowait().type, q.get_nowait().type]
        assert types == ["early", "late"]
        bus.unsubscribe(q)
        bus.emit("after", {})
        assert q.empty()

    def test_callback_exceptions_do_not_break_emit(self):
        bus = EventBus()
        seen = []

        def bad(event):
            raise RuntimeError("listener bug")

        bus.add_callback(bad)
        bus.add_callback(seen.append)
        bus.emit("tick", {})
        assert [e.type for e in seen] == ["tick"]

    def test_jsonl_sink_lines_parse(self, tmp_path):
        bus = EventBus()
        path = bus.attach_jsonl(tmp_path / "events.jsonl")
        bus.emit("one", {"a": 1})
        bus.emit("two", {"b": 2})
        bus.detach_jsonl()
        lines = path.read_text().splitlines()
        records = [json.loads(line) for line in lines]
        assert [r["type"] for r in records] == ["one", "two"]
        assert records[0]["payload"] == {"a": 1}

    def test_event_roundtrip(self):
        event = Event(seq=7, type="x", ts=1.5, pid=42, payload={"k": "v"})
        assert Event.from_dict(event.to_dict()) == event

    def test_emit_event_is_noop_when_disabled(self):
        assert obs.emit_event("ignored", value=1) is None
        assert obs.event_bus().events() == []


# -- campaign progress stream ------------------------------------------------


class TestCampaignEvents:
    def test_serial_progress_monotonic_and_complete(self, system_b):
        obs.enable_events()
        events = []
        obs.event_bus().add_callback(events.append)
        try:
            stats = _campaign(system_b).run().stats
        finally:
            obs.event_bus().remove_callback(events.append)
        types = [e.type for e in events]
        assert types[0] == "campaign_started"
        assert types[-1] == "campaign_finished"
        assert events[0].payload["jobs"] == stats.jobs
        dones = [
            e.payload["done"] for e in events if e.type == "chunk_completed"
        ]
        assert dones == sorted(dones)
        assert dones[-1] == stats.jobs
        assert all(b > a for a, b in zip(dones, dones[1:]))

    def test_events_off_costs_nothing_visible(self, system_b):
        # Flag check only: with the plane disabled a campaign emits nothing.
        _campaign(system_b).run()
        assert obs.event_bus().events() == []

    def test_job_wall_percentiles_published(self, system_b):
        obs.enable()
        stats = _campaign(system_b).run().stats
        assert 0.0 < stats.job_wall_p50 <= stats.job_wall_p95
        assert stats.job_wall_p95 <= stats.job_wall_p99
        histogram = obs.histogram("campaign_job_seconds")
        assert histogram.count == stats.jobs

    def test_percentile_helper(self):
        values = [1.0, 2.0, 3.0, 4.0]
        assert _percentile(values, 0.0) == 1.0
        assert _percentile(values, 1.0) == 4.0
        assert _percentile(values, 0.5) == 2.5
        assert _percentile([], 0.5) == 0.0


# -- HTTP endpoints ----------------------------------------------------------


class TestLiveServer:
    def test_metrics_roundtrip_mid_run(self, system_b):
        """Scrape ``/metrics`` *while the campaign runs* (from a progress
        callback) and require the text to parse — the mid-run consistency
        guarantee (+Inf bucket == count) that the atomic histogram
        snapshot provides."""
        obs.enable()
        obs.enable_events()
        scrapes = []
        with LiveTelemetryServer() as server:
            host, port = server.address

            def scrape(event):
                if event.type == "chunk_completed":
                    status, headers, body = _http_get(host, port, "/metrics")
                    scrapes.append((status, body))

            obs.event_bus().add_callback(scrape)
            try:
                stats = _campaign(system_b).run().stats
            finally:
                obs.event_bus().remove_callback(scrape)
        assert scrapes, "expected at least one mid-run scrape"
        status, body = scrapes[-1]
        assert status == 200
        families = parse_prometheus_text(body.decode("utf-8"))
        assert "campaign_job_seconds" in families
        # the final chunk_completed fires once every job has executed
        assert families["campaign_job_seconds"]["count"] == stats.jobs

    def test_healthz_reports_planes_and_campaign(self, system_b):
        obs.enable()
        obs.enable_events()
        _campaign(system_b).run()
        with LiveTelemetryServer() as server:
            host, port = server.address
            status, headers, body = _http_get(host, port, "/healthz")
        assert status == 200
        health = json.loads(body)
        assert health["status"] == "ok"
        assert health["observability"] == {
            "tracing": True, "events": True,
        }
        assert "pool" not in health
        assert "solver_backend" not in health
        campaign = health["events"]["campaign"]
        assert campaign["active"] is False
        assert campaign["jobs_done"] == campaign["jobs_total"]

    def test_events_sse_framing(self):
        obs.enable_events()
        obs.emit_event("campaign_started", jobs=3)
        obs.emit_event("chunk_completed", done=3, total=3)
        with LiveTelemetryServer() as server:
            host, port = server.address
            status, headers, body = _http_get(
                host, port, "/events?since=0&limit=2"
            )
        assert status == 200
        assert headers["Content-Type"].startswith("text/event-stream")
        frames = [f for f in body.decode("utf-8").split("\n\n") if f.strip()]
        assert len(frames) == 2
        for frame, expected in zip(frames, ("campaign_started", "chunk_completed")):
            lines = frame.splitlines()
            assert lines[0].startswith("id: ")
            assert lines[1] == f"event: {expected}"
            assert lines[2].startswith("data: ")
            json.loads(lines[2][len("data: "):])  # data payload is JSON

    def test_events_rejects_non_integer_params(self):
        """Garbage ``?since``/``?limit`` must be a 400 *before* the SSE
        headers commit — not a half-open stream or a 500."""
        obs.enable_events()
        obs.emit_event("campaign_started", jobs=1)
        with LiveTelemetryServer() as server:
            host, port = server.address
            # (a blank "since=" is dropped by parse_qs and falls back to
            # the default — only present-but-garbage values are 400s)
            for query in ("since=abc", "limit=abc", "since=1.5",
                          "since=1&limit=x"):
                status, headers, body = _http_get(
                    host, port, f"/events?{query}"
                )
                assert status == 400, query
                assert headers["Content-Type"].startswith("text/plain")
                assert b"integer" in body

    def test_events_clamps_negative_params(self):
        """Negative ``since``/``limit`` clamp to 0 instead of erroring:
        since=-1 means 'from the beginning', limit=-5 means 'no cap'."""
        obs.enable_events()
        obs.emit_event("campaign_started", jobs=1)
        obs.emit_event("chunk_completed", done=1, total=1)
        with LiveTelemetryServer() as server:
            host, port = server.address
            status, headers, body = _http_get(
                host, port, "/events?since=-10&limit=2"
            )
            assert status == 200
            frames = [
                f for f in body.decode("utf-8").split("\n\n") if f.strip()
            ]
            assert len(frames) == 2  # clamped since=0 → replay from start

    def test_keep_alive_responses_do_not_stall(self):
        with LiveTelemetryServer() as server:
            host, port = server.address
            conn = http.client.HTTPConnection(host, port, timeout=10.0)
            walls = []
            try:
                for _ in range(20):
                    start = time.perf_counter()
                    conn.request("GET", "/healthz")
                    response = conn.getresponse()
                    response.read()
                    walls.append(time.perf_counter() - start)
                    assert response.status == 200
            finally:
                conn.close()
        walls.sort()
        assert walls[len(walls) // 2] < 0.020, walls

    def test_unknown_path_is_404(self):
        with LiveTelemetryServer() as server:
            host, port = server.address
            status, _, _ = _http_get(host, port, "/nope")
        assert status == 404

    def test_serve_live_facade_binds_ephemeral_port(self):
        server = obs.serve_live("127.0.0.1", 0)
        try:
            assert server.address[1] > 0
            assert server.url.startswith("http://127.0.0.1:")
        finally:
            server.stop()


# -- sampling profiler -------------------------------------------------------


def _busy(deadline):
    total = 0.0
    while time.perf_counter() < deadline:
        total += sum(i * i for i in range(200))
    return total


class TestSamplingProfiler:
    def test_samples_and_folded_format(self, tmp_path):
        profiler = SamplingProfiler(interval=0.001)
        assert profiler.start()
        _busy(time.perf_counter() + 0.25)
        assert profiler.stop() > 0
        folded = profiler.folded()
        assert folded
        for line in folded.splitlines():
            stack, _, count = line.rpartition(" ")
            assert stack and int(count) > 0
            assert ";" in stack or ":" in stack
        path = profiler.write_folded(tmp_path / "out.folded")
        assert path.read_text() == folded

    def test_span_attribution(self):
        obs.enable()  # span attribution reads the live tracing stack
        profiler = SamplingProfiler(interval=0.001)
        assert profiler.start()
        with obs.span("hot.section"):
            _busy(time.perf_counter() + 0.25)
        profiler.stop()
        assert "span:hot.section;" in profiler.folded()

    def test_start_refused_off_main_thread(self):
        results = []
        worker = threading.Thread(
            target=lambda: results.append(SamplingProfiler().start())
        )
        worker.start()
        worker.join()
        assert results == [False]

    def test_stop_without_start(self):
        assert SamplingProfiler().stop() == 0


# -- CLI integration ---------------------------------------------------------


class TestCli:
    def test_demo_with_live_flags(self, tmp_path, capsys):
        events_path = tmp_path / "events.jsonl"
        profile_path = tmp_path / "demo.folded"
        ledger_path = tmp_path / "ledger.jsonl"
        code = main(
            [
                "demo",
                "--progress",
                "--events", str(events_path),
                "--profile", str(profile_path),
                "--serve", "127.0.0.1:0",
                "--ledger", str(ledger_path),
                "--stats",
            ]
        )
        assert code == 0
        captured = capsys.readouterr()
        assert "live telemetry at http://127.0.0.1:" in captured.err
        assert "campaign started: system=sensor_power_supply" in captured.err
        assert "job_wall_p50" in captured.out  # --stats percentiles
        events = [
            json.loads(line)
            for line in events_path.read_text().splitlines()
        ]
        types = [e["type"] for e in events]
        assert types[0] == "campaign_started"
        assert "campaign_finished" in types
        assert profile_path.exists()
        artifacts = [
            json.loads(line)
            for line in ledger_path.read_text().splitlines()
            if '"artifact"' in line
        ]
        kinds = {a["kind"] for a in artifacts}
        assert {"obs-events", "obs-profile"} <= kinds
        # planes are torn down after the verb
        assert not obs.events_enabled()

    def test_logs_flag_rejected_by_parser(self):
        """``--logs`` is gone: ``--events`` is the one JSONL sink."""
        with pytest.raises(SystemExit):
            main(["demo", "--logs", "run.jsonl"])

    def test_serve_flag_rejects_garbage(self):
        with pytest.raises(SystemExit):
            main(["demo", "--serve", "nonsense"])
