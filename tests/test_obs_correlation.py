"""Job-scoped observability: correlation ids, per-job event streams and
leveled (log) events.

Acceptance surface:

- two concurrent analysis-service jobs stream disjoint, correctly-ordered
  event sequences on their own ``/jobs/<id>/events`` endpoints;
- every event and ledger entry a job produces carries the job's
  correlation id;
- a forced failure burst shows as failed jobs on ``/healthz`` and leaves
  the next computed job's ledger entry untouched;
- ledger entries recorded with the former ``meta.slo`` verdict still
  pass ``watch-regressions`` and keep their content digest.
"""

import http.client
import io
import json
import threading

import pytest

from repro import obs
from repro.casestudies.power_supply import ASSUMED_STABLE
from repro.obs.events import ConsoleProgress, Event, EventBus
from repro.service import (
    AnalysisService,
    AnalysisServiceServer,
    reliability_payload,
)

JOB_TIMEOUT = 120.0


@pytest.fixture(autouse=True)
def clean_obs():
    obs.disable()
    obs.disable_events()
    obs.reset()
    yield
    obs.disable()
    obs.disable_events()
    obs.reset()


# -- correlation context -----------------------------------------------------


class TestCorrelationContext:
    def test_mint_is_unique_short_hex(self):
        ids = {obs.mint_correlation_id() for _ in range(64)}
        assert len(ids) == 64
        for cid in ids:
            assert len(cid) == 16
            int(cid, 16)  # hex or raise

    def test_global_default_and_scoped_override(self):
        assert obs.correlation_id() is None
        obs.set_correlation_id("global1234567890")
        assert obs.correlation_id() == "global1234567890"
        with obs.correlation("scoped1234567890"):
            assert obs.correlation_id() == "scoped1234567890"
            with obs.correlation(None):  # None scope: ambient id passes
                assert obs.correlation_id() == "scoped1234567890"
        assert obs.correlation_id() == "global1234567890"
        obs.set_correlation_id(None)
        assert obs.correlation_id() is None

    def test_thread_scopes_are_independent(self):
        seen = {}
        barrier = threading.Barrier(2)

        def worker(cid):
            with obs.correlation(cid):
                barrier.wait(timeout=10)
                seen[cid] = obs.correlation_id()

        threads = [
            threading.Thread(target=worker, args=(f"cid-{i:012d}",))
            for i in range(2)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert seen == {c: c for c in seen}

    def test_reset_clears_the_global_id(self):
        obs.set_correlation_id("deadbeefdeadbeef")
        obs.reset()
        assert obs.correlation_id() is None


# -- events: cid field + per-stream filtering --------------------------------


class TestEventCid:
    def test_event_dict_round_trip_preserves_cid(self):
        event = Event(seq=7, type="tick", ts=1.0, pid=42, payload={"a": 1},
                      cid="abcd" * 4)
        assert Event.from_dict(event.to_dict()) == event
        bare = Event(seq=8, type="tick", ts=1.0, pid=42, payload={})
        assert "cid" not in bare.to_dict()
        assert Event.from_dict(bare.to_dict()) == bare

    def test_emit_stamps_ambient_cid(self):
        obs.enable_events()
        with obs.correlation("a" * 16):
            obs.emit_event("tagged", x=1)
        obs.emit_event("untagged", x=2)
        events = {e.type: e for e in obs.event_bus().events()}
        assert events["tagged"].cid == "a" * 16
        assert events["untagged"].cid is None

    def test_events_filtered_by_cid(self):
        bus = EventBus()
        bus.emit("one", {}, cid="a" * 16)
        bus.emit("two", {}, cid="b" * 16)
        bus.emit("three", {}, cid="a" * 16)
        bus.emit("none", {})
        assert [e.type for e in bus.events(cid="a" * 16)] == ["one", "three"]
        assert [e.type for e in bus.events(cid="b" * 16)] == ["two"]
        assert [e.type for e in bus.events(cid="missing")] == []
        assert len(bus.events()) == 4

    def test_subscribe_with_cid_replays_and_filters_live(self):
        bus = EventBus()
        bus.emit("early", {}, cid="a" * 16)
        bus.emit("noise", {}, cid="b" * 16)
        q = bus.subscribe(since=0, cid="a" * 16)
        bus.emit("late", {}, cid="a" * 16)
        bus.emit("more-noise", {}, cid="b" * 16)
        got = [q.get_nowait().type, q.get_nowait().type]
        assert got == ["early", "late"]
        assert q.empty()
        bus.unsubscribe(q)

    def test_cid_view_trimmed_with_ring_buffer(self):
        bus = EventBus(buffer=4)
        for index in range(10):
            bus.emit("tick", {"index": index}, cid="a" * 16)
        view = bus.events(cid="a" * 16)
        assert len(view) == 4
        assert [e.payload["index"] for e in view] == [6, 7, 8, 9]

# -- spans -------------------------------------------------------------------


class TestSpanCorrelation:
    def test_span_attrs_gain_correlation_id(self):
        obs.enable()
        with obs.correlation("f" * 16):
            with obs.span("inner"):
                pass
        with obs.span("outer"):
            pass
        records = {r.name: r for r in obs.tracer().records()}
        assert records["inner"].attrs["correlation_id"] == "f" * 16
        assert "correlation_id" not in records["outer"].attrs

    def test_explicit_attr_wins_over_ambient_cid(self):
        obs.enable()
        with obs.correlation("f" * 16):
            with obs.span("pinned", correlation_id="0" * 16):
                pass
        (record,) = obs.tracer().records()
        assert record.attrs["correlation_id"] == "0" * 16

# -- structured logs: leveled events on the one stream -------------------------


class TestStructuredLog:
    """A log line is an event with a level: the structured-log guarantees
    (cid filter, JSONL export, levels) hold on the one event stream."""

    def test_cid_filter_and_jsonl_export(self, tmp_path):
        bus = EventBus()
        bus.emit("mine", {"job": "j1"}, cid="a" * 16, level="warning")
        bus.emit("theirs", {}, cid="b" * 16)
        bus.emit("nobodys", {})
        path = bus.write_jsonl(tmp_path / "job.jsonl", cid="a" * 16)
        lines = [
            json.loads(line)
            for line in path.read_text().splitlines()
        ]
        assert lines == [e.to_dict() for e in bus.events(cid="a" * 16)]
        (line,) = lines
        assert line["type"] == "mine"
        assert line["cid"] == "a" * 16
        assert line["payload"] == {"job": "j1"}
        assert line["level"] == "warning"

    def test_obs_log_is_gated_and_stamps_cid(self):
        with obs.correlation("d" * 16):
            obs.emit_event("dropped_while_disabled", level="error")
        assert obs.event_bus().events() == []
        obs.enable_events()
        with obs.correlation("d" * 16):
            obs.emit_event("kept", level="error", detail=1)
        (event,) = obs.event_bus().events()
        assert event.cid == "d" * 16
        assert event.level == "error"
        assert event.payload == {"detail": 1}

    def test_record_round_trip(self):
        event = Event(seq=3, type="m", ts=1.5, pid=7, payload={"k": "v"},
                      cid="a" * 16, level="warning")
        assert Event.from_dict(event.to_dict()) == event
        data = event.to_dict()
        data["level"] = "bogus"  # a typo'd level coerces, never crashes
        assert Event.from_dict(data).level == "info"
        del data["level"]
        assert Event.from_dict(data).level == "info"


# -- console progress ETA ----------------------------------------------------


def _chunk(done, total, eta):
    payload = {"done": done, "total": total}
    if eta is not None:
        payload["eta_seconds"] = eta
    return Event(seq=done, type="chunk_completed", ts=0.0, pid=1,
                 payload=payload)


class TestConsoleProgressEta:
    def test_single_chunk_campaign_renders_placeholder(self):
        stream = io.StringIO()
        progress = ConsoleProgress(stream=stream, min_interval=0.0)
        progress(_chunk(1, 1, 0.0))  # 0.0 "ETA" from a single sample
        assert "eta=--:--" in stream.getvalue()
        assert "eta=0.0s" not in stream.getvalue()

    def test_second_chunk_gets_a_real_eta(self):
        stream = io.StringIO()
        progress = ConsoleProgress(stream=stream, min_interval=0.0)
        progress(_chunk(1, 3, 4.0))
        progress(_chunk(2, 3, 2.0))
        lines = stream.getvalue().splitlines()
        assert "eta=--:--" in lines[0]
        assert "eta=2.0s" in lines[1]

    def test_non_finite_or_missing_eta_renders_placeholder(self):
        stream = io.StringIO()
        progress = ConsoleProgress(stream=stream, min_interval=0.0)
        progress(_chunk(1, 4, 1.0))
        progress(_chunk(2, 4, None))
        progress(_chunk(3, 4, float("inf")))
        lines = stream.getvalue().splitlines()
        assert "eta=--:--" in lines[1]
        assert "eta=--:--" in lines[2]

    def test_campaign_started_resets_the_chunk_count(self):
        stream = io.StringIO()
        progress = ConsoleProgress(stream=stream, min_interval=0.0)
        progress(_chunk(1, 2, 5.0))
        progress(_chunk(2, 2, 1.0))
        progress(Event(seq=10, type="campaign_started", ts=0.0, pid=1,
                       payload={"system": "s", "analysis": "dc", "jobs": 1}))
        progress(_chunk(1, 1, 0.5))
        assert "eta=--:--" in stream.getvalue().splitlines()[-1]


# -- per-campaign /healthz tracking ------------------------------------------


def _campaign_events(bus, fingerprint, cid, total):
    with obs.correlation(cid):
        bus.emit("campaign_started",
                 {"system": "s", "jobs": total, "fingerprint": fingerprint})
        bus.emit("chunk_completed",
                 {"done": 1, "total": total, "eta_seconds": 9.0,
                  "fingerprint": fingerprint})


class TestPerCampaignStatus:
    def test_concurrent_campaigns_tracked_separately(self):
        bus = EventBus()
        _campaign_events(bus, "fp-a", "a" * 16, total=10)
        _campaign_events(bus, "fp-b", "b" * 16, total=4)
        with obs.correlation("a" * 16):
            bus.emit("chunk_completed",
                     {"done": 5, "total": 10, "eta_seconds": 5.0,
                      "fingerprint": "fp-a"})
        status = bus.status()
        campaigns = status["campaigns"]
        by_fp = {info["fingerprint"]: info for info in campaigns.values()}
        assert by_fp["fp-a"]["jobs_done"] == 5
        assert by_fp["fp-a"]["jobs_total"] == 10
        assert by_fp["fp-b"]["jobs_done"] == 1
        assert by_fp["fp-b"]["jobs_total"] == 4
        # The legacy singular key still exists and aliases the most
        # recently *started* campaign (fp-b here).
        assert status["campaign"]["fingerprint"] == "fp-b"

    def test_finished_campaigns_evicted_before_running_ones(self):
        bus = EventBus()
        for index in range(bus.MAX_TRACKED_CAMPAIGNS + 4):
            fingerprint = f"fp-{index}"
            bus.emit("campaign_started",
                     {"jobs": 1, "fingerprint": fingerprint})
            if index < 4:
                bus.emit("campaign_finished",
                         {"jobs": 1, "fingerprint": fingerprint})
        campaigns = bus.status()["campaigns"]
        assert len(campaigns) == bus.MAX_TRACKED_CAMPAIGNS
        fingerprints = {info["fingerprint"] for info in campaigns.values()}
        # The finished ones were evicted first.
        assert not fingerprints & {"fp-0", "fp-1", "fp-2", "fp-3"}


# -- ledgers recorded with meta.slo -----------------------------------------


@pytest.mark.parametrize("recorded", [
    {"status": "ok", "breached": [], "warning": []},
    {"status": "warning", "breached": [], "warning": ["queue_wait_p95"]},
    {"status": "breached", "breached": ["job_success_rate"], "warning": []},
], ids=["ok", "warning", "breached"])
def test_recorded_slo_meta_passes_the_gate(
    tmp_path, psu_fmea, psu_simulink, recorded
):
    """Entries recorded while the service stamped an SLO verdict into
    ``meta.slo`` pass ``watch-regressions`` whatever the verdict, and
    ``meta`` stays out of their content digest."""
    from repro.obs.history import diff_entries, watch_regressions
    from repro.obs.ledger import AnalysisLedger, record_fmea

    ledger = AnalysisLedger(tmp_path / "ledger.jsonl")
    before = record_fmea(ledger, psu_fmea, model=psu_simulink)
    after = record_fmea(ledger, psu_fmea, model=psu_simulink,
                        meta={"slo": recorded})
    assert after.meta["slo"] == recorded
    assert watch_regressions(diff_entries(before, after)) == []
    assert after.content_digest == before.content_digest


# -- campaign correlation ----------------------------------------------------


class TestCampaignCorrelation:
    def test_serial_campaign_events_logs_and_ledger_carry_cid(
        self, tmp_path, psu_simulink, psu_reliability
    ):
        from repro.obs.ledger import AnalysisLedger, record_fmea
        from repro.safety.campaign import FaultInjectionCampaign

        obs.enable_events()
        cid = obs.mint_correlation_id()
        with obs.correlation(cid):
            result = FaultInjectionCampaign(
                psu_simulink, psu_reliability, sensors=["CS1"],
                assume_stable=ASSUMED_STABLE,
            ).run()
        events = obs.event_bus().events()
        assert events, "campaign emitted no events"
        assert all(e.cid == cid for e in events), [
            (e.type, e.cid) for e in events if e.cid != cid
        ]
        assert {e.type for e in obs.event_bus().events(cid=cid)} >= {
            "campaign_started", "campaign_finished",
        }
        started = next(e for e in events if e.type == "campaign_started")
        assert started.payload["fingerprint"]
        with obs.correlation(cid):
            ledger = AnalysisLedger(tmp_path / "ledger.jsonl")
            entry = record_fmea(ledger, result, model=psu_simulink)
        assert entry.meta["correlation_id"] == cid

    def test_ledger_digest_ignores_the_correlation_stamp(
        self, tmp_path, psu_simulink, psu_reliability, psu_fmea
    ):
        from repro.obs.ledger import AnalysisLedger, record_fmea

        ledger = AnalysisLedger(tmp_path / "ledger.jsonl")
        with obs.correlation(obs.mint_correlation_id()):
            first = record_fmea(ledger, psu_fmea, model=psu_simulink)
        with obs.correlation(obs.mint_correlation_id()):
            second = record_fmea(ledger, psu_fmea, model=psu_simulink)
        assert first.meta["correlation_id"] != second.meta["correlation_id"]
        assert first.content_digest == second.content_digest


# -- the service acceptance surface ------------------------------------------


def _payload(model, reliability, **extra):
    payload = {
        "kind": "fmea",
        "model": model.to_dict(),
        "reliability": reliability_payload(reliability),
        "config": {
            "sensors": ["CS1"],
            "assume_stable": list(ASSUMED_STABLE),
        },
    }
    payload.update(extra)
    return payload


def _http_request(host, port, method, path, body=None, headers=None,
                  timeout=30.0):
    conn = http.client.HTTPConnection(host, port, timeout=timeout)
    try:
        request_headers = dict(headers or {})
        if body is not None:
            body = json.dumps(body).encode("utf-8")
            request_headers["Content-Type"] = "application/json"
        conn.request(method, path, body=body, headers=request_headers)
        response = conn.getresponse()
        raw = response.read()
        try:
            payload = json.loads(raw)
        except ValueError:
            payload = raw
        return response.status, payload
    finally:
        conn.close()


def _read_sse(host, port, path, headers=None, timeout=30.0):
    """Fetch an SSE stream (the ``limit=`` parameter bounds it) and parse
    the frames into ``(status, [(id, type, data_dict)])``."""
    conn = http.client.HTTPConnection(host, port, timeout=timeout)
    try:
        conn.request("GET", path, headers=headers or {})
        response = conn.getresponse()
        body = response.read().decode("utf-8")
        if response.status != 200:
            return response.status, body
    finally:
        conn.close()
    frames = []
    for block in body.split("\n\n"):
        frame_id, frame_type, data = None, None, None
        for line in block.splitlines():
            if line.startswith("id:"):
                frame_id = int(line[3:].strip())
            elif line.startswith("event:"):
                frame_type = line[6:].strip()
            elif line.startswith("data:"):
                data = json.loads(line[5:].strip())
        if data is not None:
            frames.append((frame_id, frame_type, data))
    return 200, frames


def _poll_done(host, port, job_id, timeout=JOB_TIMEOUT):
    import time as _time

    deadline = _time.monotonic() + timeout
    while _time.monotonic() < deadline:
        status, payload = _http_request(host, port, "GET", f"/jobs/{job_id}")
        assert status == 200
        if payload["state"] in ("done", "failed"):
            return payload
        _time.sleep(0.02)
    raise AssertionError(f"job {job_id} did not finish")


@pytest.fixture
def server(tmp_path):
    obs.enable_events()
    service = AnalysisService(tmp_path / "ledger.jsonl", workers=2)
    srv = AnalysisServiceServer(service, "127.0.0.1", 0).start()
    yield srv
    srv.stop()


class TestJobStreams:
    def test_concurrent_jobs_stream_disjoint_ordered_sequences(
        self, server, psu_simulink, psu_reliability
    ):
        host, port = server.address
        model_b = psu_simulink.to_dict()
        model_b["name"] = "psu-tenant-b"

        payload_a = _payload(psu_simulink, psu_reliability)
        payload_b = _payload(psu_simulink, psu_reliability)
        payload_b["model"] = model_b
        _, accepted_a = _http_request(host, port, "POST", "/jobs", payload_a)
        _, accepted_b = _http_request(host, port, "POST", "/jobs", payload_b)
        job_a = _poll_done(host, port, accepted_a["id"])
        job_b = _poll_done(host, port, accepted_b["id"])
        assert job_a["state"] == "done", job_a.get("error")
        assert job_b["state"] == "done", job_b.get("error")
        cid_a, cid_b = job_a["correlation_id"], job_b["correlation_id"]
        assert cid_a and cid_b and cid_a != cid_b

        status, frames_a = _read_sse(
            host, port, f"/jobs/{accepted_a['id']}/events?since=0&limit=4"
        )
        assert status == 200
        status, frames_b = _read_sse(
            host, port, f"/jobs/{accepted_b['id']}/events?since=0&limit=4"
        )
        assert status == 200
        assert len(frames_a) == 4 and len(frames_b) == 4

        for frames, cid in ((frames_a, cid_a), (frames_b, cid_b)):
            seqs = [frame_id for frame_id, _, _ in frames]
            assert seqs == sorted(seqs)
            assert all(data["cid"] == cid for _, _, data in frames)
        seqs_a = {frame_id for frame_id, _, _ in frames_a}
        seqs_b = {frame_id for frame_id, _, _ in frames_b}
        assert not seqs_a & seqs_b  # fully disjoint streams
        assert [t for _, t, _ in frames_a][0] == "job_submitted"

        # The recorded ledger entries carry the same correlation ids.
        ledger = server.service.ledger
        stamped = {e.meta.get("correlation_id") for e in ledger.entries()}
        assert {cid_a, cid_b} <= stamped

    def test_job_log_exported_as_ledger_artifact(
        self, server, psu_simulink, psu_reliability
    ):
        host, port = server.address
        _, accepted = _http_request(
            host, port, "POST", "/jobs",
            _payload(psu_simulink, psu_reliability),
        )
        job = _poll_done(host, port, accepted["id"])
        assert job["state"] == "done"
        ledger = server.service.ledger
        entry = ledger.resolve(job["result"]["entry"])
        expected = ledger.path.parent / "logs" / f"{accepted['id']}.jsonl"
        assert str(expected) in entry.artifacts
        records = [
            json.loads(line)
            for line in open(expected, encoding="utf-8")
        ]
        assert records
        assert all(r["cid"] == job["correlation_id"] for r in records)
        types = [r["type"] for r in records]
        assert {"job_started", "job_finished"} <= set(types)
        # The artifact is exactly the job's stream on the event bus.
        assert records == [
            e.to_dict()
            for e in obs.event_bus().events(cid=job["correlation_id"])
        ]
        assert records[-1]["type"] == "job_finished"
        assert records[-1]["level"] == "info"

    def test_done_job_answers_with_its_log_attached(
        self, server, psu_simulink, psu_reliability, monkeypatch
    ):
        """The worker publishes ``done`` and ``job_finished`` before it
        exports the job's log; a slow export must not let ``GET /jobs/<id>``
        say ``done`` while the ledger entry still lacks the artifact."""
        import time as _time

        export = AnalysisService._export_job_log

        def slow_export(service, job):
            _time.sleep(0.5)
            export(service, job)

        monkeypatch.setattr(AnalysisService, "_export_job_log", slow_export)
        host, port = server.address
        _, accepted = _http_request(
            host, port, "POST", "/jobs",
            _payload(psu_simulink, psu_reliability),
        )
        job = _poll_done(host, port, accepted["id"])
        assert job["state"] == "done"
        ledger = server.service.ledger
        entry = ledger.resolve(job["result"]["entry"])
        expected = ledger.path.parent / "logs" / f"{accepted['id']}.jsonl"
        assert str(expected) in entry.artifacts

    def test_unknown_job_events_404(self, server):
        host, port = server.address
        status, _ = _http_request(host, port, "GET", "/jobs/nope/events")
        assert status == 404

    def test_last_event_id_resumes_like_since(self, server):
        host, port = server.address
        bus = obs.event_bus()
        base = bus.last_seq()  # the service's own service_started record
        for index in range(6):
            bus.emit("tick", {"index": index})
        status, frames = _read_sse(
            host, port, "/events?limit=2",
            headers={"Last-Event-ID": str(base + 4)},
        )
        assert status == 200
        assert [data["payload"]["index"] for _, _, data in frames] == [4, 5]

    def test_query_since_wins_over_last_event_id(self, server):
        host, port = server.address
        bus = obs.event_bus()
        base = bus.last_seq()
        for index in range(6):
            bus.emit("tick", {"index": index})
        status, frames = _read_sse(
            host, port, f"/events?since={base + 5}&limit=1",
            headers={"Last-Event-ID": "0"},
        )
        assert status == 200
        assert [data["payload"]["index"] for _, _, data in frames] == [5]

    def test_garbage_last_event_id_is_400(self, server):
        host, port = server.address
        obs.event_bus().emit("tick", {})
        for bad in ("abc", "1.5", ""):
            status, _ = _read_sse(
                host, port, "/events?limit=1",
                headers={"Last-Event-ID": bad},
            )
            assert status == 400, bad

    def test_negative_last_event_id_clamps_to_zero(self, server):
        host, port = server.address
        base = obs.event_bus().last_seq()
        obs.event_bus().emit("tick", {"index": 0})
        status, frames = _read_sse(
            host, port, f"/events?limit={base + 1}",
            headers={"Last-Event-ID": "-10"},
        )
        assert status == 200
        # Replayed from the start of the ring, as since=0 would.
        assert [frame_id for frame_id, _, _ in frames] == list(
            range(1, base + 2)
        )
        assert frames[-1][2]["payload"]["index"] == 0


class TestFailureBurstEndToEnd:
    FAILURES = 6

    def test_failure_burst_counts_failed_jobs(
        self, server, psu_simulink, psu_reliability
    ):
        host, port = server.address
        good = _payload(psu_simulink, psu_reliability)
        _, accepted = _http_request(host, port, "POST", "/jobs", good)
        baseline_job = _poll_done(host, port, accepted["id"])
        assert baseline_job["state"] == "done"

        bad = dict(good, model={"format": "repro-simulink/1",
                                "name": "broken",
                                "diagram": {"blocks": "garbage"}})
        for _ in range(self.FAILURES):
            _, accepted = _http_request(host, port, "POST", "/jobs", bad)
            failed = _poll_done(host, port, accepted["id"])
            assert failed["state"] == "failed"

        status, health = _http_request(host, port, "GET", "/healthz")
        assert status == 200
        assert health["service"]["jobs"]["failed"] == self.FAILURES
        assert "slo" not in health

        # A recompute after the burst computes and records as usual.
        recompute = dict(good)
        recompute["config"] = dict(good["config"], threshold=0.35)
        _, accepted = _http_request(host, port, "POST", "/jobs", recompute)
        candidate_job = _poll_done(host, port, accepted["id"])
        assert candidate_job["state"] == "done"
        assert candidate_job["cached"] is False

        ledger = server.service.ledger
        for job in (baseline_job, candidate_job):
            entry = ledger.resolve(job["result"]["entry"])
            assert "slo" not in entry.meta
