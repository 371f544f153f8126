"""The always-on analysis service (:mod:`repro.service`).

Acceptance surface from the service PR: resubmitting an identical model +
config must be served from the ledger — no recompute, the
``service_cache_hits`` counter increments, and the rows are bit-identical
to the computed ones.  Plus the multi-tenant shape: concurrent clients
hammering fmea/fmeda jobs over overlapping models see the expected
cache-hit rate and a bounded cache-hit latency, and the HTTP surface
(``POST /jobs`` / ``GET /jobs[/<id>]``) validates inputs.
"""

import http.client
import json
import re
import threading
import time

import pytest

from repro import obs
from repro.casestudies.power_supply import ASSUMED_STABLE
from repro.obs.ledger import AnalysisLedger
from repro.service import (
    AnalysisRequest,
    AnalysisService,
    AnalysisServiceServer,
    ServiceError,
    reliability_from_payload,
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


def _payload(model, reliability, kind="fmea", **extra):
    payload = {
        "kind": kind,
        "model": model.to_dict(),
        "reliability": reliability_payload(reliability),
        "config": {
            "sensors": ["CS1"],
            "assume_stable": list(ASSUMED_STABLE),
        },
    }
    payload.update(extra)
    return payload


@pytest.fixture
def fmea_payload(psu_simulink, psu_reliability):
    return _payload(psu_simulink, psu_reliability)


@pytest.fixture
def service(tmp_path):
    with AnalysisService(tmp_path / "ledger.jsonl", workers=2) as svc:
        yield svc


def _fmeda_payload(fmea_payload, psu_fmea):
    row = next(r for r in psu_fmea.rows if r.safety_related)
    return dict(
        fmea_payload,
        kind="fmeda",
        deployments=[{
            "component": row.component,
            "failure_mode": row.failure_mode,
            "mechanism": "SM-test",
            "coverage": 0.9,
            "cost": 1.0,
        }],
    )


def _mechanisms(psu_mechanisms):
    return [
        {
            "component_class": spec.component_class,
            "failure_mode": spec.failure_mode,
            "name": spec.name,
            "coverage": spec.coverage,
            "cost": spec.cost,
        }
        for spec in psu_mechanisms.specs()
    ]


def _search_payload(fmea_payload, psu_mechanisms):
    return dict(
        fmea_payload,
        kind="search",
        mechanisms=_mechanisms(psu_mechanisms),
        target_asil="ASIL-A",
    )


def _with_config(body, **config):
    return dict(body, config=dict(body["config"], **config))


def _edit_first(body, field, **changes):
    """``body`` with its first ``field`` entry updated by ``changes``
    (a ``None`` value removes the key)."""
    first = {
        k: v for k, v in dict(body[field][0], **changes).items()
        if v is not None
    }
    return dict(body, **{field: [first] + list(body[field][1:])})


#: Malformed FMEDA/search bodies, each refused at submit with a message
#: naming the field: (id, build from (fmeda body, search body), message).
MALFORMED_DERIVED = [
    ("target-unknown", lambda f, s: dict(s, target_asil="ASIL-Z"),
     "target_asil"),
    ("target-empty", lambda f, s: dict(s, target_asil=""), "target_asil"),
    ("deployment-no-component",
     lambda f, s: _edit_first(f, "deployments", component=None),
     r"deployments\[0\]\.component"),
    ("deployment-no-failure-mode",
     lambda f, s: _edit_first(f, "deployments", failure_mode=None),
     r"deployments\[0\]\.failure_mode"),
    ("deployment-coverage-string",
     lambda f, s: _edit_first(f, "deployments", coverage="0.9"),
     r"deployments\[0\]\.coverage"),
    ("deployment-coverage-above-one",
     lambda f, s: _edit_first(f, "deployments", coverage=1.5),
     r"deployments\[0\]\.coverage"),
    ("deployment-cost-negative",
     lambda f, s: _edit_first(f, "deployments", cost=-1.0),
     r"deployments\[0\]\.cost"),
    ("deployment-not-object", lambda f, s: dict(f, deployments=["x"]),
     r"deployments\[0\]"),
    ("mechanism-no-name", lambda f, s: _edit_first(s, "mechanisms", name=None),
     r"mechanisms\[0\]\.name"),
    ("mechanism-cost-bool",
     lambda f, s: _edit_first(s, "mechanisms", cost=True),
     r"mechanisms\[0\]\.cost"),
]


#: ``job_timeout`` values a service job ignores, valid or not.
IGNORED_JOB_TIMEOUTS = [-1, 0, float("nan"), 0.5]


def _finish(service, job, timeout=JOB_TIMEOUT):
    service.wait(job.id, timeout)
    assert job.state in ("done", "failed"), job.state
    return job


# -- request validation ------------------------------------------------------


class TestRequestValidation:
    def test_unknown_kind_rejected(self, fmea_payload):
        bad = dict(fmea_payload, kind="fmeca")
        with pytest.raises(ServiceError, match="kind"):
            AnalysisRequest.from_payload(bad)

    def test_model_must_be_simulink_payload(self, fmea_payload):
        with pytest.raises(ServiceError, match="repro-simulink"):
            AnalysisRequest.from_payload(dict(fmea_payload, model={"x": 1}))
        with pytest.raises(ServiceError, match="repro-simulink"):
            AnalysisRequest.from_payload(dict(fmea_payload, model="m.json"))

    def test_search_needs_catalogue(self, fmea_payload):
        with pytest.raises(ServiceError, match="mechanisms"):
            AnalysisRequest.from_payload(dict(fmea_payload, kind="search"))

    def test_reliability_roundtrip(self, psu_reliability):
        payload = reliability_payload(psu_reliability)
        clone = reliability_from_payload(payload)
        assert reliability_payload(clone) == payload

    def test_fingerprint_matches_materialised_model(
        self, fmea_payload, psu_simulink, psu_reliability
    ):
        from repro.safety.resilience import campaign_fingerprint

        request = AnalysisRequest.from_payload(fmea_payload)
        expected = campaign_fingerprint(
            psu_simulink, psu_reliability, "dc", 5e-3, 5e-5, None
        )
        assert request.fingerprint() == expected

    def test_solver_config_normalised_at_submit(self, fmea_payload):
        absent = AnalysisRequest.from_payload(fmea_payload)
        assert (
            absent.config["analysis"], absent.config["t_stop"],
            absent.config["dt"],
        ) == ("dc", 5e-3, 5e-5)
        nulls = json.loads(json.dumps(fmea_payload))
        nulls["config"].update(analysis=None, t_stop=None, dt=None)
        # `null` means the default: the fingerprint hashes what the
        # campaign runs, not the string "None".
        assert AnalysisRequest.from_payload(nulls).fingerprint() == (
            absent.fingerprint()
        )
        ints = json.loads(json.dumps(fmea_payload))
        ints["config"].update(analysis="transient", t_stop=1, dt=1)
        request = AnalysisRequest.from_payload(ints)
        assert request.config["t_stop"] == 1.0
        assert isinstance(request.config["t_stop"], float)

    @pytest.mark.parametrize(
        "key, value, message",
        [
            ("analysis", "ac", "config.analysis"),
            ("analysis", 1, "config.analysis"),
            ("analysis", ["dc"], "config.analysis"),
            ("t_stop", 0, "config.t_stop"),
            ("t_stop", -1e-3, "config.t_stop"),
            ("t_stop", "5e-3", "config.t_stop"),
            ("t_stop", True, "config.t_stop"),
            ("t_stop", float("inf"), "config.t_stop"),
            ("t_stop", 10 ** 400, "config.t_stop"),
            ("dt", float("nan"), "config.dt"),
            ("dt", [5e-5], "config.dt"),
        ],
    )
    def test_malformed_solver_config_rejected(
        self, fmea_payload, key, value, message
    ):
        bad = json.loads(json.dumps(fmea_payload))
        bad["config"][key] = value
        with pytest.raises(ServiceError, match=message):
            AnalysisRequest.from_payload(bad)

    def test_campaign_runs_the_fingerprinted_config(
        self, tmp_path, fmea_payload
    ):
        """The service fingerprint equals the campaign's own token by
        construction: both read the normalised config."""
        payload = json.loads(json.dumps(fmea_payload))
        payload["config"].update(analysis=None, t_stop=2, dt=1e-4)
        request = AnalysisRequest.from_payload(payload)
        service = AnalysisService(tmp_path / "ledger.jsonl")
        model = service._materialize_model(request).model
        campaign = service._campaign(request, model, request.fingerprint())
        assert (campaign.analysis, campaign.t_stop, campaign.dt) == (
            "dc", 2.0, 1e-4
        )
        assert campaign._campaign_token() == request.fingerprint()

    @pytest.mark.parametrize(
        "build, message",
        [case[1:] for case in MALFORMED_DERIVED],
        ids=[case[0] for case in MALFORMED_DERIVED],
    )
    def test_malformed_search_and_fmeda_payloads_rejected(
        self, fmea_payload, psu_fmea, psu_mechanisms, build, message
    ):
        bad = build(
            _fmeda_payload(fmea_payload, psu_fmea),
            _search_payload(fmea_payload, psu_mechanisms),
        )
        with pytest.raises(ServiceError, match=message):
            AnalysisRequest.from_payload(bad)

    def test_fmea_cache_key_is_the_base_question(
        self, fmea_payload, psu_fmea, psu_mechanisms
    ):
        fmea = AnalysisRequest.from_payload(fmea_payload)
        for body in (
            _fmeda_payload(fmea_payload, psu_fmea),
            _search_payload(fmea_payload, psu_mechanisms),
        ):
            request = AnalysisRequest.from_payload(body)
            assert request.cache_key() != fmea.cache_key()
            assert request.fmea_cache_key() == fmea.cache_key()
        assert fmea.fmea_cache_key() == fmea.cache_key()
        other = AnalysisRequest.from_payload(
            _with_config(_fmeda_payload(fmea_payload, psu_fmea),
                         threshold=0.5)
        )
        assert other.fmea_cache_key() != fmea.cache_key()

    def test_cache_key_folds_in_classification_config(self, fmea_payload):
        base = AnalysisRequest.from_payload(fmea_payload)
        tweaked_payload = json.loads(json.dumps(fmea_payload))
        tweaked_payload["config"]["threshold"] = 0.5
        tweaked = AnalysisRequest.from_payload(tweaked_payload)
        # The campaign fingerprint deliberately ignores the classification
        # threshold; the service cache key must not.
        assert base.fingerprint() == tweaked.fingerprint()
        assert base.cache_key() != tweaked.cache_key()


# -- lifecycle ---------------------------------------------------------------


class TestLifecycle:
    def test_submit_requires_running_service(self, tmp_path, fmea_payload):
        svc = AnalysisService(tmp_path / "ledger.jsonl")
        with pytest.raises(ServiceError, match="not running"):
            svc.submit(fmea_payload)

    def test_unknown_job_raises(self, service):
        with pytest.raises(ServiceError, match="unknown job"):
            service.job("nope")

    def test_status_shape(self, service):
        status = service.status()
        assert status["running"] is True
        assert status["workers"] == 2
        assert status["cache_hits"] == 0
        assert "job_wall_p99" in status
        # No burn-rate engine: the summary carries no SLO report.
        assert "slo" not in status

    def test_jobs_are_minted_distinct_correlation_ids(
        self, service, fmea_payload
    ):
        first = _finish(service, service.submit(fmea_payload))
        second = _finish(service, service.submit(fmea_payload))
        assert first.correlation_id and second.correlation_id
        assert first.correlation_id != second.correlation_id
        assert first.to_dict()["correlation_id"] == first.correlation_id
        # The cached job still gets its own id even though it recomputes
        # nothing.
        assert second.cached is True


# -- compute + cache ---------------------------------------------------------


class TestComputeAndCache:
    def test_resubmission_served_from_ledger_bit_identical(
        self, service, fmea_payload
    ):
        first = _finish(service, service.submit(fmea_payload))
        assert first.state == "done"
        assert first.cached is False
        assert first.result["from_cache"] is False
        assert first.result["rows"]
        assert first.result["spfm"] > 0

        second = _finish(service, service.submit(fmea_payload))
        assert second.state == "done"
        assert second.cached is True
        assert second.result["from_cache"] is True
        # Bit-identical: the cached rows ARE the recorded rows.
        assert second.result["rows"] == first.result["rows"]
        assert second.result["spfm"] == first.result["spfm"]
        assert second.result["asil"] == first.result["asil"]
        assert second.result["entry"] == first.result["entry"]
        assert second.fingerprint == first.fingerprint

        assert int(obs.counter("service_cache_hits").value) == 1
        assert int(obs.counter("service_cache_misses").value) == 1
        # Exactly ONE ledger entry: the hit appended nothing.
        entries = service.ledger.entries()
        assert len(entries) == 1
        assert entries[0].meta["service"] is True
        assert entries[0].meta["service_cache_key"] == first.cache_key

    def test_solver_backend_config_is_an_ignored_unknown_key(
        self, service, fmea_payload
    ):
        """The system's size picks the MNA solver; a ``solver_backend``
        key is ignored like any other unknown config key: same cache key,
        same answer, served from the ledger."""
        first = _finish(service, service.submit(fmea_payload))
        for value in ("sparse", "cuda"):
            pinned = _with_config(fmea_payload, solver_backend=value)
            assert (
                AnalysisRequest.from_payload(pinned).cache_key()
                == first.cache_key
            )
            job = _finish(service, service.submit(pinned))
            assert job.state == "done", job.error
            assert job.cached is True
            assert job.result["rows"] == first.result["rows"]

    @pytest.mark.parametrize("value", IGNORED_JOB_TIMEOUTS)
    def test_job_timeout_config_is_an_ignored_unknown_key(
        self, service, fmea_payload, value
    ):
        """A campaign runs each job once, with no deadline, so
        ``job_timeout`` is no service option: any value is ignored like an
        unknown key (same cache key, same answer, served from the ledger)
        and never reaches the campaign."""
        first = _finish(service, service.submit(fmea_payload))
        timed = _with_config(fmea_payload, job_timeout=value)
        request = AnalysisRequest.from_payload(timed)
        assert request.cache_key() == first.cache_key
        model = service._materialize_model(request).model
        campaign = service._campaign(request, model, request.fingerprint())
        assert not hasattr(campaign, "job_timeout")
        job = _finish(service, service.submit(timed))
        assert job.state == "done", job.error
        assert job.cached is True
        assert job.result["rows"] == first.result["rows"]

    def test_threshold_change_recomputes(self, service, fmea_payload):
        _finish(service, service.submit(fmea_payload))
        tweaked = json.loads(json.dumps(fmea_payload))
        tweaked["config"]["threshold"] = 0.9
        job = _finish(service, service.submit(tweaked))
        assert job.state == "done"
        assert job.cached is False
        assert int(obs.counter("service_cache_misses").value) == 2

    def test_model_mutation_recomputes(
        self, service, fmea_payload, psu_simulink, psu_reliability
    ):
        _finish(service, service.submit(fmea_payload))
        mutated = psu_simulink.to_dict()
        mutated["diagram"]["blocks"][0]["parameters"] = dict(
            mutated["diagram"]["blocks"][0].get("parameters", {}),
            service_test_marker=1.0,
        )
        payload = {
            "kind": "fmea",
            "model": mutated,
            "reliability": reliability_payload(psu_reliability),
            "config": {
                "sensors": ["CS1"],
                "assume_stable": list(ASSUMED_STABLE),
            },
        }
        job = _finish(service, service.submit(payload))
        assert job.cached is False
        assert int(obs.counter("service_cache_hits").value) == 0

    def test_fmeda_job(self, service, fmea_payload, psu_fmea):
        fmeda_payload = _fmeda_payload(fmea_payload, psu_fmea)
        job = _finish(service, service.submit(fmeda_payload))
        assert job.state == "done", job.error
        assert job.result["rows"]
        assert job.result["asil"]
        again = _finish(service, service.submit(fmeda_payload))
        assert again.cached is True
        assert again.result["rows"] == job.result["rows"]
        # fmea and fmeda over the same model never share a cache entry.
        plain = _finish(service, service.submit(fmea_payload))
        assert plain.cached is False

    def test_search_job(self, service, fmea_payload, psu_mechanisms):
        mechanisms = _mechanisms(psu_mechanisms)
        search_payload = _search_payload(fmea_payload, psu_mechanisms)
        job = _finish(service, service.submit(search_payload))
        assert job.state == "done", job.error
        assert job.result["target_asil"] == "ASIL-A"
        assert "asil" in job.result
        again = _finish(service, service.submit(search_payload))
        assert again.cached is True
        # An unreachable target is a real (but uncacheable) answer.
        unreachable = dict(search_payload, target_asil="ASIL-D",
                           mechanisms=mechanisms[:1])
        job = _finish(service, service.submit(unreachable))
        assert job.state == "done", job.error
        if job.result.get("plan", "") is None:
            assert job.cached is False

    @pytest.mark.parametrize(
        "kind, extra",
        [
            ("fmea", ()),
            ("fmeda", ("total_cost",)),
            ("search", ("cost", "target_asil")),
        ],
    )
    def test_cached_answer_equals_computed_answer(
        self, service, fmea_payload, psu_fmea, psu_mechanisms, kind, extra
    ):
        payload = {
            "fmea": fmea_payload,
            "fmeda": _fmeda_payload(fmea_payload, psu_fmea),
            "search": _search_payload(fmea_payload, psu_mechanisms),
        }[kind]
        first = _finish(service, service.submit(payload))
        second = _finish(service, service.submit(payload))
        assert first.state == second.state == "done", (
            first.error, second.error,
        )
        assert (first.cached, second.cached) == (False, True)
        assert (first.result["from_cache"], second.result["from_cache"]) == (
            False, True,
        )

        def without_from_cache(result):
            return {k: v for k, v in result.items() if k != "from_cache"}

        assert without_from_cache(second.result) == without_from_cache(
            first.result
        )
        for key in ("rows", "spfm", "asil", "entry", "metrics") + extra:
            assert first.result.get(key) is not None, key

    def test_failed_job_reports_error(self, service, fmea_payload):
        """A model that passes validation but fails to materialise, as a
        mapping or as a body: the job fails with the exception class,
        records nothing, and leaves no model entry or alias.  The same
        submission again (for a body, a request-memo hit) fails the same
        way."""
        ghost = {"source": "ghost", "source_port": "p",
                 "target": "ghost", "target_port": "n"}
        cases = [
            ({"blocks": "garbage"}, "TypeError"),
            ({"blocks": [], "lines": [ghost]}, "SimulinkError"),
        ]
        failed = memo_hits = 0
        for diagram, error in cases:
            bad = dict(fmea_payload, model={"format": "repro-simulink/1",
                                            "name": "broken",
                                            "diagram": diagram})
            for submission in (bad, json.dumps(bad).encode("utf-8")):
                for _ in range(2):
                    job = _finish(service, service.submit(submission))
                    failed += 1
                    assert job.state == "failed"
                    assert job.error.startswith(f"{error}: "), job.error
                    assert service.ledger.entries() == []
                    assert not service._model_cache
                    assert not service._model_aliases
                memo_hits += isinstance(submission, bytes)
        assert int(obs.counter("service_jobs_failed").value) == failed
        assert int(obs.counter("service_request_memo_hits").value) == (
            memo_hits
        )

    def test_job_events_ride_the_bus(self, service, fmea_payload):
        obs.enable_events()
        types = []
        obs.event_bus().add_callback(lambda e: types.append(e.type))
        _finish(service, service.submit(fmea_payload))
        assert "job_submitted" in types
        assert "job_started" in types
        assert "job_finished" in types


# -- single-flight coalescing -------------------------------------------------


class TestCoalescing:
    """Identical concurrent submissions share one computation."""

    CLIENTS = 8

    def _gated_compute(self, svc):
        """Wrap the service's compute so the test controls when the
        leader finishes — guaranteeing the other submissions are in
        flight while it runs."""
        real = svc._compute
        entered = threading.Event()
        release = threading.Event()

        def gated(request, job):
            entered.set()
            assert release.wait(JOB_TIMEOUT), "test never released compute"
            return real(request, job)

        svc._compute = gated
        return entered, release

    def test_identical_submissions_compute_once(self, tmp_path, fmea_payload):
        with AnalysisService(
            tmp_path / "ledger.jsonl", workers=self.CLIENTS
        ) as svc:
            entered, release = self._gated_compute(svc)
            jobs = [
                svc.submit(dict(fmea_payload, tenant=f"t{i}"))
                for i in range(self.CLIENTS)
            ]
            assert entered.wait(JOB_TIMEOUT)
            # Every other job must reach the flight registry and park
            # behind the (blocked) leader before we let it finish.
            deadline = time.monotonic() + JOB_TIMEOUT
            while (
                int(obs.counter("service_coalesced_jobs").value)
                < self.CLIENTS - 1
            ):
                assert time.monotonic() < deadline, "followers never parked"
                time.sleep(0.01)
            assert svc.status()["inflight"] == 1
            release.set()
            finished = [_finish(svc, job) for job in jobs]

            assert all(job.state == "done" for job in finished), [
                job.error for job in finished
            ]
            leaders = [job for job in finished if not job.coalesced]
            followers = [job for job in finished if job.coalesced]
            assert len(leaders) == 1
            assert len(followers) == self.CLIENTS - 1
            leader = leaders[0]
            # Exactly one computation: one miss, one ledger entry, and
            # nobody counted as a cache hit.
            assert int(obs.counter("service_cache_misses").value) == 1
            assert int(obs.counter("service_cache_hits").value) == 0
            assert (
                int(obs.counter("service_coalesced_jobs").value)
                == self.CLIENTS - 1
            )
            assert len(svc.ledger.entries()) == 1
            for job in followers:
                assert job.coalesced_with == leader.correlation_id
                assert job.result["rows"] == leader.result["rows"]
                assert job.result["coalesced"] is True
                assert job.to_dict()["coalesced"] is True
                assert job.to_dict()["coalesced_with"] == leader.correlation_id
            assert "coalesced" not in leader.result
            assert svc.status()["inflight"] == 0
            assert svc.status()["coalesced_jobs"] == self.CLIENTS - 1

    def test_follower_retries_when_leader_fails(self, tmp_path, fmea_payload):
        with AnalysisService(tmp_path / "ledger.jsonl", workers=2) as svc:
            real = svc._compute
            entered = threading.Event()
            release = threading.Event()
            calls = []
            calls_lock = threading.Lock()

            def flaky(request, job):
                with calls_lock:
                    first = not calls
                    calls.append(job.id)
                if first:
                    entered.set()
                    assert release.wait(JOB_TIMEOUT)
                    raise RuntimeError("leader lost its checkpoint")
                return real(request, job)

            svc._compute = flaky
            first = svc.submit(dict(fmea_payload, tenant="a"))
            assert entered.wait(JOB_TIMEOUT)
            second = svc.submit(dict(fmea_payload, tenant="b"))
            deadline = time.monotonic() + JOB_TIMEOUT
            while int(obs.counter("service_coalesced_jobs").value) < 1:
                assert time.monotonic() < deadline, "follower never parked"
                time.sleep(0.01)
            release.set()
            first = _finish(svc, first)
            second = _finish(svc, second)

            assert first.state == "failed"
            assert "leader lost its checkpoint" in first.error
            # The follower did not inherit the failure: it retried,
            # led its own flight, and computed.
            assert second.state == "done", second.error
            assert second.coalesced is False
            assert second.coalesced_with == ""
            assert second.result["rows"]
            assert len(calls) == 2
            assert len(svc.ledger.entries()) == 1

    def test_different_payloads_do_not_coalesce(self, tmp_path, fmea_payload):
        with AnalysisService(tmp_path / "ledger.jsonl", workers=2) as svc:
            tweaked = json.loads(json.dumps(fmea_payload))
            tweaked["config"]["threshold"] = 0.9
            a = _finish(svc, svc.submit(fmea_payload))
            b = _finish(svc, svc.submit(tweaked))
            assert a.state == b.state == "done"
            assert not a.coalesced and not b.coalesced
            assert int(obs.counter("service_coalesced_jobs").value) == 0
            assert len(svc.ledger.entries()) == 2


# -- multi-tenant concurrency (the satellite acceptance test) ----------------


def _http_request(host, port, method, path, body=None, timeout=30.0):
    conn = http.client.HTTPConnection(host, port, timeout=timeout)
    try:
        headers = {}
        if body is not None:
            body = json.dumps(body).encode("utf-8")
            headers["Content-Type"] = "application/json"
        conn.request(method, path, body=body, headers=headers)
        response = conn.getresponse()
        raw = response.read()
        try:
            payload = json.loads(raw)
        except ValueError:
            payload = raw
        return response.status, payload
    finally:
        conn.close()


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
    service = AnalysisService(tmp_path / "ledger.jsonl", workers=3)
    srv = AnalysisServiceServer(service, "127.0.0.1", 0).start()
    yield srv
    srv.stop()


class TestMultiTenantConcurrency:
    CLIENTS = 6

    def test_overlapping_tenants_hit_the_cache(
        self, server, psu_simulink, psu_reliability, psu_fmea
    ):
        host, port = server.address

        model_a = psu_simulink.to_dict()
        model_b = psu_simulink.to_dict()
        model_b["name"] = "psu-tenant-b"
        row = next(r for r in psu_fmea.rows if r.safety_related)
        payloads = [
            _payload(psu_simulink, psu_reliability) | {"model": model_a},
            _payload(psu_simulink, psu_reliability) | {"model": model_b},
            _payload(psu_simulink, psu_reliability) | {
                "model": model_a,
                "kind": "fmeda",
                "deployments": [{
                    "component": row.component,
                    "failure_mode": row.failure_mode,
                    "mechanism": "SM-test",
                    "coverage": 0.9,
                }],
            },
        ]

        # Seed: compute each distinct analysis once.
        seeds = []
        for payload in payloads:
            status, accepted = _http_request(
                host, port, "POST", "/jobs", payload
            )
            assert status == 202
            seeds.append(_poll_done(host, port, accepted["id"]))
        assert all(seed["state"] == "done" for seed in seeds)
        assert all(seed["cached"] is False for seed in seeds)

        # Hammer: CLIENTS threads × all payloads, concurrently.
        results = []
        results_lock = threading.Lock()
        errors = []

        def client(index):
            try:
                mine = []
                for offset in range(len(payloads)):
                    payload = dict(
                        payloads[(index + offset) % len(payloads)],
                        tenant=f"tenant-{index}",
                    )
                    status, accepted = _http_request(
                        host, port, "POST", "/jobs", payload
                    )
                    assert status == 202
                    mine.append(accepted["id"])
                finished = [
                    _poll_done(host, port, job_id) for job_id in mine
                ]
                with results_lock:
                    results.extend(finished)
            except Exception as exc:  # noqa: BLE001 — surfaced below
                errors.append(exc)

        threads = [
            threading.Thread(target=client, args=(i,))
            for i in range(self.CLIENTS)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=JOB_TIMEOUT)
        assert not errors, errors

        total = self.CLIENTS * len(payloads)
        assert len(results) == total
        assert all(job["state"] == "done" for job in results)
        # Cache-hit rate: every hammered job was seeded, so every one is a
        # cache hit — no recompute happened anywhere.
        assert all(job["cached"] is True for job in results)
        assert int(obs.counter("service_cache_hits").value) == total
        assert int(obs.counter("service_cache_misses").value) == len(payloads)

        # Bit-identical: every cached result matches its seed, per key.
        by_fingerprint = {}
        for seed in seeds:
            key = (seed["fingerprint"], seed["kind"])
            by_fingerprint[key] = seed["result"]["rows"]
        for job in results:
            key = (job["fingerprint"], job["kind"])
            assert job["result"]["rows"] == by_fingerprint[key]

        # p99 latency bound on cache hits: a hit is a ledger scan, not a
        # campaign; even with queueing it stays well under a compute.
        walls = sorted(job["wall_seconds"] for job in results)
        p99 = walls[min(len(walls) - 1, int(0.99 * len(walls)))]
        assert p99 < 5.0, f"cache-hit p99 {p99:.3f}s"
        status = server.service.status()
        assert status["job_wall_p99"] >= 0.0

        # The ledger gained nothing beyond the seeds.
        assert len(server.service.ledger.entries()) == len(payloads)


# -- HTTP surface ------------------------------------------------------------


class TestHTTPEndpoints:
    def test_submit_poll_and_list(self, server, fmea_payload):
        host, port = server.address
        status, accepted = _http_request(
            host, port, "POST", "/jobs", fmea_payload
        )
        assert status == 202
        assert accepted["url"] == f"/jobs/{accepted['id']}"
        done = _poll_done(host, port, accepted["id"])
        assert done["state"] == "done"
        assert done["result"]["rows"]

        status, listing = _http_request(host, port, "GET", "/jobs")
        assert status == 200
        assert listing["service"]["workers"] == 3
        summaries = {job["id"]: job for job in listing["jobs"]}
        assert accepted["id"] in summaries
        # The listing carries summaries, not result payloads.
        assert "result" not in summaries[accepted["id"]]

    def test_healthz_and_metrics_carry_service_state(
        self, server, fmea_payload
    ):
        host, port = server.address
        _, accepted = _http_request(host, port, "POST", "/jobs", fmea_payload)
        _poll_done(host, port, accepted["id"])
        _, accepted = _http_request(host, port, "POST", "/jobs", fmea_payload)
        _poll_done(host, port, accepted["id"])

        status, health = _http_request(host, port, "GET", "/healthz")
        assert status == 200
        assert health["service"]["cache_hits"] == 1
        assert health["service"]["jobs"]["done"] == 2
        # The resubmission's bytes were identical: keyed by their hash.
        assert health["service"]["request_memo_entries"] == 1
        assert "slo" not in health
        assert "slo" not in health["service"]

        status, metrics = _http_request(host, port, "GET", "/metrics")
        assert status == 200
        text = metrics.decode("utf-8")
        assert "service_cache_hits 1" in text
        assert "service_request_memo_hits 1" in text
        assert "service_jobs_submitted 2" in text
        # The three latency histograms: job wall, queue wait, cache hit.
        assert "service_job_wall_seconds_count 2" in text
        assert "service_queue_wait_seconds_count 2" in text
        assert "service_cache_hit_wall_seconds_count 1" in text

    def test_invalid_json_is_400(self, server):
        conn = http.client.HTTPConnection(*server.address, timeout=10)
        try:
            conn.request(
                "POST", "/jobs", body=b"{not json",
                headers={"Content-Type": "application/json"},
            )
            response = conn.getresponse()
            payload = json.loads(response.read())
        finally:
            conn.close()
        assert response.status == 400
        assert "error" in payload

    def test_malformed_body_is_400_twice_and_never_memoised(self, server):
        for _ in range(2):
            conn = http.client.HTTPConnection(*server.address, timeout=10)
            try:
                conn.request("POST", "/jobs", body=b"{not json")
                response = conn.getresponse()
                payload = json.loads(response.read())
            finally:
                conn.close()
            assert response.status == 400, payload
        _, health = _http_request(*server.address, "GET", "/healthz")
        assert health["service"]["request_memo_entries"] == 0
        assert server.service.jobs() == []

    def test_bad_request_is_400(self, server, fmea_payload):
        status, payload = _http_request(
            *server.address, "POST", "/jobs",
            dict(fmea_payload, kind="nope"),
        )
        assert status == 400
        assert "kind" in payload["error"]

    @pytest.mark.parametrize(
        "key, value",
        [
            ("analysis", "ac"),
            ("analysis", 3),
            ("t_stop", 0),
            ("t_stop", -1.0),
            ("t_stop", "soon"),
            ("t_stop", float("inf")),
            ("dt", float("nan")),
            ("dt", False),
        ],
    )
    def test_malformed_solver_config_is_400(
        self, server, fmea_payload, key, value
    ):
        bad = json.loads(json.dumps(fmea_payload))
        bad["config"][key] = value
        status, payload = _http_request(
            *server.address, "POST", "/jobs", bad
        )
        assert status == 400
        assert f"config.{key}" in payload["error"]
        # Refused at submit: no job was queued for a worker to fail.
        assert server.service.jobs() == []

    @pytest.mark.parametrize("value", IGNORED_JOB_TIMEOUTS)
    def test_job_timeout_config_is_accepted(
        self, server, fmea_payload, value
    ):
        body = _with_config(fmea_payload, job_timeout=value)
        status, accepted = _http_request(
            *server.address, "POST", "/jobs", body
        )
        assert status == 202
        done = _poll_done(*server.address, accepted["id"])
        assert done["state"] == "done"

    @pytest.mark.parametrize(
        "build, message",
        [case[1:] for case in MALFORMED_DERIVED],
        ids=[case[0] for case in MALFORMED_DERIVED],
    )
    def test_malformed_search_and_fmeda_payloads_are_400(
        self, server, fmea_payload, psu_fmea, psu_mechanisms, build, message
    ):
        bad = build(
            _fmeda_payload(fmea_payload, psu_fmea),
            _search_payload(fmea_payload, psu_mechanisms),
        )
        status, payload = _http_request(
            *server.address, "POST", "/jobs", bad
        )
        assert status == 400
        assert re.search(message, payload["error"])
        # Refused before any campaign: no job was queued.
        assert server.service.jobs() == []

    def test_unknown_job_is_404(self, server):
        status, payload = _http_request(
            *server.address, "GET", "/jobs/ffffffffffff"
        )
        assert status == 404
        assert "error" in payload

    def test_unknown_post_path_is_404(self, server):
        status, _ = _http_request(
            *server.address, "POST", "/nope", {"x": 1}
        )
        assert status == 404


# -- facade ------------------------------------------------------------------


class TestSameFacade:
    def test_serve_analysis_shares_the_ledger(self, tmp_path, fmea_payload):
        from repro.same import SAME

        same = SAME()
        same.set_ledger(tmp_path / "ledger.jsonl")
        server = same.serve_analysis()
        try:
            job = server.service.submit(fmea_payload)
            server.service.wait(job.id, JOB_TIMEOUT)
            assert job.state == "done", job.error
        finally:
            server.stop()
        # The service recorded into the facade's ledger.
        assert same.ledger.entries()

    def test_serve_analysis_requires_ledger(self):
        from repro.same import SAME

        with pytest.raises(Exception, match="ledger"):
            SAME().serve_analysis()


# -- removed surfaces --------------------------------------------------------


class TestNoSloSurface:
    """The SLO plane is gone: its CLI verb and flag are parser errors."""

    def test_slo_verb_rejected_by_parser(self, tmp_path):
        from repro.cli import main

        for argv in (
            ["slo", "--url", "http://127.0.0.1:9"],
            ["slo", "--ledger", str(tmp_path / "ledger.jsonl")],
        ):
            with pytest.raises(SystemExit) as excinfo:
                main(argv)
            assert excinfo.value.code == 2

    def test_serve_analysis_slo_flag_rejected_by_parser(self, tmp_path):
        from repro.cli import main

        with pytest.raises(SystemExit) as excinfo:
            main([
                "serve-analysis", "--ledger", str(tmp_path / "ledger.jsonl"),
                "--max-seconds", "0.1", "--slo", "x.json",
            ])
        assert excinfo.value.code == 2
        assert not (tmp_path / "ledger.jsonl").exists()
