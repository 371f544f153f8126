"""Content keys: computed once per job, bit-identical to their definitions.

Three properties pin the keying that the cache, checkpoints and ledger rely
on:

- :func:`canonical_json` is exact: for every input, its text equals
  ``json.dumps(_canonical(v), sort_keys=True)`` in compact form, whether it
  takes the direct-dump fast path or falls back to the walk;
- the power-supply request keeps the fingerprint, cache key and digests it
  has always had (golden values), so existing ledgers, checkpoints and
  cache keys keep matching;
- a service job hashes each payload once: one campaign fingerprint per job,
  one ledger model digest per model across FMEA, FMEDA and search, and each
  recorded digest equals a from-scratch recomputation;
- a byte-identical resubmission hashes its body and nothing else: it
  parses nothing and computes no fingerprint, yet gets the same keys and
  answer, and only a body that keyed without error is memoised;
- a cached model is converted to its netlist once, and concurrent
  campaigns sharing that conversion match naive injection row for row;
- a cached model's netlist is factored once: concurrent campaigns share
  its primed solver, match naive injection, and each counts only its own
  solves.
"""

import hashlib
import itertools
import json
import math
import sys
import threading
import time
from pathlib import Path
from types import MappingProxyType, SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import obs
from repro import simulink
from repro.circuit import PrimedSystem, SolveStats, backends
from repro.casestudies import (
    SYSTEM_A_ASSUMED_STABLE,
    SYSTEM_B_ASSUMED_STABLE,
    build_power_grid_simulink,
    build_power_supply_simulink,
    build_system_a_simulink,
    build_system_b_simulink,
    power_grid_injection_sample,
    power_network_reliability,
    power_supply_reliability,
)
from repro.casestudies.power_supply import (
    ASSUMED_STABLE,
    build_power_supply_ssam,
)
from repro.decisive.process import DecisiveProcess
from repro.metamodel import core as metamodel_core
from repro.obs import ledger as ledger_mod
from repro.obs.ledger import AnalysisLedger, LedgerEntry
from repro.safety import campaign as campaign_mod
from repro.safety import resilience
from repro.safety.campaign import FaultInjectionCampaign
from repro.safety.metrics import asil_from_spfm, spfm
from repro.safety.resilience import _canonical, canonical_json
from repro.same import SAME
from repro.service import (
    AnalysisRequest,
    AnalysisService,
    ServiceError,
    reliability_payload,
)
from repro.service import jobs as jobs_mod

JOB_TIMEOUT = 120.0

#: The power-supply FMEA request's keys, recorded before the keying was
#: reworked; a change here invalidates every existing ledger, checkpoint
#: and service cache entry.
GOLDEN_FINGERPRINT = (
    "00c839c54d64d7bf87bb298ccd57214ac8e81bb35cacec91bfd4058b0564741d"
)
GOLDEN_CACHE_KEY = (
    "e95928de9abbdd471b9c08c74f94eee691b432c6bb62435216df942b9840d065"
)
GOLDEN_SERVICE_MODEL_DIGEST = (
    "9ef86ff5d4d7a4adff7600c43ef322d1315fba429e40b8113380a4bdb6a4bdc7"
)
#: The ledger digests a model's unrounded canonical text, so for a model
#: payload it equals the service's model digest.  (It used to round floats
#: to 9 decimal places, which digested every 1e-12 A saturation current
#: as 0.)
GOLDEN_LEDGER_MODEL_DIGEST = (
    "9ef86ff5d4d7a4adff7600c43ef322d1315fba429e40b8113380a4bdb6a4bdc7"
)
GOLDEN_RELIABILITY_DIGEST = (
    "9f09c7f6568bb2140d6d08b645b28f94f1cdefc68085e0fe6a901d2d558bc0d9"
)
#: An ASIL-B power-supply search: its service cache key, and the ledger ids
#: of its entry as recorded by the service, by ``SAME.search_deployment``
#: and by the first ``DecisiveProcess`` iteration (on the SSAM model).
#: Recorded while the search engine was still selectable (``"dp"`` by
#: default), so a change here invalidates existing ledgers and caches.
GOLDEN_SEARCH_CACHE_KEY = (
    "7ee1b58c577b37a3df4fdd3cc31fc2405ea5f9bd53d3e622594e762392a665e0"
)
GOLDEN_SEARCH_ENTRY_IDS = {
    "service": "optimizer-0b9c32e119e8",
    "same": "optimizer-bd53c72778e7",
    "decisive": "decisive-iteration-07acf47952d3",
}


def _reference(value):
    """The definition canonical_json must reproduce."""
    return json.dumps(_canonical(value), sort_keys=True, separators=(",", ":"))


def _reference_fingerprint(model, reliability, analysis, t_stop, dt):
    """The campaign fingerprint written out from its definition, walk and
    all, independent of canonical_json."""
    payload = {
        "model": _canonical(model.to_dict()),
        "reliability": [
            {
                "class": entry.component_class,
                "fit": entry.fit,
                "modes": [
                    (m.name, m.distribution, m.nature)
                    for m in entry.failure_modes
                ],
            }
            for entry in sorted(
                reliability.entries(), key=lambda e: e.component_class
            )
        ],
        "analysis": analysis,
        "t_stop": t_stop,
        "dt": dt,
        "overrides": _canonical({}),
    }
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


# -- canonical_json exactness ------------------------------------------------

_scalars = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.floats(allow_nan=True, allow_infinity=True)
    | st.text()
)

#: What a JSON parser can produce (NaN and infinities included: Python's
#: parser accepts them).
_json_native = st.recursive(
    _scalars,
    lambda children: st.lists(children, max_size=5)
    | st.dictionaries(st.text(), children, max_size=5),
    max_leaves=30,
)

#: Values the fast path must refuse: non-str keys and tuples mixed in.
_mixed = st.recursive(
    _scalars,
    lambda children: st.lists(children, max_size=4)
    | st.lists(children, max_size=4).map(tuple)
    | st.dictionaries(
        st.none() | st.booleans() | st.integers() | st.text(max_size=3),
        children,
        max_size=4,
    ),
    max_leaves=25,
)


@settings(max_examples=300, deadline=None)
@given(_json_native)
def test_canonical_json_exact_on_json_values(value):
    assert canonical_json(value) == _reference(value)


@settings(max_examples=300, deadline=None)
@given(_mixed)
def test_canonical_json_exact_on_mixed_values(value):
    assert canonical_json(value) == _reference(value)


class _Opaque:
    def __repr__(self):
        return "<opaque>"


@pytest.mark.parametrize(
    "value",
    [
        {1: "a", 2: "b", 10: "c"},  # int keys: sorted as strings
        {True: 1, "True": 2},
        {None: 1, "x": 2},
        {1.5: "f"},
        {"a": (1, 2), "b": [(3,), ()]},
        (1, "x", None),
        {"nan": math.nan, "list": [math.nan, math.inf, -math.inf]},
        MappingProxyType({"b": 1, "a": {"c": 2}}),
        {"inner": MappingProxyType({2: "x"})},
        {"obj": _Opaque(), "objs": [_Opaque()]},
        _Opaque(),
        {"deep": [{"z": 1, "y": [1.0, -0.0, 1e300]}]},
        {"": "", "é": "ü", " ": "\x00"},
    ],
    ids=lambda v: type(v).__name__,
)
def test_canonical_json_exact_on_non_native_values(value):
    assert canonical_json(value) == _reference(value)


def _case_payloads():
    psu = build_power_supply_simulink(), power_supply_reliability(), {
        "sensors": ["CS1"], "assume_stable": list(ASSUMED_STABLE),
    }
    sys_a = build_system_a_simulink(), power_network_reliability(), {
        "assume_stable": list(SYSTEM_A_ASSUMED_STABLE),
    }
    sys_b = build_system_b_simulink(), power_network_reliability(), {
        "assume_stable": list(SYSTEM_B_ASSUMED_STABLE),
    }
    grid = build_power_grid_simulink(), power_network_reliability(), {}
    return {"psu": psu, "sys_a": sys_a, "sys_b": sys_b, "grid": grid}


@pytest.fixture(scope="module")
def case_payloads():
    return _case_payloads()


@pytest.mark.parametrize("case", ["psu", "sys_a", "sys_b", "grid"])
def test_canonical_json_exact_on_case_studies(case_payloads, case):
    model, reliability, config = case_payloads[case]
    body = {
        "kind": "fmea",
        "model": model.to_dict(),
        "reliability": reliability_payload(reliability),
        "config": config,
    }
    for value in (model.to_dict(), body, json.loads(json.dumps(body))):
        assert canonical_json(value) == _reference(value)
    # The service's payload fingerprint equals the materialised model's.
    request = AnalysisRequest.from_payload(json.loads(json.dumps(body)))
    assert request.fingerprint() == _reference_fingerprint(
        model, reliability, "dc", 5e-3, 5e-5
    )


# -- the spliced fingerprint -----------------------------------------------------


class _Model:
    """A design model whose ``to_dict`` is any value."""

    def __init__(self, payload):
        self.payload = payload

    def to_dict(self):
        return self.payload


class _Reliability:
    """A reliability model with one entry per FIT value."""

    def __init__(self, fits):
        self.fits = fits

    def entries(self):
        mode = SimpleNamespace(name="Open", distribution=0.5, nature="")
        return [
            SimpleNamespace(component_class=f"C{index}", fit=fit,
                            failure_modes=[mode])
            for index, fit in enumerate(self.fits)
        ]


_numbers = st.integers() | st.floats(allow_nan=True, allow_infinity=True)


@settings(max_examples=200, deadline=None)
@given(
    _mixed,
    st.lists(_scalars | st.lists(_scalars, max_size=3).map(tuple), max_size=3),
    st.sampled_from(["dc", "transient"]),
    _numbers,
    _numbers,
)
def test_spliced_fingerprint_equals_its_definition(
    payload, fits, analysis, t_stop, dt
):
    """The fingerprint hashes head, model text and tail in turn; that is
    the hash of the whole canonical text, whether each part takes the
    fast path or the walk (tuples, non-str keys, NaN)."""
    model, reliability = _Model(payload), _Reliability(fits)
    expected = _reference_fingerprint(model, reliability, analysis, t_stop, dt)
    assert resilience.campaign_fingerprint(
        model, reliability, analysis, t_stop, dt
    ) == expected
    text = canonical_json(payload).encode("utf-8")
    assert resilience.campaign_fingerprint(
        model, reliability, analysis, t_stop, dt, model_text=text
    ) == expected


# -- golden keys ---------------------------------------------------------------


def test_power_supply_request_keys_are_unchanged():
    model, reliability = build_power_supply_simulink(), power_supply_reliability()
    request = AnalysisRequest.from_payload(
        {
            "kind": "fmea",
            "model": model.to_dict(),
            "reliability": reliability_payload(reliability),
            "config": {
                "sensors": ["CS1"], "assume_stable": list(ASSUMED_STABLE),
            },
        }
    )
    fingerprint = request.fingerprint()
    assert fingerprint == GOLDEN_FINGERPRINT
    assert request.cache_key(fingerprint) == GOLDEN_CACHE_KEY
    assert request.model_digest() == GOLDEN_SERVICE_MODEL_DIGEST
    assert resilience.campaign_fingerprint(
        model, reliability, "dc", 5e-3, 5e-5, None
    ) == GOLDEN_FINGERPRINT
    assert ledger_mod.model_digest(model) == GOLDEN_LEDGER_MODEL_DIGEST
    assert (
        ledger_mod.reliability_digest(reliability)
        == GOLDEN_RELIABILITY_DIGEST
    )


# -- one hash per job ------------------------------------------------------------


@pytest.fixture
def clean_obs():
    obs.disable()
    obs.disable_events()
    obs.reset()
    yield
    obs.disable_events()
    obs.reset()


def _count_calls(monkeypatch, targets):
    """Wrap each ``(module, name)`` with one shared call counter."""
    calls = []
    original = getattr(*targets[0])

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    for module, name in targets:
        monkeypatch.setattr(module, name, counted)
    return calls


def test_service_job_hashes_each_payload_once(
    tmp_path, monkeypatch, clean_obs, psu_fmea, psu_mechanisms
):
    # campaign_fingerprint is resolved on the resilience module by the
    # service and the ledger, and on the campaign module by the campaign.
    fingerprints = _count_calls(
        monkeypatch,
        [
            (resilience, "campaign_fingerprint"),
            (campaign_mod, "campaign_fingerprint"),
        ],
    )
    digests = _count_calls(monkeypatch, [(ledger_mod, "model_digest")])

    model, reliability = build_power_supply_simulink(), power_supply_reliability()
    fmea_body = {
        "kind": "fmea",
        "model": model.to_dict(),
        "reliability": reliability_payload(reliability),
        "config": {"sensors": ["CS1"], "assume_stable": list(ASSUMED_STABLE)},
    }
    row = next(r for r in psu_fmea.rows if r.safety_related)
    fmeda_body = dict(
        fmea_body,
        kind="fmeda",
        deployments=[{
            "component": row.component, "failure_mode": row.failure_mode,
            "mechanism": "SM-test", "coverage": 0.9, "cost": 1.0,
        }],
    )
    search_body = dict(
        fmea_body,
        kind="search",
        target_asil="ASIL-A",
        mechanisms=[
            {
                "component_class": spec.component_class,
                "failure_mode": spec.failure_mode,
                "name": spec.name,
                "coverage": spec.coverage,
                "cost": spec.cost,
            }
            for spec in psu_mechanisms.specs()
        ],
    )

    # As `same serve-analysis` runs it: events on (campaign events carry
    # the fingerprint) and campaigns checkpointed under it.
    obs.enable_events()
    with AnalysisService(
        tmp_path / "ledger.jsonl", workers=1, checkpoint_dir=tmp_path / "ckpt"
    ) as service:
        job = service.submit(fmea_body)
        service.wait(job.id, JOB_TIMEOUT)
        assert job.state == "done", job.error
        # A cold FMEA: one fingerprint, carried into the campaign and the
        # ledger entry; one ledger model digest.
        assert len(fingerprints) == 1
        assert len(digests) == 1
        for body in (fmeda_body, search_body):
            job = service.submit(body)
            service.wait(job.id, JOB_TIMEOUT)
            assert job.state == "done", job.error
        # FMEDA and search derive from the recorded FMEA: one fingerprint
        # each (for their cache key), and the FMEA entry's model digest.
        assert len(fingerprints) == 3
        assert len(digests) == 1
        entries = service.ledger.entries()

    assert [e.kind for e in entries] == ["fmea", "fmeda", "optimizer"]
    monkeypatch.undo()
    expected_fingerprint = _reference_fingerprint(
        model, reliability, "dc", 5e-3, 5e-5
    )
    for entry in entries:
        assert entry.model_digest == ledger_mod.model_digest(model)
        assert entry.reliability_digest == ledger_mod.reliability_digest(
            reliability
        )
        # Only injection FMEA entries carry the campaign fingerprint.
        assert entry.fingerprint == (
            expected_fingerprint if entry.kind == "fmea" else ""
        )
    assert entries[0].meta["service_cache_key"] == GOLDEN_CACHE_KEY


def test_passed_fingerprint_keys_one_run_only(tmp_path):
    """``run(fingerprint=...)`` keys that run's checkpoint; the next run
    without one hashes the (possibly mutated) model afresh."""
    model, reliability = build_power_supply_simulink(), power_supply_reliability()
    path = tmp_path / "ckpt.jsonl"
    campaign = FaultInjectionCampaign(
        model, reliability, assume_stable=ASSUMED_STABLE, checkpoint=path,
    )
    campaign.run(fingerprint="f" * 64)
    assert {json.loads(line)["fp"] for line in path.read_text().splitlines()} == {
        "f" * 64
    }
    campaign.run()
    assert {json.loads(line)["fp"] for line in path.read_text().splitlines()} == {
        GOLDEN_FINGERPRINT
    }


def test_passed_conversion_serves_one_run_only():
    """``run(conversion=...)`` uses the caller's netlist for that run; the
    next run without one converts the (possibly mutated) model afresh."""
    model, reliability = build_power_supply_simulink(), power_supply_reliability()
    campaign = FaultInjectionCampaign(
        model, reliability, assume_stable=ASSUMED_STABLE,
    )
    conversion = simulink.to_netlist(model)
    fresh = campaign.run()
    conversions = []
    original = campaign_mod.to_netlist

    def counted(*args, **kwargs):
        conversions.append(args)
        return original(*args, **kwargs)

    campaign_mod.to_netlist = counted
    try:
        shared = campaign.run(conversion=conversion)
        assert conversions == []
        again = campaign.run()
        assert len(conversions) == 1
    finally:
        campaign_mod.to_netlist = original
    rows = ledger_mod.fmea_rows_payload
    assert rows(shared) == rows(fresh) == rows(again)


# -- the request memo ------------------------------------------------------------


def _psu_body(**extra):
    model, reliability = build_power_supply_simulink(), power_supply_reliability()
    body = {
        "kind": "fmea",
        "model": model.to_dict(),
        "reliability": reliability_payload(reliability),
        "config": {"sensors": ["CS1"], "assume_stable": list(ASSUMED_STABLE)},
    }
    body.update(extra)
    return body


def _encoded(body, **dumps):
    return json.dumps(body, **dumps).encode("utf-8")


def _done(service, job):
    service.wait(job.id, JOB_TIMEOUT)
    assert job.state == "done", job.error
    return job


def _answer(job):
    """A job's answer without the flag that tells a hit from a compute."""
    return {k: v for k, v in job.result.items() if k != "from_cache"}


def _memo_hits():
    return int(obs.counter("service_request_memo_hits").value)


def _body_parses(calls, body):
    """The ``_parse_body`` calls that parsed ``body``."""
    return [c for c in calls if c and c[0] in (body, body.decode("utf-8"))]


def test_identical_body_is_keyed_by_its_hash(tmp_path, monkeypatch, clean_obs):
    body = _encoded(_psu_body())
    with AnalysisService(tmp_path / "ledger.jsonl", workers=1) as service:
        first = _done(service, service.submit(body))
        assert service.status()["request_memo_entries"] == 1
        assert _memo_hits() == 0
        parses = _count_calls(monkeypatch, [(jobs_mod, "_parse_body")])
        fingerprints = _count_calls(
            monkeypatch,
            [
                (resilience, "campaign_fingerprint"),
                (campaign_mod, "campaign_fingerprint"),
            ],
        )
        second = _done(service, service.submit(body))
        monkeypatch.undo()
    assert _memo_hits() == 1
    assert _body_parses(parses, body) == []
    assert fingerprints == []
    assert second.cached and not first.cached
    assert (second.fingerprint, second.cache_key) == (
        first.fingerprint, first.cache_key,
    )
    assert first.cache_key == GOLDEN_CACHE_KEY
    assert _answer(second) == _answer(first)


def test_reordered_body_misses_the_memo_and_hits_the_ledger(
    tmp_path, clean_obs
):
    body = _psu_body()
    with AnalysisService(tmp_path / "ledger.jsonl", workers=1) as service:
        first = _done(service, service.submit(_encoded(body)))
        reordered = _encoded(dict(reversed(list(body.items()))), indent=1)
        second = _done(service, service.submit(reordered))
        assert service.status()["request_memo_entries"] == 2
    assert _memo_hits() == 0
    assert second.cached
    assert (second.fingerprint, second.cache_key) == (
        first.fingerprint, first.cache_key,
    )
    assert _answer(second) == _answer(first)


@pytest.mark.parametrize(
    "body, message",
    [(b"{not json", "not valid JSON")],
    ids=["not-json"],
)
def test_malformed_body_is_refused_every_time_and_never_memoised(
    tmp_path, clean_obs, body, message
):
    with AnalysisService(tmp_path / "ledger.jsonl", workers=1) as service:
        for _ in range(2):
            with pytest.raises(ServiceError, match=message):
                service.submit(body)
        assert service.status()["request_memo_entries"] == 0
        assert service.jobs() == []
    assert _memo_hits() == 0


@pytest.mark.parametrize(
    "key, value",
    [
        pytest.param("workers", 4, id="workers-4"),
        pytest.param("max_retries", 2, id="max_retries-2"),
        pytest.param("max_retries", 0, id="max_retries-0"),
        pytest.param("max_retries", -1, id="max_retries--1"),
        pytest.param("max_retries", "lots", id="max_retries-lots"),
        pytest.param("max_retries", None, id="max_retries-null"),
    ],
)
def test_config_workers_reaches_neither_the_campaign_nor_the_keys(
    tmp_path, clean_obs, key, value
):
    """Campaigns run serially and run each job once, so ``config.workers``
    and ``config.max_retries`` are unknown keys: any value is accepted, and
    a body that sets one gets the fingerprint, cache key and rows of one
    that does not, computed and from the cache alike."""
    def keyed(job):
        # Wall times differ between two computes; everything else may not.
        answer = {k: v for k, v in _answer(job).items() if k != "metrics"}
        return job.fingerprint, job.cache_key, answer

    plain = _psu_body()
    ignored = _psu_body(config=dict(plain["config"], **{key: value}))
    computed = []
    for name, body in (("plain", plain), ("ignored", ignored)):
        with AnalysisService(tmp_path / f"{name}.jsonl", workers=1) as service:
            job = _done(service, service.submit(_encoded(body)))
        assert not job.cached
        computed.append(keyed(job))
    assert computed[0] == computed[1]
    assert computed[0][1] == GOLDEN_CACHE_KEY
    with AnalysisService(tmp_path / "plain.jsonl", workers=1) as service:
        hit = _done(service, service.submit(_encoded(ignored)))
    assert hit.cached
    assert keyed(hit) == computed[0]


@pytest.mark.parametrize(
    "metric, value",
    [("workers", 2), ("retries", 1), ("timeouts", 0)],
    ids=["workers", "retries", "timeouts"],
)
def test_entry_recorded_with_a_worker_count_keeps_its_digest(
    tmp_path, metric, value
):
    """Entries recorded while campaigns took a worker count carry
    ``metrics.workers``; entries recorded while jobs were retried and
    timed carry ``metrics.retries`` and ``metrics.timeouts``.  ``metrics``
    is outside the content digest, so such a ledger reads back with every
    id and digest unchanged."""
    model = build_power_supply_simulink()
    result = FaultInjectionCampaign(
        model, power_supply_reliability(), sensors=["CS1"],
        assume_stable=ASSUMED_STABLE,
    ).run()
    entry = ledger_mod.record_fmea(
        AnalysisLedger(tmp_path / "fresh.jsonl"), result, model=model
    )
    assert not {"workers", "retries", "timeouts"} & set(entry.metrics)
    line = entry.to_dict()
    line["metrics"] = dict(line["metrics"], **{metric: value})
    old = tmp_path / "old.jsonl"
    old.write_text(json.dumps(line, sort_keys=True) + "\n")
    (read,) = AnalysisLedger(old).entries()
    assert read.metrics[metric] == value
    assert (read.entry_id, read.content_digest) == (
        entry.entry_id, entry.content_digest,
    )
    assert LedgerEntry.from_dict(line).content_digest == entry.content_digest


def _psu_search_body(mechanisms, **config):
    body = _psu_body(
        kind="search",
        target_asil="ASIL-B",
        mechanisms=[
            {
                "component_class": spec.component_class,
                "failure_mode": spec.failure_mode,
                "name": spec.name,
                "coverage": spec.coverage,
                "cost": spec.cost,
            }
            for spec in mechanisms.specs()
        ],
    )
    body["config"].update(config)
    return body


def test_recorded_search_ids_are_unchanged(
    tmp_path, monkeypatch, clean_obs, psu_mechanisms
):
    body = _psu_search_body(psu_mechanisms)
    assert AnalysisRequest.from_payload(body).cache_key() == (
        GOLDEN_SEARCH_CACHE_KEY
    )
    with AnalysisService(tmp_path / "service.jsonl", workers=1) as service:
        job = _done(service, service.submit(_encoded(body)))
    assert job.cache_key == GOLDEN_SEARCH_CACHE_KEY

    same = SAME()
    same.open_simulink(build_power_supply_simulink())
    same.load_reliability(power_supply_reliability())
    same.load_mechanisms(psu_mechanisms)
    same.set_ledger(tmp_path / "same.jsonl")
    same.run_fmea_simulink(sensors=["CS1"], assume_stable=ASSUMED_STABLE)
    assert same.search_deployment("ASIL-B") is not None
    (searched,) = same.ledger.entries(kind="optimizer")

    # An iteration digests the SSAM system with its objects' uids, which
    # count up per process: build the model as a fresh process does.
    monkeypatch.setattr(metamodel_core, "_object_ids", itertools.count(1))
    log = DecisiveProcess(
        build_power_supply_ssam(),
        power_supply_reliability(),
        psu_mechanisms,
        target_asil="ASIL-B",
        ledger=AnalysisLedger(tmp_path / "decisive.jsonl"),
    ).run()
    assert {
        "service": job.result["entry"],
        "same": searched.entry_id,
        "decisive": log.iterations[0].ledger_entry,
    } == GOLDEN_SEARCH_ENTRY_IDS


def test_config_search_strategy_reaches_neither_the_search_nor_the_keys(
    tmp_path, clean_obs, psu_mechanisms
):
    """Every search runs the exact Pareto DP, so ``config.search_strategy``
    is an unknown key: any value is accepted, and a body that sets it gets
    the cache key and plan of one that does not, computed and from the
    cache alike."""
    plain = _psu_search_body(psu_mechanisms)
    values = ("greedy", "exhaustive", "bogus", None, 7)
    for value in values:
        request = AnalysisRequest.from_payload(
            _psu_search_body(psu_mechanisms, search_strategy=value)
        )
        assert request.cache_key() == GOLDEN_SEARCH_CACHE_KEY, value
    computed = []
    for name, body in (
        ("plain", plain),
        ("greedy", _psu_search_body(psu_mechanisms, search_strategy="greedy")),
    ):
        with AnalysisService(tmp_path / f"{name}.jsonl", workers=1) as service:
            job = _done(service, service.submit(_encoded(body)))
        assert not job.cached
        computed.append(_answer(job))
    assert computed[0]["entry"] == GOLDEN_SEARCH_ENTRY_IDS["service"]
    assert computed[0]["rows"] == computed[1]["rows"]
    assert computed[0]["entry"] == computed[1]["entry"]
    with AnalysisService(tmp_path / "plain.jsonl", workers=1) as service:
        for value in values:
            body = _psu_search_body(psu_mechanisms, search_strategy=value)
            hit = _done(service, service.submit(_encoded(body)))
            assert hit.cached, value
            assert hit.result["entry"] == computed[0]["entry"], value


def test_memo_hit_with_no_reachable_plan_parses_and_recomputes(
    tmp_path, monkeypatch, clean_obs, psu_mechanisms
):
    """An unreachable target records nothing, so its revisit misses the
    ledger: the memo-hit job parses its kept bytes and computes."""
    spec = next(iter(psu_mechanisms.specs()))
    body = _encoded(_psu_body(
        kind="search",
        target_asil="ASIL-D",
        mechanisms=[{
            "component_class": spec.component_class,
            "failure_mode": spec.failure_mode,
            "name": spec.name,
            "coverage": 0.0,
            "cost": 1.0,
        }],
    ))
    with AnalysisService(tmp_path / "ledger.jsonl", workers=1) as service:
        first = _done(service, service.submit(body))
        assert first.result["plan"] is None
        parses = _count_calls(monkeypatch, [(jobs_mod, "_parse_body")])
        second = _done(service, service.submit(body))
        monkeypatch.undo()
    assert _memo_hits() == 1
    assert len(_body_parses(parses, body)) == 1
    assert not second.cached
    assert second.result == first.result == {
        "plan": None, "target_asil": "ASIL-D", "from_cache": False,
    }


def test_memo_is_bounded(tmp_path, monkeypatch, clean_obs):
    monkeypatch.setattr(jobs_mod, "_REQUEST_MEMO_SIZE", 2)
    bodies = [_encoded(_psu_body(tenant=f"t{i}")) for i in range(3)]
    with AnalysisService(tmp_path / "ledger.jsonl", workers=1) as service:
        for body in bodies:
            _done(service, service.submit(body))
            assert service.status()["request_memo_entries"] <= 2
        # The newest two are remembered; the oldest was evicted.
        _done(service, service.submit(bodies[2]))
        assert _memo_hits() == 1
        _done(service, service.submit(bodies[0]))
        assert _memo_hits() == 1
        assert service.status()["request_memo_entries"] == 2


# -- one parse, one canonical text per model --------------------------------------

_spaces = st.sampled_from(["", " ", "\n", "\t", "\r\n  "])
_member_keys = st.sampled_from(["model", "kind", "config"]) | st.text(max_size=4)


@st.composite
def _object_texts(draw):
    """A JSON object text with repeated keys (``model`` among them), any
    whitespace, escaped and raw unicode, NaN and infinities, and the text
    of its last ``model`` member's value (``None`` without one)."""
    pieces, model_text = [], None
    for key, value in draw(
        st.lists(st.tuples(_member_keys, _json_native), max_size=6)
    ):
        if key == "model" and draw(st.booleans()):
            key_text = '"' + "".join(f"\\u{ord(c):04x}" for c in key) + '"'
        else:
            key_text = json.dumps(key, ensure_ascii=draw(st.booleans()))
        value_text = json.dumps(
            value,
            ensure_ascii=draw(st.booleans()),
            indent=draw(st.sampled_from([None, 1])),
        )
        if key == "model":
            model_text = value_text
        pieces.append(
            draw(_spaces) + key_text + draw(_spaces) + ":" + draw(_spaces)
            + value_text + draw(_spaces)
        )
    inner = ",".join(pieces) if pieces else draw(_spaces)
    return draw(_spaces) + "{" + inner + "}" + draw(_spaces), model_text


@settings(max_examples=300, deadline=None)
@given(_object_texts())
def test_body_parse_equals_json_loads(case):
    text, model_text = case
    value, raw = jobs_mod._parse_body(text)
    # repr: equal values in the same key order, NaN included.
    assert repr(value) == repr(json.loads(text))
    assert raw == model_text


@settings(max_examples=300, deadline=None)
@given(
    _object_texts(),
    st.data(),
    st.sampled_from(["", "x", "}", ",", "{", "]", " 1", '"', "\ufeff"]),
)
def test_malformed_body_gets_the_same_refusal(case, data, junk):
    text = case[0]
    cut = data.draw(st.integers(0, len(text)))
    broken = text[:cut] + junk
    try:
        expected = repr(json.loads(broken))
    except ValueError:
        expected = None
    try:
        value = repr(jobs_mod._parse_body(broken)[0])
    except ValueError:
        value = None
    assert value == expected
    if expected is None:
        with pytest.raises(ServiceError, match="not valid JSON"):
            AnalysisRequest.from_payload(broken.encode("utf-8"))


@pytest.mark.parametrize(
    "body, message",
    [
        (b"[1, 2]", "must be a JSON object"),
        (b"  7 ", "must be a JSON object"),
        (b"\xef\xbb\xbf{}", "not valid JSON"),
        (b"{} {}", "not valid JSON"),
        (b"\xff{}", "not valid JSON"),
        (b'{"kind": "fmea"}', "missing field 'model'"),
    ],
)
def test_body_that_is_no_request_object_is_refused(body, message):
    with pytest.raises(ServiceError, match=message):
        AnalysisRequest.from_payload(body)


def _keys(request):
    fingerprint = request.fingerprint()
    return fingerprint, request.cache_key(fingerprint), request.model_digest()


@pytest.mark.parametrize("case", ["psu", "sys_a", "sys_b", "grid", "nan"])
def test_body_keys_from_the_memoised_text_are_bit_identical(
    case_payloads, tmp_path, case
):
    """Fingerprint, cache key and LRU key of a parsed body, derived from
    the memoised canonical text, equal those computed from the payload."""
    model, reliability, config = case_payloads["psu" if case == "nan" else case]
    body = {
        "kind": "fmea",
        "model": model.to_dict(),
        "reliability": reliability_payload(reliability),
        "config": config,
    }
    if case == "nan":  # the canonical text falls back to the walk
        body["model"]["limits"] = [math.nan, -math.inf]
    expected = _keys(AnalysisRequest.from_payload(body))
    service = AnalysisService(tmp_path / "ledger.jsonl")
    for text in (
        json.dumps(body), json.dumps(body, indent=1, ensure_ascii=False),
    ):
        request = AnalysisRequest.from_payload(text.encode("utf-8"))
        service._attach_model_text(request)
        assert request._model_text is not None
        assert _keys(request) == expected


def _model_serialisations(monkeypatch):
    """``canonical_json`` calls on a model payload (the ``diagram`` key)."""
    calls = _count_calls(monkeypatch, [(resilience, "canonical_json")])
    return lambda: [
        args for args in calls
        if isinstance(args[0], dict) and "diagram" in args[0]
    ]


def test_model_is_serialised_once_per_distinct_model_text(
    tmp_path, monkeypatch, clean_obs
):
    config = {"sensors": ["CS1"], "assume_stable": list(ASSUMED_STABLE)}
    serialised = _model_serialisations(monkeypatch)
    digests = _count_calls(monkeypatch, [(ledger_mod, "model_digest")])
    with AnalysisService(tmp_path / "ledger.jsonl", workers=1) as service:
        # A mapping submission serialises its model once per job, for its
        # fingerprint; the first job of a model also digests it for the
        # ledger.
        mapped = _done(service, service.submit(_psu_body()))
        assert (len(serialised()), len(digests)) == (2, 1)
        _done(service, service.submit(_psu_body(config=dict(config, threshold=0.3))))
        assert (len(serialised()), len(digests)) == (3, 1)
        # A body with a new model text: one serialisation (a ledger hit).
        body = _done(service, service.submit(_encoded(_psu_body())))
        assert body.cached and len(serialised()) == 4
        # New bodies with a seen model text: none, whether they hit the
        # ledger (0.3) or compute (0.4).
        for threshold in (0.3, 0.4):
            job = _done(service, service.submit(_encoded(
                _psu_body(config=dict(config, threshold=threshold))
            )))
            assert job.cached == (threshold == 0.3)
        assert len(serialised()) == 4
        # The same model in other whitespace is another text: one more.
        _done(service, service.submit(_encoded(_psu_body(), indent=1)))
        assert len(serialised()) == 5
        assert len(digests) == 1
        # Body and mapping keys agree, so both paths share one LRU entry.
        assert (body.fingerprint, body.cache_key) == (
            mapped.fingerprint, mapped.cache_key,
        )
        assert len(service._model_cache) == 1


def test_model_text_memo_is_bounded(tmp_path, monkeypatch, clean_obs):
    monkeypatch.setattr(jobs_mod, "_MODEL_CACHE_SIZE", 2)
    with AnalysisService(tmp_path / "ledger.jsonl", workers=1) as service:
        for indent in (None, 1, 2):
            _done(service, service.submit(_encoded(_psu_body(), indent=indent)))
            assert len(service._model_texts) <= 2
        assert len(service._model_texts) == 2


def test_computed_job_digests_its_entry_once(tmp_path, monkeypatch, clean_obs):
    """One content digest per computed job (span, line, index record and
    answer share it) and none for a ledger hit; it equals the digest a
    fresh handle derives from the line on disk."""
    calls = _count_calls(monkeypatch, [(ledger_mod, "content_digest_of")])

    def entry_digests():
        return [args for args in calls if "row_digests" in args[0]]

    path = tmp_path / "ledger.jsonl"
    with AnalysisService(path, workers=1) as service:
        computed = _done(service, service.submit(_psu_body()))
        assert len(entry_digests()) == 1
        hit = _done(service, service.submit(_psu_body(tenant="again")))
        assert hit.cached and len(entry_digests()) == 1
    monkeypatch.undo()
    Path(str(path) + ".idx").unlink()
    (entry,) = AnalysisLedger(path).entries()
    line = json.loads(path.read_text(encoding="utf-8").splitlines()[0])
    fresh = LedgerEntry.from_dict(line)
    assert computed.result["entry"] == hit.result["entry"] == fresh.entry_id
    assert entry.content_digest == fresh.content_digest == line["digest"]


# -- one netlist per cached model ------------------------------------------------


def _slow_conversions(monkeypatch):
    """Count ``to_netlist`` calls, each held open for 0.2 s so that a
    second job reaching an unbuilt model entry meanwhile would convert
    it again."""
    calls = []
    original = simulink.to_netlist

    def slow(model):
        calls.append(model)
        time.sleep(0.2)
        return original(model)

    monkeypatch.setattr(simulink, "to_netlist", slow)
    monkeypatch.setattr(campaign_mod, "to_netlist", slow)
    return calls


def test_concurrent_cold_jobs_share_one_netlist_and_match_naive(
    tmp_path, monkeypatch, clean_obs
):
    """Two workers, released together, run cold FMEAs of two injection
    samples of one grid over the cached model's one conversion; each
    answer equals naive injection row for row."""
    model = build_power_grid_simulink(feeders=2, sections_per_feeder=10)
    reliability = power_network_reliability()
    samples = [power_grid_injection_sample(model, k=8, seed=s) for s in (1, 2)]
    bodies = [
        {
            "kind": "fmea",
            "model": model.to_dict(),
            "reliability": reliability_payload(reliability),
            "config": {"assume_stable": list(sample)},
        }
        for sample in samples
    ]
    conversions = _slow_conversions(monkeypatch)
    # Both workers leave the barrier as they look the model up in the LRU.
    barrier = threading.Barrier(2, timeout=JOB_TIMEOUT)
    digest = AnalysisRequest.model_digest

    def gated(request):
        barrier.wait()
        return digest(request)

    monkeypatch.setattr(AnalysisRequest, "model_digest", gated)
    with AnalysisService(tmp_path / "ledger.jsonl", workers=2) as service:
        jobs = [service.submit(_encoded(body)) for body in bodies]
        for job in jobs:
            _done(service, job)
    monkeypatch.undo()
    assert len(conversions) == 1
    for job, sample in zip(jobs, samples):
        naive = FaultInjectionCampaign(
            model, reliability, assume_stable=sample, incremental=False,
        ).run()
        value = spfm(naive, [])
        assert job.result["rows"] == ledger_mod.fmea_rows_payload(naive)
        assert (job.result["spfm"], job.result["asil"]) == (
            value, asil_from_spfm(value),
        )


def test_memo_and_model_entry_hold_under_contention(
    tmp_path, monkeypatch, clean_obs
):
    """Eight clients, four workers, a 1 µs switch interval: four questions
    about one model, each body sent twice at once.  The model is converted
    once, the memo keeps one entry per body, and every answer equals a
    plain campaign's."""
    thresholds = (0.1, 0.2, 0.3, 0.4)
    config = {"sensors": ["CS1"], "assume_stable": list(ASSUMED_STABLE)}
    bodies = [
        _encoded(_psu_body(config=dict(config, threshold=t)))
        for t in thresholds
    ]
    conversions = _slow_conversions(monkeypatch)
    finished = []
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with AnalysisService(tmp_path / "ledger.jsonl", workers=4) as service:

            def client(index):
                job = service.submit(bodies[index % len(bodies)])
                service.wait(job.id, JOB_TIMEOUT)
                finished.append((index % len(bodies), job))

            threads = [
                threading.Thread(target=client, args=(i,)) for i in range(8)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(JOB_TIMEOUT)
                assert not thread.is_alive()
            assert service.status()["request_memo_entries"] == len(bodies)
    finally:
        sys.setswitchinterval(interval)
    monkeypatch.undo()
    assert len(conversions) == 1
    assert len(finished) == 8
    model, reliability = build_power_supply_simulink(), power_supply_reliability()
    for index, job in finished:
        assert job.state == "done", job.error
        expected = FaultInjectionCampaign(
            model, reliability, sensors=["CS1"],
            assume_stable=ASSUMED_STABLE, threshold=thresholds[index],
        ).run()
        assert job.result["rows"] == ledger_mod.fmea_rows_payload(expected)


# -- one factorization per cached model ------------------------------------------


def _solve_counts(stats):
    """The solver counters of a campaign's stats."""
    return {name: getattr(stats, name) for name in SolveStats().to_dict()}


def test_concurrent_cold_jobs_share_one_factorization_and_match_naive(
    tmp_path, monkeypatch, clean_obs
):
    """Two workers, released together, run cold FMEAs of two injection
    samples of one sparse grid.  The cached model's netlist is factored
    once for both, each answer equals naive injection row for row, and
    each campaign counts only its own solves: no factorization, no
    baseline Newton, and none of the other campaign's columns."""
    # Pin the sparse rule so that even this small grid factors its matrix.
    monkeypatch.setattr(backends, "SPARSE_AUTO_MIN_SIZE", 0)
    model = build_power_grid_simulink(feeders=2, sections_per_feeder=10)
    reliability = power_network_reliability()
    samples = [power_grid_injection_sample(model, k=8, seed=s) for s in (3, 4)]
    bodies = [
        {
            "kind": "fmea",
            "model": model.to_dict(),
            "reliability": reliability_payload(reliability),
            "config": {"assume_stable": list(sample)},
        }
        for sample in samples
    ]
    # Both workers leave the barrier as they look the model up in the LRU.
    barrier = threading.Barrier(2, timeout=JOB_TIMEOUT)
    digest = AnalysisRequest.model_digest

    def gated(request):
        barrier.wait()
        return digest(request)

    def constant_factorizations():
        # ``mna_sparse_factorizations`` also counts the Newton iterations
        # of full rebuilds (sample 4 has one); the constant matrix is
        # factored under its own ``mna.factorize`` span.
        return sum(
            record.name == "mna.factorize"
            for record in obs.tracer().records()
        )

    obs.enable()
    try:
        with pytest.MonkeyPatch.context() as gate:
            gate.setattr(AnalysisRequest, "model_digest", gated)
            with AnalysisService(tmp_path / "ledger.jsonl", workers=2) as service:
                jobs = [service.submit(_encoded(body)) for body in bodies]
                for job in jobs:
                    _done(service, job)
            assert constant_factorizations() == 1

        # The same two campaigns in turn on one primed system, in either
        # order: neither factors, and each counts what it counts alone.
        conversion = simulink.to_netlist(model)
        primed = PrimedSystem(conversion.netlist)
        assert primed.backend == "sparse"

        def shared(sample):
            return FaultInjectionCampaign(
                model, reliability, assume_stable=sample,
            ).run(conversion=conversion, primed=primed)

        assert constant_factorizations() == 2
        forward = [shared(sample) for sample in samples]
        backward = [shared(sample) for sample in reversed(samples)][::-1]
        assert constant_factorizations() == 2
        fresh = FaultInjectionCampaign(
            model, reliability, assume_stable=samples[0],
        ).run(conversion=conversion)
    finally:
        obs.disable()
    for first, second in zip(forward, backward):
        assert _solve_counts(first.stats) == _solve_counts(second.stats)
    # A run that primes its own system counts the priming on top.
    own = _solve_counts(forward[0].stats)
    priming = _solve_counts(primed.stats)
    assert priming["solves"] == 1
    assert priming["newton_iterations"] > 0
    assert _solve_counts(fresh.stats) == {
        name: own[name] + priming[name] for name in own
    }
    for job, sample, run in zip(jobs, samples, forward):
        naive = FaultInjectionCampaign(
            model, reliability, assume_stable=sample, incremental=False,
        ).run()
        value = spfm(naive, [])
        assert job.result["rows"] == ledger_mod.fmea_rows_payload(naive)
        assert ledger_mod.fmea_rows_payload(run) == job.result["rows"]
        assert (job.result["spfm"], job.result["asil"]) == (
            value, asil_from_spfm(value),
        )
        # The service's campaigns shared the model's primed system too.
        metrics = job.result["metrics"]
        assert metrics["solver_backend"] == "sparse"
        assert metrics["solves"] == run.stats.solves
        assert metrics["batched_columns"] == run.stats.batched_columns
