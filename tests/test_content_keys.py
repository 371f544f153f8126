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
  recorded digest equals a from-scratch recomputation.
"""

import hashlib
import json
import math
from types import MappingProxyType

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import obs
from repro.casestudies import (
    SYSTEM_A_ASSUMED_STABLE,
    SYSTEM_B_ASSUMED_STABLE,
    build_power_grid_simulink,
    build_power_supply_simulink,
    build_system_a_simulink,
    build_system_b_simulink,
    power_network_reliability,
    power_supply_reliability,
)
from repro.casestudies.power_supply import ASSUMED_STABLE
from repro.obs import ledger as ledger_mod
from repro.safety import campaign as campaign_mod
from repro.safety import resilience
from repro.safety.campaign import FaultInjectionCampaign
from repro.safety.resilience import _canonical, canonical_json
from repro.service import AnalysisRequest, AnalysisService, reliability_payload

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
GOLDEN_LEDGER_MODEL_DIGEST = (
    "9afb5e22af8ac5eeb1d3a3544903676aad47227bed5f4aafefae30c7dbd3baaf"
)
GOLDEN_RELIABILITY_DIGEST = (
    "9f09c7f6568bb2140d6d08b645b28f94f1cdefc68085e0fe6a901d2d558bc0d9"
)


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
