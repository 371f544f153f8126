"""FMEDA and search jobs derive from the recorded FMEA of their model.

After an FMEA, the FMEDA and the mechanism search of the same question
rebuild the FMEA from its ledger entry: no campaign, no model
materialisation.  Their answers and ledger entries must equal those of a
fresh service that had to run the campaign, on every case study the
service benchmark drives.
"""

import pytest

from repro import obs
from repro.casestudies import (
    SYSTEM_A_ASSUMED_STABLE,
    SYSTEM_B_ASSUMED_STABLE,
    build_power_supply_simulink,
    build_system_a_simulink,
    build_system_b_simulink,
    power_network_reliability,
    power_supply_reliability,
)
from repro.casestudies.power_supply import ASSUMED_STABLE
from repro.safety.campaign import FaultInjectionCampaign
from repro.service import AnalysisService, reliability_payload
from repro.simulink import SimulinkModel

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


def _fmea_body(case):
    if case == "psu":
        model, reliability = (
            build_power_supply_simulink(), power_supply_reliability()
        )
        config = {"sensors": ["CS1"], "assume_stable": list(ASSUMED_STABLE)}
    elif case == "sys_a":
        model, reliability = (
            build_system_a_simulink(), power_network_reliability()
        )
        config = {"assume_stable": list(SYSTEM_A_ASSUMED_STABLE)}
    else:
        model, reliability = (
            build_system_b_simulink(), power_network_reliability()
        )
        config = {"assume_stable": list(SYSTEM_B_ASSUMED_STABLE)}
    return {
        "kind": "fmea",
        "model": model.to_dict(),
        "reliability": reliability_payload(reliability),
        "config": config,
    }


def _derived_bodies(fmea_body, fmea_rows):
    """An FMEDA deploying a mechanism on every other safety-related row,
    and a search for ASIL-B over two mechanisms per (class, mode)."""
    related = [row for row in fmea_rows if row["safety_related"]]
    assert related, "the case study has no safety-related failure modes"
    fmeda = dict(
        fmea_body,
        kind="fmeda",
        deployments=[
            {
                "component": row["component"],
                "failure_mode": row["failure_mode"],
                "mechanism": f"sm-{index}",
                "coverage": 0.9,
                "cost": 1.0 + index,
            }
            for index, row in enumerate(related[::2])
        ],
    )
    pairs = sorted({
        (row["component_class"], row["failure_mode"]) for row in related
    })
    search = dict(
        fmea_body,
        kind="search",
        target_asil="ASIL-B",
        mechanisms=[
            {
                "component_class": cls,
                "failure_mode": mode,
                "name": f"sm-{cls}-{mode}-{j}",
                "coverage": (0.95, 0.99)[j],
                "cost": (1.0, 3.0)[j],
            }
            for cls, mode in pairs
            for j in range(2)
        ],
    )
    return fmeda, search


@pytest.fixture
def spies(monkeypatch):
    """Count campaign runs and model materialisations."""
    calls = {"run": 0, "from_dict": 0}
    real_run = FaultInjectionCampaign.run
    real_from_dict = SimulinkModel.from_dict

    def run(self, *args, **kwargs):
        calls["run"] += 1
        return real_run(self, *args, **kwargs)

    def from_dict(cls, *args, **kwargs):
        calls["from_dict"] += 1
        return real_from_dict(*args, **kwargs)

    monkeypatch.setattr(FaultInjectionCampaign, "run", run)
    monkeypatch.setattr(SimulinkModel, "from_dict", classmethod(from_dict))
    return calls


def _run(service, body):
    job = service.submit(body)
    service.wait(job.id, JOB_TIMEOUT)
    assert job.state == "done", job.error
    assert job.cached is False
    return job


def _entry(service, job):
    (entry,) = [
        e for e in service.ledger.entries()
        if e.entry_id == job.result["entry"]
    ]
    return entry


@pytest.mark.parametrize("case", ["psu", "sys_a", "sys_b"])
def test_fmeda_and_search_reuse_the_recorded_fmea(tmp_path, spies, case):
    fmea_body = _fmea_body(case)
    obs.enable_events()
    with AnalysisService(tmp_path / "warm.jsonl", workers=1) as warm:
        fmea = _run(warm, fmea_body)
        assert spies == {"run": 1, "from_dict": 1}
        fmeda_body, search_body = _derived_bodies(
            fmea_body, fmea.result["rows"]
        )
        reused = [_run(warm, body) for body in (fmeda_body, search_body)]
        # Derived from the recorded FMEA: no campaign, no materialisation.
        assert spies == {"run": 1, "from_dict": 1}
        assert int(obs.counter("service_fmea_reuses").value) == 2
        for job in reused:
            (event,) = [
                e for e in obs.event_bus().events(cid=job.correlation_id)
                if e.type == "fmea_reused"
            ]
            assert event.payload["entry"] == fmea.result["entry"]
        reused_entries = [_entry(warm, job) for job in reused]

    with AnalysisService(tmp_path / "fresh.jsonl", workers=1) as fresh:
        computed = [_run(fresh, body) for body in (fmeda_body, search_body)]
        # With no FMEA on record both had to run the campaign.
        assert spies["run"] == 3
        computed_entries = [_entry(fresh, job) for job in computed]
    assert int(obs.counter("service_fmea_reuses").value) == 2

    for got, want in zip(reused, computed):
        assert got.result == want.result
    assert reused[0].result["total_cost"] is not None
    assert reused[1].result["cost"] is not None
    assert [e.kind for e in reused_entries] == ["fmeda", "optimizer"]
    for got, want in zip(reused_entries, computed_entries):
        assert got.content_digest == want.content_digest
        assert got.model_digest == want.model_digest
        assert got.rows == want.rows


def test_fmeda_with_another_threshold_runs_its_own_campaign(tmp_path, spies):
    fmea_body = _fmea_body("psu")
    with AnalysisService(tmp_path / "ledger.jsonl", workers=1) as service:
        fmea = _run(service, fmea_body)
        fmeda_body, _ = _derived_bodies(fmea_body, fmea.result["rows"])
        fmeda_body["config"] = dict(fmeda_body["config"], threshold=0.5)
        _run(service, fmeda_body)
    assert spies["run"] == 2
    assert int(obs.counter("service_fmea_reuses").value) == 0
