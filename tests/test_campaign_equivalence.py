"""Campaign-engine equivalence: the acceptance gate for the batched
fault-injection engine.

Whatever the execution strategy — serial naive re-assembly (the historical
``run_simulink_fmea`` behaviour) or incremental solves through a shared
:class:`~repro.circuit.CompiledSystem` — the campaign must produce row-for-row identical FMEA results on the paper's
power-supply case study and the synthetic System A/B power networks.

"Identical" here means: every discrete field (classification, impact,
effect text, warnings) matches exactly, and the recorded sensor deltas
match to numerical-noise tolerance (the low-rank solver is algebraically
exact but not bit-identical to dense LU).
"""

import math

import pytest

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
from repro.safety import run_simulink_fmea
from repro.safety.campaign import FaultInjectionCampaign

#: Sensor deltas are dimensionless fractions; agreement below this is
#: numerical noise between the dense and low-rank solve paths.
_DELTA_TOL = 1e-9

CASE_NAMES = ["power_supply", "system_a", "system_b"]


def _build_case(name):
    if name == "power_supply":
        return (
            build_power_supply_simulink(),
            power_supply_reliability(),
            ASSUMED_STABLE,
        )
    if name == "system_a":
        return (
            build_system_a_simulink(),
            power_network_reliability(),
            SYSTEM_A_ASSUMED_STABLE,
        )
    return (
        build_system_b_simulink(),
        power_network_reliability(),
        SYSTEM_B_ASSUMED_STABLE,
    )


@pytest.fixture(scope="module")
def campaign_results():
    """Each case study run naive / incremental, computed once."""
    results = {}
    for name in CASE_NAMES:
        model, reliability, stable = _build_case(name)
        runs = {}
        for label, kwargs in (
            ("naive", {"incremental": False}),
            ("incremental", {}),
        ):
            runs[label] = FaultInjectionCampaign(
                model, reliability, assume_stable=stable, **kwargs
            ).run()
        results[name] = runs
    return results


def assert_rows_identical(reference, other):
    assert len(reference.rows) == len(other.rows)
    for expected, actual in zip(reference.rows, other.rows):
        assert (
            expected.component,
            expected.failure_mode,
            expected.safety_related,
            expected.impact,
            expected.effect,
            expected.warning,
        ) == (
            actual.component,
            actual.failure_mode,
            actual.safety_related,
            actual.impact,
            actual.effect,
            actual.warning,
        )
        assert set(expected.sensor_deltas) == set(actual.sensor_deltas)
        for sensor, delta in expected.sensor_deltas.items():
            assert math.isclose(
                delta,
                actual.sensor_deltas[sensor],
                rel_tol=_DELTA_TOL,
                abs_tol=_DELTA_TOL,
            ), (expected.component, expected.failure_mode, sensor)


@pytest.mark.parametrize("case", CASE_NAMES)
def test_incremental_matches_naive(campaign_results, case):
    runs = campaign_results[case]
    assert_rows_identical(runs["naive"], runs["incremental"])


@pytest.mark.parametrize("case", CASE_NAMES)
def test_incremental_engages_fast_path(campaign_results, case):
    """Every incremental campaign solves through the fast path: low-rank
    SMW updates against the shared factorization, whatever its size."""
    stats = campaign_results[case]["incremental"].stats
    assert stats.mode == "incremental"
    assert stats.smw_solves > 0
    assert stats.factorization_reuses > 0


@pytest.mark.parametrize("case", CASE_NAMES)
def test_naive_mode_never_uses_fast_path(campaign_results, case):
    stats = campaign_results[case]["naive"].stats
    assert stats.mode == "naive"
    assert stats.smw_solves == 0
    assert stats.factorization_reuses == 0
    assert stats.batched_columns == 0


def test_most_system_b_jobs_stay_low_rank(campaign_results):
    """The scaling subject must actually exercise the fast path: only the
    two source-stranding fuse opens may fall back to full assembly."""
    stats = campaign_results["system_b"]["incremental"].stats
    assert stats.smw_solves >= 200
    assert stats.full_rebuilds == 2


def test_run_simulink_fmea_delegates_to_campaign(campaign_results):
    model, reliability, stable = _build_case("power_supply")
    result = run_simulink_fmea(model, reliability, assume_stable=stable)
    assert_rows_identical(campaign_results["power_supply"]["naive"], result)
    assert result.stats is not None
    assert result.stats.jobs == len(
        [row for row in result.rows if not row.warning]
    )


def test_campaign_stats_round_trip(campaign_results):
    stats = campaign_results["power_supply"]["incremental"].stats
    as_dict = stats.as_dict()
    assert as_dict["jobs"] == stats.jobs
    assert as_dict["mode"] == "incremental"
    assert as_dict["wall_time"] >= 0.0


@pytest.mark.parametrize(
    "deltas",
    [
        # The same fault's deltas at two feeder-head sensors in series, off
        # the SMW path and off naive re-assembly: they straddle the 9th
        # decimal's rounding boundary, which used to name CS0 on one path
        # and CS1 on the other.
        (0.3242668595413473, 0.3242668604822768),
        (0.32426685949689493, 0.3242668604863099),
    ],
)
def test_worst_sensor_tie_ignores_solver_noise(deltas):
    from repro.safety.fmea import FmeaRow

    model, reliability, stable = _build_case("power_supply")
    campaign = FaultInjectionCampaign(model, reliability, assume_stable=stable)
    monitored = ["grid/CS0", "grid/CS1"]
    baseline = {name: 1.0 for name in monitored}
    readings = {name: 1.0 - d for name, d in zip(monitored, deltas)}
    row = FmeaRow(
        component="LD1_2", component_class="Load", fit=12.0,
        failure_mode="Open", nature="", distribution=0.4,
    )
    row = campaign._classify(row, ("ok", readings), baseline, monitored)
    assert row.effect == "reading at CS0 deviates by 32.4%"


def test_enumeration_resolves_only_in_scope_blocks(monkeypatch):
    """A sampled campaign checks scope before it resolves a block's type:
    on a grid with k components in scope, enumeration looks up the type
    of the in-scope blocks only, not of every block of the model."""
    from repro.casestudies import (
        build_power_grid_simulink,
        power_grid_injection_sample,
    )
    from repro.safety.fmea import FmeaResult
    from repro.simulink import model as model_module
    from repro.simulink import to_netlist

    model = build_power_grid_simulink(feeders=2, sections_per_feeder=10)
    stable = power_grid_injection_sample(model, k=3, seed=0)
    campaign = FaultInjectionCampaign(
        model, power_network_reliability(), assume_stable=stable
    )
    conversion = to_netlist(model)
    in_scope = [
        block for block in model.all_blocks()
        if block.name not in stable and block.path() not in stable
    ]
    assert len(in_scope) < len(list(model.all_blocks())) // 5
    lookups = []
    real = model_module.block_type_info

    def counting(type_name):
        lookups.append(type_name)
        return real(type_name)

    monkeypatch.setattr(model_module, "block_type_info", counting)
    slots, jobs = campaign._enumerate(
        conversion, FmeaResult(system=model.name, method="injection")
    )
    assert len(lookups) == len(in_scope)
    assert {job.component for job in jobs} <= {b.name for b in in_scope}
    assert len({job.component for job in jobs}) == 3
