"""Dense-vs-sparse solver backend parity: the differential acceptance
gate for the pluggable MNA backend.

Whatever linear solver the campaign runs on — dense LAPACK LU, sparse
CSC/SuperLU, or the size-based ``auto`` pick — the FMEA rows must be
identical (discrete fields exactly, sensor deltas to numerical noise) on
all three case studies and on a seeded generated distribution grid.  A
``CAMPAIGN_CHAOS=1``-gated variant re-checks parity while the worker pool
is being randomly killed.
"""

import math
import os
from concurrent.futures import Future
from concurrent.futures.process import BrokenProcessPool

import numpy as np
import pytest

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
from repro.casestudies.power_supply import ASSUMED_STABLE
from repro.circuit import default_backend
from repro.safety import campaign as campaign_mod
from repro.safety.campaign import FaultInjectionCampaign
from repro.safety.fmea import FmeaError

_DELTA_TOL = 1e-9

#: Seeded small grid — big enough to exercise trunk/feeder topology and
#: the batched multi-RHS path, small enough for tier-1.
_GRID_FEEDERS = 2
_GRID_SECTIONS = 10
_GRID_SAMPLE_K = 8
_GRID_SEED = 1

CASE_NAMES = ["power_supply", "system_a", "system_b", "grid"]
BACKENDS = ["dense", "sparse"]


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
    if name == "system_b":
        return (
            build_system_b_simulink(),
            power_network_reliability(),
            SYSTEM_B_ASSUMED_STABLE,
        )
    model = build_power_grid_simulink(
        feeders=_GRID_FEEDERS, sections_per_feeder=_GRID_SECTIONS
    )
    return (
        model,
        power_network_reliability(),
        power_grid_injection_sample(model, k=_GRID_SAMPLE_K, seed=_GRID_SEED),
    )


@pytest.fixture(scope="module")
def cases():
    return {name: _build_case(name) for name in CASE_NAMES}


@pytest.fixture(scope="module")
def naive_reference(cases):
    """Naive full re-assembly on the process default backend — the ground
    truth every (backend, strategy) combination must reproduce."""
    results = {}
    for name, (model, reliability, stable) in cases.items():
        results[name] = FaultInjectionCampaign(
            model, reliability, assume_stable=stable, incremental=False
        ).run()
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


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("case", CASE_NAMES)
def test_incremental_backend_matches_naive(
    cases, naive_reference, case, backend
):
    model, reliability, stable = cases[case]
    result = FaultInjectionCampaign(
        model,
        reliability,
        assume_stable=stable,
        solver_backend=backend,
    ).run()
    assert result.stats.solver_backend == backend
    assert_rows_identical(naive_reference[case], result)


@pytest.mark.parametrize("backend", BACKENDS)
def test_naive_backend_matches_default_naive(cases, naive_reference, backend):
    """Pinning the backend must not change the naive path's rows either."""
    model, reliability, stable = cases["grid"]
    result = FaultInjectionCampaign(
        model,
        reliability,
        assume_stable=stable,
        incremental=False,
        solver_backend=backend,
    ).run()
    assert_rows_identical(naive_reference["grid"], result)


def test_backend_restored_after_campaign(cases):
    """Pinning the campaign backend must not leak into the process-wide
    default."""
    before = default_backend()
    model, reliability, stable = cases["power_supply"]
    FaultInjectionCampaign(
        model, reliability, assume_stable=stable, solver_backend="sparse"
    ).run()
    assert default_backend() == before


def test_unknown_backend_rejected(cases):
    model, reliability, stable = cases["power_supply"]
    with pytest.raises(FmeaError):
        FaultInjectionCampaign(
            model, reliability, assume_stable=stable, solver_backend="cuda"
        )


def test_grid_sample_is_deterministic():
    model = build_power_grid_simulink(
        feeders=_GRID_FEEDERS, sections_per_feeder=_GRID_SECTIONS
    )
    first = power_grid_injection_sample(
        model, k=_GRID_SAMPLE_K, seed=_GRID_SEED
    )
    second = power_grid_injection_sample(
        model, k=_GRID_SAMPLE_K, seed=_GRID_SEED
    )
    assert first == second
    assert first != power_grid_injection_sample(
        model, k=_GRID_SAMPLE_K, seed=_GRID_SEED + 1
    )


# -- chaos variant (nightly) --------------------------------------------------


class _ChaoticPool:
    """Inline executor that kills each submission with fixed probability."""

    def __init__(self, rng, kill_probability=0.3):
        self._rng = rng
        self._kill_probability = kill_probability
        self.kills = 0

    def submit(self, fn, chunk):
        future = Future()
        if self._rng.random() < self._kill_probability:
            self.kills += 1
            future.set_exception(BrokenProcessPool("chaos kill"))
        else:
            future.set_result(fn(chunk))
        return future

    def shutdown(self, wait=True, cancel_futures=False):
        pass


@pytest.mark.skipif(
    os.environ.get("CAMPAIGN_CHAOS") != "1",
    reason="chaos drill; set CAMPAIGN_CHAOS=1 to run",
)
@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("seed", (0, 1, 2))
def test_backend_parity_survives_worker_kills(
    cases, naive_reference, monkeypatch, force_fan_out, backend, seed
):
    """Row parity must hold per backend even while the pool is being
    randomly killed and the campaign retries/bisects chunks."""
    model, reliability, stable = cases["grid"]
    rng = np.random.default_rng(seed)
    pools = []

    def chaotic_new_pool(self, conversion, size):
        campaign_mod._campaign_worker_init(
            conversion,
            self.analysis,
            self.t_stop,
            self.dt,
            self.incremental,
            False,
            self.retry_policy,
            self.job_timeout,
            self.solver_backend,
        )
        pools.append(_ChaoticPool(rng))
        return pools[-1]

    monkeypatch.setattr(
        FaultInjectionCampaign, "_new_pool", chaotic_new_pool
    )
    result = FaultInjectionCampaign(
        model,
        reliability,
        assume_stable=stable,
        workers=2,
        solver_backend=backend,
    ).run()
    assert pools, "the campaign never fanned out"
    assert_rows_identical(naive_reference["grid"], result)
