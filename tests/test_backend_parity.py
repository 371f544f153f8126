"""Dense-vs-sparse factorization parity: the differential acceptance
gate for the two backends under the one fault-solve rule.

Every fault runs Newton in its Woodbury basis; the system's size picks
only the factorization under it (dense LAPACK LU below
``SPARSE_AUTO_MIN_SIZE`` unknowns, SuperLU at or above it).  Each test
pins one backend by moving that threshold, and the FMEA rows must then be
identical to naive re-assembly (discrete fields exactly, sensor deltas to
numerical noise) on all three case studies and on a seeded generated
distribution grid.
"""

import math
import threading

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
from repro.circuit import backends
from repro.safety.campaign import FaultInjectionCampaign

_DELTA_TOL = 1e-9

#: Seeded small grid — big enough to exercise trunk/feeder topology and
#: the batched multi-RHS path, small enough for tier-1.
_GRID_FEEDERS = 2
_GRID_SECTIONS = 10
_GRID_SAMPLE_K = 8
_GRID_SEED = 1

CASE_NAMES = ["power_supply", "system_a", "system_b", "grid"]
BACKENDS = ["dense", "sparse"]


def _pin(monkeypatch, backend):
    """Make every system, whatever its size, resolve to ``backend``."""
    monkeypatch.setattr(
        backends, "SPARSE_AUTO_MIN_SIZE", 0 if backend == "sparse" else 10**9
    )


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
    """Naive full re-assembly on the size-picked backend — the ground
    truth every pinned backend must reproduce."""
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
    cases, naive_reference, monkeypatch, case, backend
):
    model, reliability, stable = cases[case]
    _pin(monkeypatch, backend)
    result = FaultInjectionCampaign(
        model, reliability, assume_stable=stable
    ).run()
    assert result.stats.solver_backend == backend
    assert_rows_identical(naive_reference[case], result)


@pytest.mark.parametrize("backend", BACKENDS)
def test_naive_backend_matches_default_naive(
    cases, naive_reference, monkeypatch, backend
):
    """Pinning the backend must not change the naive path's rows either."""
    model, reliability, stable = cases["grid"]
    _pin(monkeypatch, backend)
    result = FaultInjectionCampaign(
        model, reliability, assume_stable=stable, incremental=False
    ).run()
    assert result.stats.solver_backend == backend
    assert_rows_identical(naive_reference["grid"], result)


def test_concurrent_campaigns_each_keep_their_own_backend(cases):
    """Two campaigns of different sizes running at the same time on two
    threads (as the analysis service runs jobs) each solve on the backend
    their own system size picks, and each matches its naive reference."""
    small = cases["power_supply"]
    big_model = build_power_grid_simulink(feeders=4, sections_per_feeder=60)
    big = (
        big_model,
        power_network_reliability(),
        power_grid_injection_sample(big_model, k=8, seed=_GRID_SEED),
    )
    runs = {"dense": (small, 20), "sparse": (big, 2)}
    naive = {
        backend: FaultInjectionCampaign(
            model, reliability, assume_stable=stable, incremental=False
        ).run()
        for backend, ((model, reliability, stable), _) in runs.items()
    }
    assert {b: r.stats.solver_backend for b, r in naive.items()} == {
        "dense": "dense", "sparse": "sparse",
    }
    start = threading.Barrier(len(runs))
    results = {backend: [] for backend in runs}

    def worker(backend):
        (model, reliability, stable), repeats = runs[backend]
        start.wait()
        for _ in range(repeats):
            results[backend].append(
                FaultInjectionCampaign(
                    model, reliability, assume_stable=stable
                ).run()
            )

    threads = [
        threading.Thread(target=worker, args=(backend,)) for backend in runs
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    for backend, (_, repeats) in runs.items():
        assert len(results[backend]) == repeats
        for result in results[backend]:
            assert result.stats.solver_backend == backend
            assert_rows_identical(naive[backend], result)


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
