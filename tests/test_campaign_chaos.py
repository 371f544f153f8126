"""Chaos drill for the campaign engine (nightly CI).

Runs the System B campaign through an executor shim that randomly kills
worker chunks (seeded RNG, several seeds) and asserts row-level
equivalence with the clean serial run.  Gated behind ``CAMPAIGN_CHAOS=1``
because it reruns the campaign many times; tier-1 keeps the deterministic
single-kill coverage in ``test_campaign_resilience.py``.
"""

import math
import os
from concurrent.futures import Future
from concurrent.futures.process import BrokenProcessPool

import numpy as np
import pytest

from repro.casestudies import (
    SYSTEM_B_ASSUMED_STABLE,
    build_system_b_simulink,
    power_network_reliability,
)
from repro.safety import campaign as campaign_mod
from repro.safety.campaign import FaultInjectionCampaign

pytestmark = pytest.mark.skipif(
    os.environ.get("CAMPAIGN_CHAOS") != "1",
    reason="chaos drill; set CAMPAIGN_CHAOS=1 to run",
)

SMOKE_RAILS = 4
KILL_PROBABILITY = 0.3
SEEDS = (0, 1, 2, 3, 4)


class _ChaoticPool:
    """Inline executor that kills each submission with fixed probability."""

    def __init__(self, rng):
        self._rng = rng
        self.kills = 0

    def submit(self, fn, chunk):
        future = Future()
        if self._rng.random() < KILL_PROBABILITY:
            self.kills += 1
            future.set_exception(BrokenProcessPool("chaos kill"))
        else:
            future.set_result(fn(chunk))
        return future

    def shutdown(self, wait=True, cancel_futures=False):
        pass


@pytest.fixture(scope="module")
def system_b():
    return (
        build_system_b_simulink(rails=SMOKE_RAILS),
        power_network_reliability(),
    )


@pytest.fixture(scope="module")
def clean_serial(system_b):
    model, reliability = system_b
    return FaultInjectionCampaign(
        model, reliability, assume_stable=SYSTEM_B_ASSUMED_STABLE
    ).run()


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
        for sensor, delta in expected.sensor_deltas.items():
            assert math.isclose(
                delta,
                actual.sensor_deltas[sensor],
                rel_tol=1e-9,
                abs_tol=1e-9,
            )


@pytest.mark.parametrize("seed", SEEDS)
def test_random_worker_kills_preserve_row_equivalence(
    system_b, clean_serial, monkeypatch, force_fan_out, seed
):
    model, reliability = system_b
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
        )
        pool = _ChaoticPool(rng)
        pools.append(pool)
        return pool

    monkeypatch.setattr(FaultInjectionCampaign, "_new_pool", chaotic_new_pool)
    result = FaultInjectionCampaign(
        model,
        reliability,
        assume_stable=SYSTEM_B_ASSUMED_STABLE,
        workers=4,
        max_retries=3,
        retry_backoff=0.001,
    ).run()
    # Fan-out really happened (the smoke System B sits below the
    # crossover, so without ``force_fan_out`` the drill would run serially
    # and pass vacuously).
    assert pools
    kills = sum(pool.kills for pool in pools)
    # Whatever the kill pattern — including a zero-progress collapse into
    # the serial fallback — every healthy job's row must match the clean
    # serial run exactly, and no job may be silently dropped.
    assert result.stats.rows == clean_serial.stats.rows
    if result.failures:
        # Only repeatedly-killed single-job chunks may fail out, and each
        # failure must be structured and accounted.
        assert all(f.kind == "worker_lost" for f in result.failures)
        assert result.stats.job_failures == len(result.failures)
        failed = {(f.component, f.failure_mode) for f in result.failures}
        for expected, actual in zip(clean_serial.rows, result.rows):
            if (actual.component, actual.failure_mode) in failed:
                continue
            assert (expected.component, expected.effect) == (
                actual.component,
                actual.effect,
            )
    else:
        assert_rows_identical(clean_serial, result)
    if kills:
        assert result.stats.retries > 0 or result.stats.parallel_fallback
