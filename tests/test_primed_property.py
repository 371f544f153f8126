"""Campaigns sharing one primed system equal naive injection.

Fast profiles of two Hypothesis properties.  Every fault runs the one
Woodbury Newton rule; each property pins each factorization backend in
turn by moving ``SPARSE_AUTO_MIN_SIZE``, primes the netlist once and runs
its campaigns on that one primed system.  Each campaign must equal naive
per-fault re-assembly on the size-picked backend (the ground truth of
``tests/test_backend_parity.py``) row for row, with the same SPFM, and
none may add a column to the shared system.

- Generated distribution grids
  (:func:`~repro.casestudies.build_power_grid_simulink` with random
  feeders × sections), two random injection samples each.
- System B with 2–26 rails (23 to 191 unknowns: up to the sparse
  threshold), its whole campaign.
"""

import functools

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.casestudies import (
    SYSTEM_B_ASSUMED_STABLE,
    build_power_grid_simulink,
    build_system_b_simulink,
    power_grid_injection_sample,
    power_network_reliability,
)
from repro.circuit import PrimedSystem, backends
from repro.obs.ledger import fmea_rows_payload
from repro.safety.campaign import FaultInjectionCampaign
from repro.safety.metrics import spfm
from repro.simulink import to_netlist

#: The size rule each arm pins: the threshold that forces it.
SIZE_RULES = {"dense": 10**9, "sparse": 0}

_RELIABILITY = power_network_reliability()


@pytest.mark.parametrize("rule", sorted(SIZE_RULES))
@settings(max_examples=40, deadline=None)
@given(
    feeders=st.integers(1, 3),
    sections=st.integers(1, 8),
    k=st.integers(1, 5),
    seeds=st.tuples(st.integers(0, 2**16), st.integers(0, 2**16)),
)
# Two feeder-head sensors in series read the same current up to gmin
# leakage (~1e-9 in their deltas); the worst-sensor pick used to round the
# deltas to 9 decimals, which split them differently on the two solver
# paths.
@example(feeders=1, sections=3, k=1, seeds=(0, 9))
def test_property_shared_primed_system_matches_naive(
    rule, feeders, sections, k, seeds
):
    model = build_power_grid_simulink(
        feeders=feeders, sections_per_feeder=sections
    )
    samples = [power_grid_injection_sample(model, k=k, seed=s) for s in seeds]
    naive = [
        FaultInjectionCampaign(
            model, _RELIABILITY, assume_stable=stable, incremental=False,
        ).run()
        for stable in samples
    ]
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(backends, "SPARSE_AUTO_MIN_SIZE", SIZE_RULES[rule])
        conversion = to_netlist(model)
        primed = PrimedSystem(conversion.netlist)
        assert primed.backend == rule
        priming_columns = set(primed.columns)
        for stable, expected in zip(samples, naive):
            shared = FaultInjectionCampaign(
                model, _RELIABILITY, assume_stable=stable,
            ).run(conversion=conversion, primed=primed)
            assert shared.stats.solver_backend == rule
            assert fmea_rows_payload(shared) == fmea_rows_payload(expected)
            assert spfm(shared, []) == spfm(expected, [])
        assert set(primed.columns) == priming_columns


@functools.lru_cache(maxsize=8)
def _system_b_naive(rails):
    model = build_system_b_simulink(rails=rails)
    naive = FaultInjectionCampaign(
        model, _RELIABILITY, assume_stable=SYSTEM_B_ASSUMED_STABLE,
        incremental=False,
    ).run()
    return model, naive


@settings(max_examples=3, deadline=None)
@given(rails=st.integers(2, 26))
@example(rails=2)
def test_property_system_b_matches_naive_on_both_backends(rails):
    model, naive = _system_b_naive(rails)
    for rule in sorted(SIZE_RULES):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(backends, "SPARSE_AUTO_MIN_SIZE", SIZE_RULES[rule])
            conversion = to_netlist(model)
            primed = PrimedSystem(conversion.netlist)
            assert primed.backend == rule
            priming_columns = set(primed.columns)
            shared = FaultInjectionCampaign(
                model, _RELIABILITY, assume_stable=SYSTEM_B_ASSUMED_STABLE,
            ).run(conversion=conversion, primed=primed)
        assert shared.stats.solver_backend == rule
        assert shared.stats.smw_solves > 0
        # Only the two source-stranding fuse opens leave the low-rank rule.
        assert shared.stats.full_rebuilds == 2
        assert fmea_rows_payload(shared) == fmea_rows_payload(naive)
        assert spfm(shared, []) == spfm(naive, [])
        assert set(primed.columns) == priming_columns
