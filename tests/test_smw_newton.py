"""The sparse rule's Newton loop: reduced steps, then a full-length check.

A sparse fault solve builds its update basis once (``W = A0⁻¹U`` and
``S = UᵀW``) and runs Newton on the K-vector ``Uᵀx`` alone.  Once that
converges, full-length steps take over: the refined, residual-checked
Woodbury solve at the converged biases, then the diode-step test on its
vector, repeated until a step moves no diode by more than the tolerance.
These tests pin that contract on generated grids with the sparse rule
pinned (``SPARSE_AUTO_MIN_SIZE`` = 0):

- every returned solution is the vector of a full step whose refined
  solve passed its residual check and whose own diode step was within
  tolerance;
- a reduced step that fails hands over to full steps, and the rows still
  equal naive injection;
- a hard short converges in the basis, where reading the diode voltages
  as a difference used to cancel digits;
- a reduced loop that never converges falls back to a full rebuild;
- the ill-conditioned 1×1 grid with ``LD1_1`` open ends where the
  previous all-full-length loop ended, and its row equals the dense naive
  row.
"""

import numpy as np
import pytest

from repro import obs
from repro.casestudies import (
    build_power_grid_simulink,
    power_grid_injection_sample,
    power_network_reliability,
)
from repro.circuit import (
    CompiledSystem,
    PrimedSystem,
    backends,
    dc_operating_point,
    mna,
)
from repro.obs.ledger import fmea_rows_payload
from repro.safety.campaign import FaultInjectionCampaign
from repro.simulink import to_netlist

_RELIABILITY = power_network_reliability()

#: The solution vector of ``LD1_1`` open on the 1×1 grid, as the previous
#: sparse loop (a refined full-length Woodbury solve every Newton
#: iteration) returned it: 8 node voltages, then 4 branch currents.
_LD1_1_OPEN_PREVIOUS_LOOP = [
    400.0, 400.0, 399.99999999999767, 399.9999999999957,
    399.80930923676215, 399.8093092367382, 399.8093092367382,
    399.8093092367183,
    -3.1634685714983625e-09, 2.7634685714983622e-09,
    1.1976870545887105e-09, 7.978777453519727e-10,
]


@pytest.fixture
def pinned_sparse(monkeypatch):
    monkeypatch.setattr(backends, "SPARSE_AUTO_MIN_SIZE", 0)


@pytest.fixture(autouse=True)
def clean_obs():
    obs.disable()
    obs.reset()
    yield
    obs.disable()
    obs.reset()


@pytest.fixture(scope="module")
def grid():
    model = build_power_grid_simulink(feeders=2, sections_per_feeder=6)
    return model, power_grid_injection_sample(model, k=8, seed=3)


@pytest.fixture(scope="module")
def naive_rows(grid):
    model, stable = grid
    return fmea_rows_payload(
        FaultInjectionCampaign(
            model, _RELIABILITY, assume_stable=stable, incremental=False,
        ).run()
    )


def _run(model, stable):
    run = FaultInjectionCampaign(
        model, _RELIABILITY, assume_stable=stable
    ).run()
    assert run.stats.solver_backend == "sparse"
    return run


def _never_reduced(self):
    raise mna._SmwFallback


def test_every_solution_is_a_checked_full_step(
    grid, naive_rows, pinned_sparse, monkeypatch
):
    refined = []  # ids of vectors a refined solve returned (it passed)
    steps = []  # (kind, biases before, voltages, vector) per Newton step
    outcomes = []  # the advance() verdict after each step
    solutions = []  # (solution, full steps, its steps, its verdicts)

    real_refined = mna.CompiledSystem._refined_solve
    real_full = mna._WoodburyNewton.full_step
    real_reduced = mna._WoodburyNewton.reduced_step
    real_advance = mna._WoodburyNewton.advance
    real_solve = mna.CompiledSystem._solve_incremental_impl

    def refined_spy(self, *args):
        vector = real_refined(self, *args)
        refined.append(id(vector))
        return vector

    def full_spy(self):
        biases = list(self.biases)
        voltages = real_full(self)
        steps.append(("full", biases, voltages, self.vector))
        return voltages

    def reduced_spy(self):
        biases = list(self.biases)
        voltages = real_reduced(self)
        steps.append(("reduced", biases, voltages, None))
        return voltages

    def advance_spy(self, voltages):
        converged = real_advance(self, voltages)
        outcomes.append(converged)
        return converged

    def solve_spy(self, plan):
        del steps[:], outcomes[:]
        solution, full_steps = real_solve(self, plan)
        solutions.append((solution, full_steps, list(steps), list(outcomes)))
        return solution, full_steps

    monkeypatch.setattr(mna.CompiledSystem, "_refined_solve", refined_spy)
    monkeypatch.setattr(mna._WoodburyNewton, "full_step", full_spy)
    monkeypatch.setattr(mna._WoodburyNewton, "reduced_step", reduced_spy)
    monkeypatch.setattr(mna._WoodburyNewton, "advance", advance_spy)
    monkeypatch.setattr(
        mna.CompiledSystem, "_solve_incremental_impl", solve_spy
    )
    model, stable = grid
    run = _run(model, stable)
    assert fmea_rows_payload(run) == naive_rows
    # Every sparse solve ran through the spies, the priming baseline's too.
    assert len(solutions) == run.stats.smw_solves > 0
    for solution, full_steps, trace, verdicts in solutions:
        kinds = [kind for kind, *_ in trace]
        assert len(trace) == len(verdicts) == solution.iterations
        assert kinds.count("full") == full_steps >= 1
        # Reduced steps first, full steps after them, never interleaved.
        assert kinds == ["reduced"] * (len(kinds) - full_steps) + [
            "full"
        ] * full_steps
        kind, biases, voltages, vector = trace[-1]
        assert kind == "full" and verdicts[-1] is True
        # The answer is that step's vector, which a refined solve returned
        # (one that failed its residual check raises instead).
        assert solution._vector is vector
        assert id(vector) in refined
        # ... and its own diode voltages confirm the biases it was solved at.
        assert np.all(
            np.abs(np.asarray(voltages) - np.asarray(biases))
            <= mna._NEWTON_TOLERANCE
        )


@pytest.mark.parametrize("fail_after", [0, 1])
def test_failed_reduced_step_continues_in_full_space(
    grid, naive_rows, pinned_sparse, monkeypatch, fail_after
):
    model, stable = grid
    reference = _run(model, stable)
    real_reduced = mna._WoodburyNewton.reduced_step
    calls = {}

    def flaky(self):
        calls[id(self)] = calls.get(id(self), 0) + 1
        if calls[id(self)] > fail_after:
            raise mna._SmwFallback
        return real_reduced(self)

    monkeypatch.setattr(mna._WoodburyNewton, "reduced_step", flaky)
    run = _run(model, stable)
    assert calls
    assert fmea_rows_payload(run) == naive_rows
    # Continuation, not a rebuild: the same solves on the same rule.
    assert run.stats.full_rebuilds == reference.stats.full_rebuilds
    assert run.stats.smw_solves == reference.stats.smw_solves


def test_hard_short_converges_in_the_basis(grid, pinned_sparse):
    # Under LD1_6's 1 mOhm short, ``Uᵀy`` is large: reading the diode
    # voltages as ``Uᵀy - S w`` cancelled its digits and left Newton
    # oscillating by 2^-29 V about its fixed point until it rebuilt;
    # ``G⁻¹ w`` is the same quantity without the subtraction.
    model, _ = grid
    netlist = to_netlist(model).netlist
    compiled = CompiledSystem(PrimedSystem(netlist))
    load = netlist.element("LD1_6")
    short = type(load)(load.name, load.node_pos, load.node_neg, 1e-3)
    solution = compiled.solve_replacement("LD1_6", short)
    assert compiled.stats.full_rebuilds == 0
    assert compiled.stats.smw_solves == 1
    naive = dc_operating_point(netlist.with_replacement("LD1_6", short))
    np.testing.assert_allclose(
        solution._vector, naive._vector, rtol=1e-9, atol=1e-9
    )


def test_unconverged_reduced_loop_rebuilds(grid, pinned_sparse, monkeypatch):
    model, stable = grid
    netlist = to_netlist(model).netlist
    primed = PrimedSystem(netlist)
    assert primed.backend == "sparse"

    def restless(self):
        return np.asarray(self.biases) + 1e-3

    monkeypatch.setattr(mna._WoodburyNewton, "reduced_step", restless)
    compiled = CompiledSystem(primed)
    shorted = netlist.element("RT1_3")
    short = type(shorted)(
        shorted.name, shorted.node_pos, shorted.node_neg, 1e-3
    )
    solution = compiled.solve_replacement("RT1_3", short)
    assert compiled.stats.full_rebuilds == 1
    assert compiled.stats.smw_solves == 0
    naive = dc_operating_point(netlist.with_replacement("RT1_3", short))
    assert solution.node_voltages == naive.node_voltages
    assert solution.branch_currents == naive.branch_currents

    monkeypatch.setattr(backends, "SPARSE_AUTO_MIN_SIZE", 10**9)
    dense_naive = FaultInjectionCampaign(
        model, _RELIABILITY, assume_stable=stable, incremental=False,
    ).run()
    monkeypatch.setattr(backends, "SPARSE_AUTO_MIN_SIZE", 0)
    run = _run(model, stable)
    assert run.stats.smw_solves == 0
    # Every solve rebuilt, the priming baseline's included.
    assert run.stats.full_rebuilds == run.stats.solves
    assert fmea_rows_payload(run) == fmea_rows_payload(dense_naive)


def test_ill_conditioned_open_matches_previous_loop_and_dense_row(
    monkeypatch,
):
    # The condition number of this system is ~2e11: pinned-sparse naive
    # re-assembly does not converge on LD1_1 open, while the dense rule
    # and the Woodbury solve agree to 6.3e-6 V.
    model = build_power_grid_simulink(feeders=1, sections_per_feeder=1)
    stable = power_grid_injection_sample(model, k=2, seed=0)
    assert "LD1_1" not in stable
    dense_naive = FaultInjectionCampaign(
        model, _RELIABILITY, assume_stable=stable, incremental=False,
    ).run()
    assert dense_naive.stats.solver_backend == "dense"

    monkeypatch.setattr(backends, "SPARSE_AUTO_MIN_SIZE", 0)
    netlist = to_netlist(model).netlist
    compiled = CompiledSystem(netlist)
    solution = compiled.solve_replacement("LD1_1", None)
    assert compiled.stats.full_rebuilds == 0
    np.testing.assert_allclose(
        solution._vector, _LD1_1_OPEN_PREVIOUS_LOOP, rtol=0, atol=1e-9
    )
    # Full-length steps from the first iteration are the previous loop.
    monkeypatch.setattr(mna._WoodburyNewton, "reduced_step", _never_reduced)
    full_only = CompiledSystem(netlist).solve_replacement("LD1_1", None)
    np.testing.assert_allclose(
        solution._vector, full_only._vector, rtol=0, atol=1e-9
    )
    monkeypatch.undo()

    monkeypatch.setattr(backends, "SPARSE_AUTO_MIN_SIZE", 0)
    run = _run(model, stable)
    assert run.stats.full_rebuilds == 0

    def open_row(result):
        return [
            row for row in fmea_rows_payload(result)
            if row["component"] == "LD1_1" and row["failure_mode"] == "Open"
        ]

    assert open_row(run) and open_row(run) == open_row(dense_naive)
    assert fmea_rows_payload(run) == fmea_rows_payload(dense_naive)


def test_smw_span_splits_reduced_and_full_steps(grid, pinned_sparse):
    model, stable = grid
    obs.enable()
    run = _run(model, stable)
    spans = [
        r for r in obs.tracer().records() if r.name == "mna.smw_solve"
    ]
    # Every sparse solve, the priming baseline's included.
    assert len(spans) == run.stats.smw_solves > 0
    for record in spans:
        attrs = record.attrs
        assert attrs["full_steps"] >= 1
        assert attrs["reduced_iterations"] + attrs["full_steps"] == (
            attrs["iterations"]
        )
