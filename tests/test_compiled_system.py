"""Unit tests for the compiled incremental MNA solver.

Every fault class a :class:`~repro.circuit.CompiledSystem` claims to solve
through the cached factorization is checked against the plain
:func:`~repro.circuit.dc_operating_point` on the modified netlist, and the
declared fallbacks (topology changes, orphaned nodes, gmin-only nodes)
must actually take the full-assembly path.
"""

import math
import os
import pathlib
import subprocess
import sys
import warnings

import numpy as np
import pytest

from repro.circuit import (
    CircuitError,
    CompiledSystem,
    PrimedSystem,
    backends,
    dc_operating_point,
)
from repro.circuit import mna
from repro.circuit.mna import _MAX_GMIN_RETRIES
from repro.circuit.netlist import Netlist, Resistor, VoltageSource


def ladder() -> Netlist:
    """V1 -> R1 -> (R2 || D1-loaded rail) with an ammeter and an inductor."""
    netlist = Netlist("ladder")
    netlist.voltage_source("V1", "in", "0", 5.0)
    netlist.resistor("R1", "in", "mid", 10.0)
    netlist.inductor("L1", "mid", "rail", 1e-3, series_resistance=0.5)
    netlist.resistor("R2", "rail", "0", 100.0)
    netlist.diode("D1", "rail", "dl")
    netlist.resistor("R3", "dl", "0", 220.0)
    netlist.ammeter("A1", "rail", "am")
    netlist.resistor("R4", "am", "0", 470.0)
    return netlist


def assert_solutions_close(fast, exact, tol=1e-8):
    assert set(fast.node_voltages) >= set(exact.node_voltages)
    for node, value in exact.node_voltages.items():
        assert math.isclose(
            fast.node_voltages[node], value, rel_tol=tol, abs_tol=tol
        ), node
    for name, current in exact.branch_currents.items():
        assert math.isclose(
            fast.branch_currents[name], current, rel_tol=tol, abs_tol=tol
        ), name


class TestBaseline:
    def test_baseline_matches_plain_solver(self):
        netlist = ladder()
        compiled = CompiledSystem(netlist)
        assert_solutions_close(compiled.solve(), dc_operating_point(netlist))

    def test_baseline_cached(self):
        compiled = CompiledSystem(ladder())
        first = compiled.solve()
        assert compiled.solve() is first
        assert compiled.stats.solves == 1


class TestIncrementalFaults:
    @pytest.mark.parametrize(
        "name, replacement",
        [
            ("R2", Resistor("R2", "rail", "0", 1e-3)),  # short
            ("R2", Resistor("R2", "rail", "0", 150.0)),  # drift
            ("R2", None),  # open; rail still held by L1/A1/R4
            ("D1", None),  # diode open
            ("V1", VoltageSource("V1", "in", "0", 3.3)),  # source droop
        ],
    )
    def test_replacement_matches_full_reassembly(self, name, replacement):
        netlist = ladder()
        compiled = CompiledSystem(netlist)
        compiled.solve()
        fast = compiled.solve_replacement(name, replacement)
        if replacement is None:
            reference = dc_operating_point(netlist.without(name))
        else:
            reference = dc_operating_point(
                netlist.with_replacement(name, replacement)
            )
        assert_solutions_close(fast, reference)
        assert compiled.stats.full_rebuilds == 0

    def test_inductor_short_stays_low_rank(self):
        netlist = ladder()
        compiled = CompiledSystem(netlist)
        compiled.solve()
        fast = compiled.solve_replacement(
            "L1", Resistor("L1", "mid", "rail", 1e-3)
        )
        reference = dc_operating_point(
            netlist.with_replacement("L1", Resistor("L1", "mid", "rail", 1e-3))
        )
        assert_solutions_close(fast, reference)
        assert compiled.stats.full_rebuilds == 0
        assert compiled.stats.smw_solves > 0

    def test_inductor_open_pinches_branch_current_off(self):
        netlist = ladder()
        compiled = CompiledSystem(netlist)
        compiled.solve()
        fast = compiled.solve_replacement("L1", None)
        reference = dc_operating_point(netlist.without("L1"))
        for node, value in reference.node_voltages.items():
            assert math.isclose(
                fast.node_voltages[node], value, rel_tol=1e-6, abs_tol=1e-6
            ), node
        assert abs(fast.branch_currents["L1"]) < 1e-9
        assert compiled.stats.full_rebuilds == 0

    def test_identity_replacement_reuses_baseline(self):
        netlist = ladder()
        compiled = CompiledSystem(netlist)
        baseline = compiled.solve()
        again = compiled.solve_replacement(
            "R2", Resistor("R2", "rail", "0", 100.0)
        )
        assert again is baseline
        assert compiled.stats.baseline_reuses == 1


class TestOneDiodeDirection:
    FAULTS = [
        ("R2", Resistor("R2", "rail", "0", 1e-3)),
        ("R2", Resistor("R2", "rail", "0", 150.0)),
        ("R2", None),
        ("R1", Resistor("R1", "in", "mid", 1e4)),
        ("L1", Resistor("L1", "mid", "rail", 1e-3)),
        ("V1", VoltageSource("V1", "in", "0", 3.3)),
    ]

    def test_scalar_step_follows_the_k_by_k_newton(self, monkeypatch):
        """With one diode direction the reduced step eliminates the static
        directions once and runs on scalars; it must take the Newton path
        the K × K step takes, to rounding."""
        netlist = ladder()
        scalar = CompiledSystem(netlist)
        taken = []
        real = mna._WoodburyNewton._diode_direction

        def spy(self):
            taken.append(real(self))
            return taken[-1]

        monkeypatch.setattr(mna._WoodburyNewton, "_diode_direction", spy)
        fast = [scalar.solve_replacement(*fault) for fault in self.FAULTS]
        assert len(taken) == len(self.FAULTS) and None not in taken
        monkeypatch.setattr(
            mna._WoodburyNewton, "_diode_direction", lambda self: None
        )
        general = CompiledSystem(netlist)
        for fault, solution in zip(self.FAULTS, fast):
            reference = general.solve_replacement(*fault)
            assert solution.iterations == reference.iterations, fault
            assert_solutions_close(solution, reference, tol=1e-10)
        assert scalar.stats == general.stats
        assert scalar.stats.full_rebuilds == 0


class TestFallbacks:
    def test_orphaning_removal_falls_back(self):
        """Removing the sole element on a node must take the exact path:
        the naive solver drops the orphaned node entirely, which no
        low-rank update of the baseline matrix can express."""
        netlist = ladder()
        netlist.resistor("R5", "rail", "end", 50.0)
        compiled = CompiledSystem(netlist)
        compiled.solve()
        fast = compiled.solve_replacement("R5", None)
        reference = dc_operating_point(netlist.without("R5"))
        assert_solutions_close(fast, reference)
        assert compiled.stats.full_rebuilds == 1

    def test_rewired_replacement_falls_back(self):
        netlist = ladder()
        compiled = CompiledSystem(netlist)
        compiled.solve()
        moved = Resistor("R2", "rail", "dl", 100.0)  # different nodes
        fast = compiled.solve_replacement("R2", moved)
        reference = dc_operating_point(netlist.with_replacement("R2", moved))
        assert_solutions_close(fast, reference)
        assert compiled.stats.full_rebuilds == 1

    def test_gmin_only_node_falls_back(self):
        """A removal that leaves a node held only by a diode (no static
        conductance, no branch row) must take the exact path: the naive
        solver computes the near-floating node directly."""
        netlist = Netlist("stub")
        netlist.voltage_source("V1", "in", "0", 5.0)
        netlist.resistor("R1", "in", "a", 10.0)
        netlist.diode("D1", "a", "b")
        netlist.resistor("R2", "b", "0", 100.0)
        compiled = CompiledSystem(netlist)
        compiled.solve()
        fast = compiled.solve_replacement("R1", None)
        reference = dc_operating_point(netlist.without("R1"))
        assert compiled.stats.full_rebuilds == 1
        for node, value in reference.node_voltages.items():
            assert math.isclose(
                fast.node_voltages[node], value, rel_tol=1e-6, abs_tol=1e-6
            ), node

    def test_results_identical_across_many_faults(self):
        """Sweep every element through a representative fault and compare
        against full re-assembly — the per-element acceptance check."""
        netlist = ladder()
        compiled = CompiledSystem(netlist)
        compiled.solve()
        for element in list(netlist.elements()):
            if isinstance(element, VoltageSource):
                continue
            fast = compiled.solve_replacement(element.name, None)
            reference = dc_operating_point(netlist.without(element.name))
            for node, value in reference.node_voltages.items():
                assert math.isclose(
                    fast.node_voltages[node],
                    value,
                    rel_tol=1e-6,
                    abs_tol=1e-6,
                ), (element.name, node)


class TestPrimedSystem:
    """The per-netlist part is primed once and then only read: solvers
    sharing it count their own solves and keep their own columns."""

    @pytest.fixture
    def sparse(self, monkeypatch):
        monkeypatch.setattr(backends, "SPARSE_AUTO_MIN_SIZE", 0)

    def test_primed_sparse_system_keeps_no_triplet_lists(self, sparse):
        netlist = ladder()
        netlist.resistor("R5", "rail", "end", 50.0)
        primed = PrimedSystem(netlist)
        assert primed.backend == "sparse"
        # Only the backend's matrix and the constant RHS outlive priming:
        # no Python list of stamp rows, columns or values, however nested.
        def number_lists(value):
            if isinstance(value, list):
                numbers = all(isinstance(x, (int, float)) for x in value)
                return [value] if value and numbers else []
            if isinstance(value, tuple):
                return [found for item in value for found in number_lists(item)]
            return []

        kept = {
            name: value
            for name, value in vars(primed.system).items()
            if number_lists(value)
        }
        assert kept == {}
        assert primed.system.constant_rhs() is primed.system.constant_rhs()
        compiled = CompiledSystem(primed)
        # Removing R5 orphans its node: a full rebuild of the fault.
        fast = compiled.solve_replacement("R5", None)
        assert compiled.stats.full_rebuilds == 1
        assert_solutions_close(fast, dc_operating_point(netlist.without("R5")))
        drift = Resistor("R2", "rail", "0", 150.0)
        fast = compiled.solve_replacement("R2", drift)
        assert compiled.stats.smw_solves == 1
        assert_solutions_close(
            fast, dc_operating_point(netlist.with_replacement("R2", drift))
        )

    @pytest.mark.parametrize("rule", ["dense", "sparse"])
    def test_shared_primed_system_counts_only_own_solves(
        self, rule, monkeypatch
    ):
        monkeypatch.setattr(
            backends, "SPARSE_AUTO_MIN_SIZE", 0 if rule == "sparse" else 10**9
        )
        netlist = ladder()
        primed = PrimedSystem(netlist)
        assert primed.backend == rule
        assert primed.stats.solves == 1
        priming_columns = dict(primed.columns)
        first, second = CompiledSystem(primed), CompiledSystem(primed)
        assert first.solve() is second.solve() is primed.baseline
        assert first.stats.solves == 0  # the baseline was primed
        short = Resistor("R2", "rail", "0", 1e-3)
        for compiled in (first, second):
            fast = compiled.solve_replacement("R2", short)
            assert_solutions_close(
                fast, dc_operating_point(netlist.with_replacement("R2", short))
            )
        assert first.stats == second.stats
        assert first.stats.solves == 1
        # A run's fault columns stay with the run.
        assert primed.columns.keys() == priming_columns.keys()
        assert all(
            primed.columns[pair] is column
            for pair, column in priming_columns.items()
        )
        # A solver that primes its own system counts the priming.
        own = CompiledSystem(netlist)
        own.solve_replacement("R2", short)
        assert own.stats.solves == primed.stats.solves + first.stats.solves

    def test_failed_baseline_is_kept_and_raised(self, monkeypatch):
        # Two sources forcing one node to different voltages: singular
        # whatever the gmin.
        netlist = Netlist("clash")
        netlist.voltage_source("V1", "a", "0", 5.0)
        netlist.voltage_source("V2", "a", "0", 3.0)
        netlist.resistor("R1", "a", "0", 10.0)
        with pytest.raises(CircuitError) as plain:
            dc_operating_point(netlist)
        # Both factorization backends refuse the singular constant matrix
        # and latch the fallback to full assembly the same way.
        for rule, threshold in (("dense", 10**9), ("sparse", 0)):
            monkeypatch.setattr(backends, "SPARSE_AUTO_MIN_SIZE", threshold)
            primed = PrimedSystem(netlist)
            assert primed.backend == rule
            assert primed._factor is None
            assert primed.stats.full_rebuilds == 1
            assert primed.baseline is None
            assert primed.warm_vd == {}
            for _ in range(2):
                with pytest.raises(CircuitError, match="singular"):
                    CompiledSystem(primed).solve()
            assert primed.baseline_error == str(plain.value)


class TestGminRetry:
    @pytest.mark.parametrize("rule", ["dense", "sparse"])
    def test_caller_gmin_never_weakened(self, rule, monkeypatch):
        """The singular-matrix retry must strengthen the caller's gmin, not
        reset it to the default floor (regression: a caller-supplied 1e-6
        used to retry at 1e-9, *weaker* than what the caller asked for).
        One ``factorize`` serves both backends, so refusing its first call
        forces the retry on either."""
        monkeypatch.setattr(
            backends, "SPARSE_AUTO_MIN_SIZE", 0 if rule == "sparse" else 10**9
        )
        factorize = backends.factorize
        factorized = []

        def refuse_first(matrix, backend):
            factorized.append(backend)
            if len(factorized) == 1:
                raise backends.FactorizationError("forced singular")
            return factorize(matrix, backend)

        system_gmins = []

        class RecordingSystem(mna._System):
            def __init__(self, netlist, gmin):
                system_gmins.append(gmin)
                super().__init__(netlist, gmin)

        monkeypatch.setattr(backends, "factorize", refuse_first)
        monkeypatch.setattr(mna, "_System", RecordingSystem)
        solution = dc_operating_point(ladder(), gmin=1e-6)
        assert _MAX_GMIN_RETRIES >= 1
        assert system_gmins == [1e-6, pytest.approx(1e-3)]
        assert set(factorized) == {rule}
        assert len(factorized) == 1 + solution.iterations
        monkeypatch.undo()
        assert_solutions_close(
            solution, dc_operating_point(ladder(), gmin=1e-3), tol=1e-12
        )

    def test_solver_works_at_strong_gmin(self):
        netlist = ladder()
        strong = dc_operating_point(netlist, gmin=1e-9)
        weak = dc_operating_point(netlist, gmin=1e-12)
        for node in weak.node_voltages:
            assert math.isclose(
                strong.node_voltages[node],
                weak.node_voltages[node],
                rel_tol=1e-4,
                abs_tol=1e-6,
            )


class TestFactorize:
    @pytest.mark.parametrize("backend", backends.BACKENDS)
    def test_singular_matrix_is_refused_without_a_warning(self, backend):
        """A zero pivot is a FactorizationError on both backends, so a
        primed system latches its fallback the same way on either; the
        dense LU must not warn and hand back solves of ``±inf``."""
        singular = np.array([[1.0, 1.0], [1.0, 1.0]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(backends.FactorizationError, match="singular"):
                backends.factorize(singular, backend)

    def test_dense_campaign_never_imports_scipy_sparse(self):
        """A process whose systems all stay dense (every paper case study)
        never loads ``scipy.sparse``: its import is a visible share of a
        small server's memory."""
        script = (
            "import sys\n"
            "from repro.casestudies import build_power_supply_simulink, "
            "power_supply_reliability\n"
            "from repro.casestudies.power_supply import ASSUMED_STABLE\n"
            "from repro.safety.campaign import FaultInjectionCampaign\n"
            "result = FaultInjectionCampaign(build_power_supply_simulink(), "
            "power_supply_reliability(), assume_stable=ASSUMED_STABLE).run()\n"
            "assert result.stats.solver_backend == 'dense'\n"
            "assert result.stats.smw_solves > 0\n"
            "print(sorted(m for m in sys.modules "
            "if m.startswith('scipy.sparse')))\n"
        )
        src = pathlib.Path(__file__).resolve().parents[1] / "src"
        env = dict(os.environ, PYTHONPATH=str(src))
        out = subprocess.run(
            [sys.executable, "-c", script], env=env,
            capture_output=True, text=True, timeout=120, check=True,
        )
        assert out.stdout.strip() == "[]"
