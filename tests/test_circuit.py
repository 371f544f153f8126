"""Circuit simulator tests: netlist rules, DC solutions, transient, faults."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.circuit import (
    Ammeter,
    CircuitError,
    DCSolution,
    Netlist,
    Resistor,
    backends,
    dc_operating_point,
    transient,
)
from repro.circuit.mna import GROUND_NAMES, _System


class TestNetlistRules:
    def test_duplicate_name_rejected(self):
        netlist = Netlist()
        netlist.resistor("R1", "a", "b", 100)
        with pytest.raises(CircuitError):
            netlist.resistor("R1", "b", "c", 100)

    def test_self_loop_rejected(self):
        with pytest.raises(CircuitError):
            Netlist().resistor("R1", "a", "a", 100)

    def test_nonpositive_resistance_rejected(self):
        with pytest.raises(CircuitError):
            Resistor("R", "a", "b", 0.0)
        with pytest.raises(CircuitError):
            Resistor("R", "a", "b", -5.0)

    def test_nonpositive_capacitance_rejected(self):
        with pytest.raises(CircuitError):
            Netlist().capacitor("C", "a", "b", 0.0)

    def test_negative_series_resistance_rejected(self):
        with pytest.raises(CircuitError):
            Netlist().inductor("L", "a", "b", 1e-3, series_resistance=-1)

    def test_element_lookup(self):
        netlist = Netlist()
        netlist.resistor("R1", "a", "b", 100)
        assert netlist.element("R1").resistance == 100
        with pytest.raises(CircuitError):
            netlist.element("R2")
        assert "R1" in netlist and "R2" not in netlist

    def test_nodes_enumerated(self):
        netlist = Netlist()
        netlist.resistor("R1", "a", "b", 100)
        netlist.resistor("R2", "b", "0", 100)
        assert netlist.nodes() == ["a", "b", "0"]


class TestFaultOperations:
    @pytest.fixture
    def netlist(self):
        netlist = Netlist()
        netlist.voltage_source("V1", "a", "0", 10.0)
        netlist.resistor("R1", "a", "b", 100)
        netlist.resistor("R2", "b", "0", 100)
        return netlist

    def test_without_removes_copy_only(self, netlist):
        faulty = netlist.without("R1")
        assert "R1" not in faulty
        assert "R1" in netlist  # original untouched

    def test_without_unknown_element(self, netlist):
        with pytest.raises(CircuitError):
            netlist.without("R9")

    def test_with_short_replaces(self, netlist):
        faulty = netlist.with_short("R1", 1e-3)
        element = faulty.element("R1")
        assert isinstance(element, Resistor)
        assert element.resistance == 1e-3
        assert element.nodes == ("a", "b")

    def test_with_replacement_renames_to_slot(self, netlist):
        faulty = netlist.with_replacement(
            "R1", Resistor("whatever", "a", "b", 5.0)
        )
        assert faulty.element("R1").resistance == 5.0


class TestDCSolutions:
    def test_voltage_divider(self):
        netlist = Netlist()
        netlist.voltage_source("V1", "a", "0", 10.0)
        netlist.resistor("R1", "a", "b", 100)
        netlist.resistor("R2", "b", "0", 300)
        solution = dc_operating_point(netlist)
        assert solution.voltage("b") == pytest.approx(7.5)
        assert solution.current("V1") == pytest.approx(-10.0 / 400)

    def test_ground_aliases(self):
        netlist = Netlist()
        netlist.voltage_source("V1", "a", "GND", 5.0)
        netlist.resistor("R1", "a", "gnd", 100)
        solution = dc_operating_point(netlist)
        assert solution.voltage("a") == pytest.approx(5.0)
        assert solution.voltage("GND") == 0.0

    def test_current_source(self):
        netlist = Netlist()
        netlist.current_source("I1", "0", "a", 0.01)
        netlist.resistor("R1", "a", "0", 1000)
        solution = dc_operating_point(netlist)
        assert solution.voltage("a") == pytest.approx(10.0)

    def test_parallel_resistors(self):
        netlist = Netlist()
        netlist.voltage_source("V1", "a", "0", 6.0)
        netlist.resistor("R1", "a", "0", 200)
        netlist.resistor("R2", "a", "0", 300)
        solution = dc_operating_point(netlist)
        # total 120 ohm -> 50 mA from the source
        assert solution.current("V1") == pytest.approx(-0.05)

    def test_ammeter_reads_series_current(self):
        netlist = Netlist()
        netlist.voltage_source("V1", "a", "0", 5.0)
        netlist.ammeter("AM", "a", "b")
        netlist.resistor("R1", "b", "0", 500)
        solution = dc_operating_point(netlist)
        assert solution.current("AM") == pytest.approx(0.01)

    def test_diode_forward_drop(self):
        netlist = Netlist()
        netlist.voltage_source("V1", "a", "0", 5.0)
        netlist.diode("D1", "a", "b")
        netlist.resistor("R1", "b", "0", 1000)
        solution = dc_operating_point(netlist)
        drop = 5.0 - solution.voltage("b")
        assert 0.4 < drop < 0.9  # silicon-like forward drop
        assert solution.iterations > 1  # Newton actually iterated

    def test_diode_reverse_blocks(self):
        netlist = Netlist()
        netlist.voltage_source("V1", "a", "0", 5.0)
        netlist.diode("D1", "b", "a")  # reverse biased
        netlist.resistor("R1", "b", "0", 1000)
        solution = dc_operating_point(netlist)
        assert abs(solution.voltage("b")) < 1e-3

    def test_inductor_is_dc_short(self):
        netlist = Netlist()
        netlist.voltage_source("V1", "a", "0", 5.0)
        netlist.inductor("L1", "a", "b", 1e-3)
        netlist.resistor("R1", "b", "0", 100)
        solution = dc_operating_point(netlist)
        assert solution.voltage("b") == pytest.approx(5.0)
        assert solution.current("L1") == pytest.approx(0.05)

    def test_inductor_series_resistance(self):
        netlist = Netlist()
        netlist.voltage_source("V1", "a", "0", 5.0)
        netlist.inductor("L1", "a", "b", 1e-3, series_resistance=100.0)
        netlist.resistor("R1", "b", "0", 100)
        solution = dc_operating_point(netlist)
        assert solution.voltage("b") == pytest.approx(2.5)

    def test_capacitor_is_dc_open(self):
        netlist = Netlist()
        netlist.voltage_source("V1", "a", "0", 5.0)
        netlist.resistor("R1", "a", "b", 100)
        netlist.capacitor("C1", "b", "0", 1e-6)
        netlist.resistor("RL", "b", "0", 100)
        solution = dc_operating_point(netlist)
        assert solution.voltage("b") == pytest.approx(2.5)  # cap carries no DC

    def test_switch_states(self):
        netlist = Netlist()
        netlist.voltage_source("V1", "a", "0", 5.0)
        netlist.switch("S1", "a", "b", closed=True)
        netlist.resistor("R1", "b", "0", 100)
        closed = dc_operating_point(netlist)
        assert closed.voltage("b") == pytest.approx(5.0, rel=1e-3)
        opened = netlist.with_replacement(
            "S1", netlist.element("S1").__class__("S1", "a", "b", closed=False)
        )
        assert dc_operating_point(opened).voltage("b") == pytest.approx(
            0.0, abs=1e-3
        )

    def test_floating_node_solvable_via_gmin(self):
        netlist = Netlist()
        netlist.voltage_source("V1", "a", "0", 5.0)
        netlist.resistor("R1", "b", "c", 100)  # entirely floating branch
        solution = dc_operating_point(netlist)
        assert solution.voltage("a") == pytest.approx(5.0)

    def test_empty_netlist_rejected(self):
        with pytest.raises(CircuitError):
            dc_operating_point(Netlist())

    def test_voltage_of_unknown_node(self):
        netlist = Netlist()
        netlist.voltage_source("V1", "a", "0", 5.0)
        netlist.resistor("R1", "a", "0", 1.0)
        solution = dc_operating_point(netlist)
        with pytest.raises(CircuitError):
            solution.voltage("zz")
        with pytest.raises(CircuitError):
            solution.current("R1")  # resistors have no tracked branch


class TestTransient:
    def test_rc_charging_curve(self):
        netlist = Netlist()
        netlist.voltage_source("V1", "a", "0", 1.0)
        netlist.resistor("R1", "a", "b", 1000)
        netlist.capacitor("C1", "b", "0", 1e-6)
        tau = 1e-3
        result = transient(netlist, t_stop=tau, dt=tau / 200)
        # after one time constant the capacitor is at ~63.2 %
        assert result.final_voltage("b") == pytest.approx(
            1 - math.exp(-1), rel=0.02
        )

    def test_rl_current_rise(self):
        netlist = Netlist()
        netlist.voltage_source("V1", "a", "0", 1.0)
        netlist.resistor("R1", "a", "b", 10)
        netlist.inductor("L1", "b", "0", 10e-3)
        tau = 1e-3
        result = transient(netlist, t_stop=tau, dt=tau / 200)
        assert result.final_current("L1") == pytest.approx(
            0.1 * (1 - math.exp(-1)), rel=0.02
        )

    def test_time_varying_source(self):
        netlist = Netlist()
        netlist.voltage_source("V1", "a", "0", 0.0)
        netlist.resistor("R1", "a", "0", 100)
        result = transient(
            netlist, 1e-3, 1e-4, sources={"V1": lambda t: 2.0}
        )
        assert result.final_voltage("a") == pytest.approx(2.0)

    def test_diode_rectifies_in_transient(self):
        netlist = Netlist()
        netlist.voltage_source("V1", "a", "0", 5.0)
        netlist.diode("D1", "a", "b")
        netlist.resistor("R1", "b", "0", 1000)
        result = transient(netlist, 1e-4, 1e-5)
        assert 4.0 < result.final_voltage("b") < 5.0

    def test_invalid_timing_rejected(self):
        netlist = Netlist()
        netlist.resistor("R1", "a", "0", 1)
        with pytest.raises(CircuitError):
            transient(netlist, 0.0, 1e-5)
        with pytest.raises(CircuitError):
            transient(netlist, 1e-3, -1.0)

    @pytest.mark.parametrize("rule", ["dense", "sparse"])
    def test_settled_diode_rc_reaches_the_dc_operating_point(
        self, rule, monkeypatch
    ):
        """Run for over 20 time constants, a diode-resistor-capacitor
        circuit settles where the DC solve puts it: the transient's diode
        Newton, its companions and its step matrix assemble the same
        system as ``dc_operating_point`` once the capacitor is charged."""
        monkeypatch.setattr(
            backends, "SPARSE_AUTO_MIN_SIZE", 0 if rule == "sparse" else 10**9
        )
        netlist = Netlist("diode-rc")
        netlist.voltage_source("V1", "a", "0", 5.0)
        netlist.diode("D1", "a", "b")
        netlist.resistor("R1", "b", "c", 1000)
        netlist.capacitor("C1", "c", "0", 1e-6)
        netlist.resistor("R2", "c", "0", 10e3)
        tau = 1e-6 * (1000 * 10e3) / (1000 + 10e3)  # ~0.91 ms
        result = transient(netlist, t_stop=22 * tau, dt=tau / 100)
        dc = dc_operating_point(netlist)
        assert set(result.node_voltages) == set(dc.node_voltages)
        for node, value in dc.node_voltages.items():
            assert result.final_voltage(node) == pytest.approx(
                value, abs=1e-6
            ), node
        assert result.final_voltage("c") > 3.5  # the diode conducts

    def test_series_lengths_consistent(self):
        netlist = Netlist()
        netlist.voltage_source("V1", "a", "0", 1.0)
        netlist.resistor("R1", "a", "0", 100)
        result = transient(netlist, 1e-3, 1e-4)
        assert len(result.times) == 10
        assert len(result.voltage("a")) == 10


@settings(max_examples=40, deadline=None)
@given(
    resistances=st.lists(
        st.floats(min_value=1.0, max_value=1e5, allow_nan=False),
        min_size=1,
        max_size=8,
    ),
    voltage=st.floats(min_value=0.1, max_value=100.0, allow_nan=False),
)
def test_property_series_chain_obeys_ohms_law(resistances, voltage):
    """Any series resistor chain: I == V / sum(R) and KVL holds."""
    netlist = Netlist()
    netlist.voltage_source("V1", "n0", "0", voltage)
    for index, resistance in enumerate(resistances):
        target = "0" if index == len(resistances) - 1 else f"n{index + 1}"
        netlist.resistor(f"R{index}", f"n{index}", target, resistance)
    solution = dc_operating_point(netlist)
    expected = voltage / sum(resistances)
    # gmin (1e-12 S per node) leaks ~R_total*gmin relative error, up to
    # ~1e-6 for the largest chains this test generates.
    assert -solution.current("V1") == pytest.approx(expected, rel=1e-4)
    # KVL: node voltages decrease monotonically along the chain.
    voltages = [solution.voltage(f"n{i}") for i in range(len(resistances))]
    assert all(a >= b - 1e-9 for a, b in zip(voltages, voltages[1:]))


# -- lazy operating points ------------------------------------------------------


def _contract_netlist() -> Netlist:
    """Every element kind the solution tracks, with ground under each alias."""
    netlist = Netlist("contract")
    netlist.voltage_source("V1", "in", "GND", 12.0)
    netlist.resistor("R1", "in", "mid", 10.0)
    netlist.inductor("L1", "mid", "rail", 1e-3, series_resistance=0.2)
    netlist.ammeter("A1", "rail", "load")
    netlist.resistor("R2", "load", "gnd", 50.0)
    netlist.diode("D1", "rail", "led")
    netlist.resistor("R3", "led", "ground", 220.0)
    netlist.capacitor("C1", "mid", "0", 1e-6)
    return netlist


def _reference(system: _System, vector):
    """Both dicts built up front, as every solution once held them."""
    nodes = {node: float(vector[idx]) for node, idx in system.node_index.items()}
    branches = {
        element.name: float(vector[system.branch_index[element.name]])
        for element in system.branch_elements
    }
    return nodes, branches


def _outcome(read, *args):
    try:
        return ("value", read(*args))
    except CircuitError as exc:
        return ("error", str(exc))


def _expected_voltage(nodes, node):
    if node in GROUND_NAMES:
        return ("value", 0.0)
    if node not in nodes:
        return ("error", f"no node named {node!r}")
    return ("value", nodes[node])


def _expected_current(branches, name):
    if name not in branches:
        return (
            "error",
            f"element {name!r} has no tracked branch current "
            f"(tracked: {sorted(branches)})",
        )
    return ("value", branches[name])


_CONTRACT = _contract_netlist()
_CONTRACT_SYSTEM = _System(_CONTRACT, 1e-12)
_KNOWN = sorted(_CONTRACT_SYSTEM.node_index) + list(GROUND_NAMES)
_ELEMENTS = [element.name for element in _CONTRACT.elements()]


@settings(max_examples=60, deadline=None)
@given(
    values=st.lists(
        st.floats(allow_nan=False, allow_infinity=False, width=64),
        min_size=_CONTRACT_SYSTEM.size,
        max_size=_CONTRACT_SYSTEM.size,
    ),
    nodes=st.lists(st.sampled_from(_KNOWN) | st.text(max_size=4), max_size=6),
    elements=st.lists(
        st.sampled_from(_ELEMENTS) | st.text(max_size=4), max_size=4
    ),
)
def test_property_lazy_solution_equals_eager(values, nodes, elements):
    """A solution read off the vector through the index maps answers every
    query as the two dicts built up front would: the same floats, ground
    aliases at 0 V, and the same :class:`CircuitError` for an unknown node
    or an element without a tracked branch current.  A solution built
    from those dicts is equal to it and answers the same."""
    vector = np.array(values)
    lazy = _CONTRACT_SYSTEM.to_solution(vector, 3)
    expected_nodes, expected_branches = _reference(_CONTRACT_SYSTEM, vector)
    eager = DCSolution(dict(expected_nodes), dict(expected_branches), 3)
    for solution in (lazy, eager):
        for node in nodes:
            assert _outcome(solution.voltage, node) == _expected_voltage(
                expected_nodes, node
            )
        for pos, neg in zip(nodes, reversed(nodes)):
            across = _outcome(solution.voltage_across, pos, neg)
            first = _expected_voltage(expected_nodes, pos)
            second = _expected_voltage(expected_nodes, neg)
            if first[0] == "error":
                assert across == first
            elif second[0] == "error":
                assert across == second
            else:
                assert across == ("value", first[1] - second[1])
        for name in elements:
            assert _outcome(solution.current, name) == _expected_current(
                expected_branches, name
            )
        assert list(solution.node_voltages.items()) == list(
            expected_nodes.items()
        )
        assert list(solution.branch_currents.items()) == list(
            expected_branches.items()
        )
    assert lazy == eager and lazy.iterations == eager.iterations == 3


def test_solver_solutions_are_lazy_and_agree():
    solution = dc_operating_point(_CONTRACT)
    assert solution._node_voltages is None  # nothing built yet
    for alias in GROUND_NAMES:
        assert solution.voltage(alias) == 0.0
    assert solution.current("A1") == solution.branch_currents["A1"]
    assert solution.voltage("rail") == solution.node_voltages["rail"]
    with pytest.raises(CircuitError, match="no node named 'nowhere'"):
        solution.voltage("nowhere")
    with pytest.raises(CircuitError, match="no tracked branch current"):
        solution.current("R1")
