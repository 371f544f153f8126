"""AC small-signal analysis tests against closed-form filter responses."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.circuit import (
    CircuitError,
    Netlist,
    VoltageSource,
    ac_analysis,
    backends,
    dc_operating_point,
    frequency_response,
)

#: ``SPARSE_AUTO_MIN_SIZE`` values that pin each backend.
SIZE_RULES = {"dense": 10**9, "sparse": 0}


def rc_lowpass(r=1000.0, c=1e-6):
    netlist = Netlist("rc")
    netlist.voltage_source("V1", "a", "0", 1.0)
    netlist.resistor("R1", "a", "b", r)
    netlist.capacitor("C1", "b", "0", c)
    return netlist


class TestRcLowpass:
    def test_dc_gain_is_unity(self):
        solution = ac_analysis(rc_lowpass(), 0.0)
        assert abs(solution.voltage("b")) == pytest.approx(1.0, rel=1e-6)

    def test_cutoff_is_minus_3db(self):
        r, c = 1000.0, 1e-6
        f_c = 1.0 / (2 * math.pi * r * c)
        solution = ac_analysis(rc_lowpass(r, c), f_c)
        assert abs(solution.voltage("b")) == pytest.approx(
            1 / math.sqrt(2), rel=1e-6
        )
        assert solution.magnitude_db("b") == pytest.approx(-3.0103, abs=1e-3)

    def test_phase_at_cutoff_is_minus_45_degrees(self):
        r, c = 1000.0, 1e-6
        f_c = 1.0 / (2 * math.pi * r * c)
        voltage = ac_analysis(rc_lowpass(r, c), f_c).voltage("b")
        assert math.degrees(math.atan2(voltage.imag, voltage.real)) == (
            pytest.approx(-45.0, abs=0.01)
        )

    def test_rolloff_20db_per_decade(self):
        r, c = 1000.0, 1e-6
        f_c = 1.0 / (2 * math.pi * r * c)
        high = ac_analysis(rc_lowpass(r, c), 100 * f_c)
        higher = ac_analysis(rc_lowpass(r, c), 1000 * f_c)
        assert higher.magnitude_db("b") - high.magnitude_db("b") == (
            pytest.approx(-20.0, abs=0.1)
        )


class TestRlAndResonance:
    def test_rl_highpass_behaviour(self):
        netlist = Netlist("rl")
        netlist.voltage_source("V1", "a", "0", 1.0)
        netlist.resistor("R1", "a", "b", 100.0)
        netlist.inductor("L1", "b", "0", 1e-3)
        low = abs(ac_analysis(netlist, 10.0).voltage("b"))
        high = abs(ac_analysis(netlist, 1e6).voltage("b"))
        assert low < 0.01
        assert high > 0.95

    def test_series_rlc_resonance_peak_in_current(self):
        r, l, c = 10.0, 1e-3, 1e-6
        f_0 = 1.0 / (2 * math.pi * math.sqrt(l * c))
        netlist = Netlist("rlc")
        netlist.voltage_source("V1", "a", "0", 1.0)
        netlist.resistor("R1", "a", "b", r)
        netlist.inductor("L1", "b", "c", l)
        netlist.capacitor("C1", "c", "0", c)
        at_resonance = abs(ac_analysis(netlist, f_0).current("V1"))
        off_resonance = abs(ac_analysis(netlist, f_0 / 10).current("V1"))
        # At resonance the reactances cancel: |I| = 1/R exactly.
        assert at_resonance == pytest.approx(1.0 / r, rel=1e-3)
        assert off_resonance < at_resonance / 5


class TestDiodeSmallSignal:
    def test_diode_linearised_at_operating_point(self):
        netlist = Netlist("d")
        netlist.voltage_source("V1", "a", "0", 5.0)
        netlist.diode("D1", "a", "b")
        netlist.resistor("R1", "b", "0", 1000.0)
        solution = ac_analysis(netlist, 1000.0)
        # Forward-biased diode has low dynamic resistance: the AC signal
        # passes almost fully to the load.
        assert abs(solution.voltage("b")) == pytest.approx(1.0, abs=0.05)

    def test_reverse_diode_blocks_small_signal(self):
        netlist = Netlist("d")
        netlist.voltage_source("V1", "a", "0", 5.0)
        netlist.diode("D1", "b", "a")  # reverse biased
        netlist.resistor("R1", "b", "0", 1000.0)
        solution = ac_analysis(netlist, 1000.0)
        assert abs(solution.voltage("b")) < 1e-3


class TestApi:
    def test_frequency_response_sweep(self):
        response = frequency_response(
            rc_lowpass(), "b", [1.0, 159.0, 1e5]
        )
        magnitudes = [abs(v) for v in response]
        assert magnitudes[0] > 0.99
        assert 0.6 < magnitudes[1] < 0.8
        assert magnitudes[2] < 0.01

    def test_explicit_ac_sources(self):
        netlist = rc_lowpass()
        solution = ac_analysis(netlist, 0.0, ac_sources={"V1": 2.0})
        assert abs(solution.voltage("b")) == pytest.approx(2.0, rel=1e-6)

    def test_negative_frequency_rejected(self):
        with pytest.raises(CircuitError):
            ac_analysis(rc_lowpass(), -1.0)

    def test_no_source_rejected(self):
        netlist = Netlist("n")
        netlist.resistor("R1", "a", "0", 100.0)
        with pytest.raises(CircuitError, match="excite"):
            ac_analysis(netlist, 100.0)

    def test_unknown_node_rejected(self):
        solution = ac_analysis(rc_lowpass(), 100.0)
        with pytest.raises(CircuitError):
            solution.voltage("zz")


@settings(max_examples=40, deadline=None)
@given(
    r=st.floats(min_value=10.0, max_value=1e5, allow_nan=False),
    c=st.floats(min_value=1e-9, max_value=1e-5, allow_nan=False),
    decades=st.integers(-2, 2),
)
def test_property_rc_matches_closed_form(r, c, decades):
    """|H(jw)| = 1/sqrt(1 + (w R C)^2) for the RC low-pass, any R, C, f."""
    f_c = 1.0 / (2 * math.pi * r * c)
    frequency = f_c * (10.0 ** decades)
    measured = abs(ac_analysis(rc_lowpass(r, c), frequency).voltage("b"))
    omega_rc = 2 * math.pi * frequency * r * c
    expected = 1.0 / math.sqrt(1.0 + omega_rc**2)
    assert measured == pytest.approx(expected, rel=1e-4)


_ohms = st.sampled_from((1.0, 10.0, 47.0, 220.0, 1e3, 4.7e3))


@st.composite
def linear_netlists(draw):
    """A resistor ladder fed by one to three voltage sources, with
    capacitors and inductors (each with a series resistance) hung on
    random nodes; no current sources and no diodes."""
    size = draw(st.integers(2, 12))
    nodes = [f"n{index}" for index in range(size)]
    netlist = Netlist(f"linear-{size}")
    for index, (a, b) in enumerate(zip(nodes, nodes[1:])):
        netlist.resistor(f"R{index}", a, b, draw(_ohms))
    netlist.resistor("RL", nodes[-1], "0", draw(_ohms))
    for index in range(draw(st.integers(1, 3))):
        source = f"v{index}"
        netlist.voltage_source(
            f"V{index}", source, "0", draw(st.sampled_from((1.8, 5.0, -3.3)))
        )
        netlist.resistor(f"RV{index}", source, draw(st.sampled_from(nodes)),
                         draw(_ohms))
    for index in range(draw(st.integers(0, 3))):
        a = draw(st.sampled_from(nodes))
        b = draw(st.sampled_from(nodes + ["0"]))
        if a != b:
            netlist.capacitor(f"C{index}", a, b, 1e-6)
    for index in range(draw(st.integers(0, 3))):
        a = draw(st.sampled_from(nodes))
        b = draw(st.sampled_from(nodes + ["0"]))
        if a != b:
            netlist.inductor(
                f"L{index}", a, b, 1e-3, series_resistance=draw(_ohms)
            )
    return netlist


@pytest.mark.parametrize("rule", sorted(SIZE_RULES))
@settings(max_examples=40, deadline=None)
@given(netlist=linear_netlists())
def test_property_zero_hertz_equals_the_dc_operating_point(rule, netlist):
    """At 0 Hz, with every source at its DC voltage, the AC system is the
    DC system: capacitors open, inductors their series resistance."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(backends, "SPARSE_AUTO_MIN_SIZE", SIZE_RULES[rule])
        dc = dc_operating_point(netlist)
        sources = {
            e.name: e.voltage
            for e in netlist.elements()
            if isinstance(e, VoltageSource)
        }
        ac = ac_analysis(netlist, 0.0, ac_sources=sources)
    assert ac.node_voltages.keys() == dc.node_voltages.keys()
    for node, value in dc.node_voltages.items():
        assert abs(ac.voltage(node).imag) == 0.0, node
        assert math.isclose(
            ac.voltage(node).real, value, rel_tol=1e-9, abs_tol=1e-12
        ), (rule, node, ac.voltage(node), value)
    for name, current in dc.branch_currents.items():
        assert math.isclose(
            ac.current(name).real, current, rel_tol=1e-9, abs_tol=1e-12
        ), (rule, name, ac.current(name), current)
