"""AC small-signal analysis — complex MNA at a given frequency.

Extends the substrate beyond the paper's DC needs: frequency-domain
behaviour of the same netlists (filter responses, sensor bandwidths), used
by the extended examples and tests.  Elements stamp complex admittances:

- resistor / switch: ``1/R``;
- capacitor: ``jωC``;
- inductor: branch with ``V = (R_s + jωL) I``;
- diode: linearised at its DC operating point (small-signal conductance);
- independent sources: AC magnitude 0 unless listed in ``ac_sources``
  (DC sources are AC shorts, exactly as in SPICE's ``.AC``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional

import numpy as np

from repro.circuit import backends as _backends
from repro.circuit.mna import (
    DCSolution,
    _System,
    _is_ground,
    dc_operating_point,
)
from repro.circuit.netlist import (
    Capacitor,
    CircuitError,
    Diode,
    Inductor,
    Netlist,
    VoltageSource,
)


@dataclass
class ACSolution:
    """Complex node voltages and branch currents at one frequency."""

    frequency: float
    node_voltages: Dict[str, complex]
    branch_currents: Dict[str, complex]

    def voltage(self, node: str) -> complex:
        if _is_ground(node):
            return 0j
        try:
            return self.node_voltages[node]
        except KeyError:
            raise CircuitError(f"no node named {node!r}") from None

    def voltage_across(self, node_pos: str, node_neg: str) -> complex:
        return self.voltage(node_pos) - self.voltage(node_neg)

    def current(self, element_name: str) -> complex:
        try:
            return self.branch_currents[element_name]
        except KeyError:
            raise CircuitError(
                f"element {element_name!r} has no tracked branch current"
            ) from None

    def magnitude_db(self, node: str) -> float:
        magnitude = abs(self.voltage(node))
        return -math.inf if magnitude == 0 else 20.0 * math.log10(magnitude)


def ac_analysis(
    netlist: Netlist,
    frequency: float,
    ac_sources: Optional[Dict[str, float]] = None,
    operating_point: Optional[DCSolution] = None,
    gmin: float = 1e-12,
) -> ACSolution:
    """Small-signal solution at ``frequency`` (Hz).

    ``ac_sources`` maps voltage-source names to AC magnitudes (default: the
    first voltage source at 1 V, everything else 0 — i.e. a standard
    single-input transfer-function setup).

    The matrix is the DC system's (:class:`~repro.circuit.mna._System`:
    the same index maps and linear stamps, ``gmin`` included) plus complex
    triplets for ``jωC``, the inductors' ``-jωL`` and each diode's
    small-signal conductance at ``operating_point`` (solved here when not
    given).  At 0 Hz with every source at its DC value it is the DC
    system.  The system's size picks the linear-solver backend
    (:func:`~repro.circuit.backends.resolve_backend`); every call
    factorizes afresh.
    """
    if frequency < 0:
        raise CircuitError("frequency must be >= 0")
    if len(netlist) == 0:
        raise CircuitError("cannot analyse an empty netlist")
    omega = 2.0 * math.pi * frequency
    system = _System(netlist, gmin)
    if system.diodes and operating_point is None:
        operating_point = dc_operating_point(netlist)

    if ac_sources is None:
        first = next(
            (
                e.name
                for e in netlist.elements()
                if isinstance(e, VoltageSource)
            ),
            None,
        )
        if first is None:
            raise CircuitError(
                "no voltage source to excite; pass ac_sources explicitly"
            )
        ac_sources = {first: 1.0}

    if system.size == 0:
        raise CircuitError("netlist has no unknowns")

    # The real stamps (resistors, switches, branch incidences, inductor
    # series resistances, gmin), then the frequency-dependent ones.
    triplets, _ = system._constant_parts()
    rhs = np.zeros(system.size, dtype=complex)
    for element in netlist.elements():
        if isinstance(element, Capacitor):
            system.stamp(
                triplets, element.node_pos, element.node_neg,
                1j * omega * element.capacitance,
            )
        elif isinstance(element, Diode):
            vd = operating_point.voltage_across(  # type: ignore[union-attr]
                element.node_pos, element.node_neg
            )
            system.stamp(
                triplets, element.node_pos, element.node_neg,
                _System._diode_companion(element, vd)[0],
            )
        elif isinstance(element, Inductor):
            k = system.branch_index[element.name]
            triplets[0].append(k)
            triplets[1].append(k)
            triplets[2].append(-1j * omega * element.inductance)
        elif isinstance(element, VoltageSource):
            # DC sources are AC shorts; current sources are AC-open.
            rhs[system.branch_index[element.name]] = ac_sources.get(
                element.name, 0.0
            )

    try:
        solution = _backends.factorize_triplets(
            system.size, triplets, _backends.resolve_backend(system.size),
            dtype=complex,
        ).solve(rhs)
    except _backends.FactorizationError:
        raise CircuitError("singular AC system matrix") from None

    return ACSolution(
        frequency=frequency,
        node_voltages={
            node: complex(solution[i]) for node, i in system.node_index.items()
        },
        branch_currents={
            name: complex(solution[k])
            for name, k in system.branch_index.items()
        },
    )


def frequency_response(
    netlist: Netlist,
    node: str,
    frequencies: List[float],
    ac_sources: Optional[Dict[str, float]] = None,
) -> List[complex]:
    """The transfer ``V(node)`` over a frequency list (one shared DC
    solve for the diodes' operating point)."""
    operating_point = None
    if any(isinstance(e, Diode) for e in netlist.elements()):
        operating_point = dc_operating_point(netlist)
    return [
        ac_analysis(netlist, f, ac_sources, operating_point).voltage(node)
        for f in frequencies
    ]
