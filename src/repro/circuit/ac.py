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
from repro.circuit.mna import DCSolution, _is_ground, dc_operating_point
from repro.circuit.netlist import (
    Ammeter,
    Capacitor,
    CircuitError,
    CurrentSource,
    Diode,
    Inductor,
    Netlist,
    Resistor,
    Switch,
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
    _cache: Optional[_backends.FactorizationCache] = None,
) -> ACSolution:
    """Small-signal solution at ``frequency`` (Hz).

    ``ac_sources`` maps voltage-source names to AC magnitudes (default: the
    first voltage source at 1 V, everything else 0 — i.e. a standard
    single-input transfer-function setup).

    The system's size picks the linear-solver backend
    (:func:`~repro.circuit.backends.resolve_backend`).  ``_cache`` is a
    :class:`~repro.circuit.backends.FactorizationCache` keyed by
    frequency — :func:`frequency_response` shares one across a
    sweep so revisited frequencies skip the factorization entirely.
    """
    if frequency < 0:
        raise CircuitError("frequency must be >= 0")
    if len(netlist) == 0:
        raise CircuitError("cannot analyse an empty netlist")
    omega = 2.0 * math.pi * frequency

    diodes = [e for e in netlist.elements() if isinstance(e, Diode)]
    if diodes and operating_point is None:
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

    node_index: Dict[str, int] = {}
    for node in netlist.nodes():
        if not _is_ground(node) and node not in node_index:
            node_index[node] = len(node_index)
    branch_elements = [
        e
        for e in netlist.elements()
        if isinstance(e, (VoltageSource, Ammeter, Inductor))
    ]
    branch_index = {
        e.name: len(node_index) + i for i, e in enumerate(branch_elements)
    }
    size = len(node_index) + len(branch_elements)
    if size == 0:
        raise CircuitError("netlist has no unknowns")

    matrix = np.zeros((size, size), dtype=complex)
    rhs = np.zeros(size, dtype=complex)

    def idx(node: str) -> Optional[int]:
        return None if _is_ground(node) else node_index[node]

    def stamp_admittance(n1: str, n2: str, admittance: complex) -> None:
        i, j = idx(n1), idx(n2)
        if i is not None:
            matrix[i, i] += admittance
        if j is not None:
            matrix[j, j] += admittance
        if i is not None and j is not None:
            matrix[i, j] -= admittance
            matrix[j, i] -= admittance

    for node_idx in node_index.values():
        matrix[node_idx, node_idx] += gmin

    for element in netlist.elements():
        if isinstance(element, Resistor):
            stamp_admittance(
                element.node_pos, element.node_neg, 1.0 / element.resistance
            )
        elif isinstance(element, Switch):
            resistance = (
                element.on_resistance if element.closed else element.off_resistance
            )
            stamp_admittance(element.node_pos, element.node_neg, 1.0 / resistance)
        elif isinstance(element, Capacitor):
            stamp_admittance(
                element.node_pos, element.node_neg, 1j * omega * element.capacitance
            )
        elif isinstance(element, Diode):
            vd = operating_point.voltage_across(  # type: ignore[union-attr]
                element.node_pos, element.node_neg
            )
            n_vt = element.ideality * element.thermal_voltage
            conductance = (
                element.saturation_current * math.exp(min(vd, 2.0) / n_vt) / n_vt
            )
            stamp_admittance(
                element.node_pos, element.node_neg, max(conductance, 1e-12)
            )
        elif isinstance(element, CurrentSource):
            continue  # independent current sources are AC-open here
        elif isinstance(element, (VoltageSource, Ammeter, Inductor)):
            k = branch_index[element.name]
            i, j = idx(element.node_pos), idx(element.node_neg)
            if i is not None:
                matrix[i, k] += 1.0
                matrix[k, i] += 1.0
            if j is not None:
                matrix[j, k] -= 1.0
                matrix[k, j] -= 1.0
            if isinstance(element, VoltageSource):
                rhs[k] = ac_sources.get(element.name, 0.0)
            elif isinstance(element, Inductor):
                matrix[k, k] -= element.series_resistance + 1j * omega * (
                    element.inductance
                )
        else:  # pragma: no cover - guarded by Netlist.add
            raise CircuitError(
                f"unsupported element type {type(element).__name__}"
            )

    resolved = _backends.resolve_backend(size)
    try:
        if _cache is not None:
            solution = _cache.solve(frequency, lambda: matrix, rhs, resolved)
        else:
            solution = _backends.factorize(matrix, resolved).solve(rhs)
    except _backends.FactorizationError:
        raise CircuitError("singular AC system matrix") from None

    return ACSolution(
        frequency=frequency,
        node_voltages={
            node: complex(solution[i]) for node, i in node_index.items()
        },
        branch_currents={
            e.name: complex(solution[branch_index[e.name]])
            for e in branch_elements
        },
    )


def frequency_response(
    netlist: Netlist,
    node: str,
    frequencies: List[float],
    ac_sources: Optional[Dict[str, float]] = None,
) -> List[complex]:
    """The transfer ``V(node)`` over a frequency list (shared DC solve +
    shared factorization cache: repeated frequencies solve without
    re-factorizing)."""
    operating_point = None
    if any(isinstance(e, Diode) for e in netlist.elements()):
        operating_point = dc_operating_point(netlist)
    cache = _backends.FactorizationCache(maxsize=8)
    return [
        ac_analysis(
            netlist, f, ac_sources, operating_point, _cache=cache
        ).voltage(node)
        for f in frequencies
    ]
