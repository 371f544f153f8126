"""Transient analysis — backward Euler on the MNA system.

Capacitors and inductors are replaced each step by their backward-Euler
companion models:

- capacitor: conductance ``C/dt`` in parallel with current source
  ``(C/dt) * v_prev``;
- inductor: handled as a branch with constraint
  ``v = R_s*i + (L/dt)*(i - i_prev)``.

Backward Euler is A-stable, which keeps fault-injected circuits (sudden
opens/shorts) well behaved; accuracy is adequate for the sensor-comparison
use the FMEA engine makes of it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional

import numpy as np

from repro.circuit import backends as _backends
from repro.circuit.mna import (
    _MAX_NEWTON_ITERATIONS,
    _System,
    _diode_step,
    _is_ground,
)
from repro.circuit.netlist import (
    Capacitor,
    CircuitError,
    Inductor,
    Netlist,
    VoltageSource,
)

#: Factorizations kept per transient run.  The step matrix depends only on
#: the diode bias vector (the C/L companion conductances are fixed for a
#: fixed ``dt``), so a settled circuit re-solves the same matrix every
#: step — a deep cache is pointless, a few slots catch the steady state
#: plus the last transients.
_TRANSIENT_CACHE_SLOTS = 8


@dataclass
class TransientResult:
    """Time series of node voltages and tracked branch currents."""

    times: List[float]
    node_voltages: Dict[str, List[float]]
    branch_currents: Dict[str, List[float]]

    def voltage(self, node: str) -> List[float]:
        if _is_ground(node):
            return [0.0] * len(self.times)
        try:
            return self.node_voltages[node]
        except KeyError:
            raise CircuitError(f"no node named {node!r}") from None

    def current(self, element_name: str) -> List[float]:
        try:
            return self.branch_currents[element_name]
        except KeyError:
            raise CircuitError(
                f"element {element_name!r} has no tracked branch current"
            ) from None

    def final_voltage(self, node: str) -> float:
        return self.voltage(node)[-1]

    def final_current(self, element_name: str) -> float:
        return self.current(element_name)[-1]


def transient(
    netlist: Netlist,
    t_stop: float,
    dt: float,
    sources: Optional[Dict[str, Callable[[float], float]]] = None,
    gmin: float = 1e-12,
) -> TransientResult:
    """Integrate the netlist from 0 to ``t_stop`` with fixed step ``dt``.

    ``sources`` optionally maps voltage-source names to ``v(t)`` waveforms;
    unlisted sources keep their DC value.  Initial conditions are zero state
    (capacitors discharged, inductors currentless).

    The system's size picks the linear-solver backend
    (:func:`~repro.circuit.backends.resolve_backend`).  The step matrix
    depends only on the diode bias vector — the C/L companion conductances
    are fixed for a fixed ``dt`` — so factorizations are cached per bias
    vector and a circuit without diodes (or one that has settled)
    factorizes **once** for the whole run instead of re-solving an
    identical matrix from scratch every step.
    """
    if dt <= 0 or t_stop <= 0:
        raise CircuitError("t_stop and dt must be positive")
    if len(netlist) == 0:
        raise CircuitError("cannot simulate an empty netlist")
    sources = sources or {}
    system = _System(netlist, gmin)
    capacitors = [e for e in netlist.elements() if isinstance(e, Capacitor)]
    inductors = [e for e in netlist.elements() if isinstance(e, Inductor)]
    resolved = _backends.resolve_backend(system.size)

    cap_voltage = {c.name: 0.0 for c in capacitors}
    ind_current = {l.name: 0.0 for l in inductors}

    times: List[float] = []
    node_series: Dict[str, List[float]] = {n: [] for n in system.node_index}
    branch_series: Dict[str, List[float]] = {
        e.name: [] for e in system.branch_elements
    }

    # The step-constant part of the matrix: linear stamps plus the C/L
    # companion conductances (fixed for a fixed dt).  Only the RHS (source
    # waveforms, companion history currents) and the diode linearisation
    # change from step to step.
    companions: _backends.Triplets = ([], [], [])
    for cap in capacitors:
        system.stamp(companions, cap.node_pos, cap.node_neg, cap.capacitance / dt)
    for ind in inductors:
        k = system.branch_index[ind.name]
        # The constant part holds v - R_s*i = 0; extend it to
        # v - R_s*i - (L/dt)*i = -(L/dt)*i_prev
        companions[0].append(k)
        companions[1].append(k)
        companions[2].append(-ind.inductance / dt)
    static_matrix = _backends.add_triplets(
        system.constant_matrix(resolved), companions
    )

    cache = _backends.FactorizationCache(maxsize=_TRANSIENT_CACHE_SLOTS)
    base_rhs = system.constant_rhs()

    steps = int(round(t_stop / dt))
    solution = np.zeros(system.size)
    for step in range(1, steps + 1):
        t = step * dt
        rhs = base_rhs.copy()
        # Override: time-varying sources.
        for element in system.branch_elements:
            if isinstance(element, VoltageSource) and element.name in sources:
                k = system.branch_index[element.name]
                rhs[k] = sources[element.name](t)
        # Companion history currents of C (voltage memory) and L (current
        # memory) — the step-varying half of the companion models.
        for cap in capacitors:
            g = cap.capacitance / dt
            system._stamp_current(
                rhs, cap.node_neg, cap.node_pos, g * cap_voltage[cap.name]
            )
        for ind in inductors:
            k = system.branch_index[ind.name]
            rhs[k] -= (ind.inductance / dt) * ind_current[ind.name]

        # Newton loop for diodes within the step (one pass without any).
        biases = [
            system.diode_voltage(solution, d) or 0.6 for d in system.diodes
        ]
        for _ in range(_MAX_NEWTON_ITERATIONS):
            step_rhs = rhs.copy()
            diode_stamps = system.stamp_diodes(biases, step_rhs)
            try:
                solution = cache.solve(
                    tuple(biases),
                    lambda: _backends.add_triplets(static_matrix, diode_stamps),
                    step_rhs,
                    resolved,
                )
            except _backends.FactorizationError:
                raise CircuitError(
                    f"singular transient matrix at t={t:.3e}"
                ) from None
            if _diode_step(biases, [
                system.diode_voltage(solution, d) for d in system.diodes
            ]):
                break
        else:
            raise CircuitError(
                f"transient Newton did not converge at t={t:.3e}"
            )

        # Update state.
        def node_voltage(node: str) -> float:
            idx = system._idx(node)
            return 0.0 if idx is None else float(solution[idx])

        for cap in capacitors:
            cap_voltage[cap.name] = node_voltage(cap.node_pos) - node_voltage(
                cap.node_neg
            )
        for ind in inductors:
            ind_current[ind.name] = float(
                solution[system.branch_index[ind.name]]
            )

        times.append(t)
        for node, idx in system.node_index.items():
            node_series[node].append(float(solution[idx]))
        for element in system.branch_elements:
            branch_series[element.name].append(
                float(solution[system.branch_index[element.name]])
            )

    return TransientResult(times, node_series, branch_series)
