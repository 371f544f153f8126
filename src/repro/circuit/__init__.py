"""An analogue circuit simulator — the Simscape substitute.

The paper's injection-based FMEA needs exactly one capability from
Matlab/Simulink: build an electrical network, call ``simulate()`` and read
sensor values before and after a fault is injected.  This package provides
that capability with a Modified Nodal Analysis (MNA) engine on numpy:

- :class:`Netlist` — named nodes and two-terminal elements;
- :func:`dc_operating_point` — DC solution (Newton iteration for diodes,
  inductors as 0 V branches, capacitors open, gmin to keep open-circuit
  injections solvable);
- :func:`transient` — backward-Euler transient analysis;
- sensors: ammeters (0 V branches) and voltmeters.
"""

from repro.circuit.netlist import (
    Ammeter,
    Capacitor,
    CircuitError,
    CurrentSource,
    Diode,
    Element,
    Inductor,
    Netlist,
    Resistor,
    Switch,
    VoltageSource,
    GROUND,
)
from repro.circuit.backends import (
    BACKENDS,
    SPARSE_AUTO_MIN_SIZE,
    FactorizationCache,
    FactorizationError,
    resolve_backend,
)
from repro.circuit.mna import (
    CompiledSystem,
    DCSolution,
    PrimedSystem,
    SolveStats,
    dc_operating_point,
    system_size,
)
from repro.circuit.transient import TransientResult, transient
from repro.circuit.ac import ACSolution, ac_analysis, frequency_response

__all__ = [
    "Netlist",
    "Element",
    "Resistor",
    "Capacitor",
    "Inductor",
    "Diode",
    "VoltageSource",
    "CurrentSource",
    "Switch",
    "Ammeter",
    "CircuitError",
    "GROUND",
    "DCSolution",
    "dc_operating_point",
    "system_size",
    "CompiledSystem",
    "PrimedSystem",
    "SolveStats",
    "BACKENDS",
    "SPARSE_AUTO_MIN_SIZE",
    "FactorizationCache",
    "FactorizationError",
    "resolve_backend",
    "TransientResult",
    "transient",
    "ACSolution",
    "ac_analysis",
    "frequency_response",
]
