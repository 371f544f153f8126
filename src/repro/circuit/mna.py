"""Modified Nodal Analysis — DC operating point.

Unknowns are the non-ground node voltages plus one branch current per
voltage-like element (voltage sources, ammeters and — at DC — inductors,
which behave as 0 V branches in series with their parasitic resistance).
Nonlinear diodes are solved by damped Newton iteration with pn-junction
voltage limiting.  A small ``gmin`` conductance from every node to ground
keeps matrices regular when fault injection leaves nodes floating (an *open*
failure must still produce a solution: the sensors simply read ~0).

Performance layers on top of the plain solver:

- :class:`_System` caches the *constant* part of the assembly (all linear
  stamps plus the independent-source RHS), so Newton iteration only
  re-stamps the diode companion models on a copy of the cached matrix;
- :class:`DCSolution` keeps the solution vector and the system's index
  maps: a reading indexes the vector, and the per-node and per-branch
  dicts are built only when read;
- :class:`PrimedSystem` is the per-netlist part of the fault-injection
  solver, immutable once primed: index maps, the constant matrix and its
  factorization, the baseline operating point and its diode biases,
  ``A0⁻¹b0`` and the diode directions' ``A0⁻¹u`` columns with their
  Woodbury ``S`` block.  Runs over one netlist share it — the analysis
  service keeps one per cached model;
- :class:`CompiledSystem` is the per-run solver over a primed system: it
  solves single-element replacements (the fault injection workload)
  without rebuilding the netlist, and keeps its own :class:`SolveStats`
  and the update basis of its latest fault.  Every fault is a low-rank
  Sherman–Morrison–Woodbury update of the primed factorization; the
  system's size picks only that factorization's backend (dense LAPACK or
  SuperLU, :func:`repro.circuit.backends.resolve_backend`).  A fault falls
  back to exact full re-assembly whenever it changes the system topology
  (new or removed branch unknowns, orphaned nodes) or the solve turns out
  numerically unstable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Tuple, Union

import numpy as np
from scipy.linalg import get_lapack_funcs

from repro import obs
from repro.circuit import backends as _backends
from repro.circuit.netlist import (
    Ammeter,
    Capacitor,
    CircuitError,
    CurrentSource,
    Diode,
    Element,
    GROUND,
    Inductor,
    Netlist,
    Resistor,
    Switch,
    VoltageSource,
)

#: Ground aliases accepted in netlists.
GROUND_NAMES = (GROUND, "GND", "gnd", "ground")

_MAX_NEWTON_ITERATIONS = 200
_NEWTON_TOLERANCE = 1e-9
_DEFAULT_GMIN = 1e-12
_MAX_DIODE_STEP = 0.5  # volts per Newton step, for convergence

#: How many times a singular solve may retry with a stronger gmin.
_MAX_GMIN_RETRIES = 2

#: Relative residual above which a Woodbury-updated solution is rejected
#: (the caller then falls back to full assembly — exactness over speed).
_SMW_RESIDUAL_TOL = 1e-8

#: Iterative-refinement passes after a Woodbury solve.  Large companion
#: conductances mid-Newton cancel digits in the low-rank correction; each
#: pass costs one triangular solve and recovers them.
_MAX_SMW_REFINEMENTS = 3

#: The dual of gmin: an *open* branch element (inductor) keeps its row but
#: its series resistance grows to this, forcing the branch current to the
#: same ~1e-12-conductance floor gmin imposes on floating nodes.
_OPEN_RESISTANCE = 1e12


def _is_ground(node: str) -> bool:
    return node in GROUND_NAMES


class DCSolution:
    """DC operating point: node voltages and branch currents.

    A solution is the solution vector read through the system's index
    maps: :meth:`voltage`, :meth:`current` and :meth:`voltage_across`
    index the vector directly, and the :attr:`node_voltages` and
    :attr:`branch_currents` dicts are built only when read.  A fault
    campaign reads a handful of sensors off each solution of a system with
    thousands of unknowns.  The solvers build one with :meth:`from_vector`;
    the constructor takes the two dicts.
    """

    __slots__ = (
        "iterations", "_vector", "_node_index", "_branch_index",
        "_node_voltages", "_branch_currents",
    )

    def __init__(
        self,
        node_voltages: Dict[str, float],
        branch_currents: Dict[str, float],
        iterations: int = 1,
    ) -> None:
        offset = len(node_voltages)
        self._bind(
            np.array(
                [*node_voltages.values(), *branch_currents.values()],
                dtype=float,
            ),
            {node: i for i, node in enumerate(node_voltages)},
            {name: offset + i for i, name in enumerate(branch_currents)},
            iterations,
        )

    @classmethod
    def from_vector(
        cls,
        vector: np.ndarray,
        node_index: Dict[str, int],
        branch_index: Dict[str, int],
        iterations: int,
    ) -> "DCSolution":
        """A solution that reads ``vector`` through the system's index
        maps (callers must not mutate any of them afterwards)."""
        solution = cls.__new__(cls)
        solution._bind(vector, node_index, branch_index, iterations)
        return solution

    def _bind(
        self,
        vector: np.ndarray,
        node_index: Dict[str, int],
        branch_index: Dict[str, int],
        iterations: int,
    ) -> None:
        self.iterations = iterations
        self._vector = vector
        self._node_index = node_index
        self._branch_index = branch_index
        self._node_voltages: Optional[Dict[str, float]] = None
        self._branch_currents: Optional[Dict[str, float]] = None

    @property
    def node_voltages(self) -> Dict[str, float]:
        if self._node_voltages is None:
            vector = self._vector
            self._node_voltages = {
                node: float(vector[idx])
                for node, idx in self._node_index.items()
            }
        return self._node_voltages

    @property
    def branch_currents(self) -> Dict[str, float]:
        if self._branch_currents is None:
            vector = self._vector
            self._branch_currents = {
                name: float(vector[idx])
                for name, idx in self._branch_index.items()
            }
        return self._branch_currents

    def voltage(self, node: str) -> float:
        if _is_ground(node):
            return 0.0
        idx = self._node_index.get(node)
        if idx is None:
            raise CircuitError(f"no node named {node!r}")
        return float(self._vector[idx])

    def voltage_across(self, node_pos: str, node_neg: str) -> float:
        return self.voltage(node_pos) - self.voltage(node_neg)

    def current(self, element_name: str) -> float:
        """Branch current of a voltage source, ammeter or inductor."""
        idx = self._branch_index.get(element_name)
        if idx is None:
            raise CircuitError(
                f"element {element_name!r} has no tracked branch current "
                f"(tracked: {sorted(self._branch_index)})"
            )
        return float(self._vector[idx])

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, DCSolution):
            return NotImplemented
        return (
            self.node_voltages == other.node_voltages
            and self.branch_currents == other.branch_currents
            and self.iterations == other.iterations
        )

    __hash__ = None  # type: ignore[assignment]

    def __repr__(self) -> str:
        return (
            f"DCSolution(node_voltages={self.node_voltages!r}, "
            f"branch_currents={self.branch_currents!r}, "
            f"iterations={self.iterations!r})"
        )


class _System:
    """Index assignment and matrix assembly for one netlist.

    Every analysis assembles through here.  :meth:`stamp` turns a
    conductance (or, for AC, an admittance) between two nodes into
    ``(row, col, value)`` triplets.  The linear stamps (everything except
    the diode companion models) are assembled once and cached as the
    backend's matrix, dense or CSC (:meth:`constant_matrix`), next to the
    constant RHS; an analysis adds its per-step triplets to that with
    :func:`~repro.circuit.backends.add_triplets`.  The triplet stream the
    constant is built from is not kept.
    """

    def __init__(self, netlist: Netlist, gmin: float) -> None:
        self.netlist = netlist
        self.gmin = gmin
        self.node_index: Dict[str, int] = {}
        for node in netlist.nodes():
            if not _is_ground(node) and node not in self.node_index:
                self.node_index[node] = len(self.node_index)
        self.branch_elements: List[Element] = [
            e
            for e in netlist.elements()
            if isinstance(e, (VoltageSource, Ammeter, Inductor))
        ]
        self.branch_index: Dict[str, int] = {
            e.name: len(self.node_index) + i
            for i, e in enumerate(self.branch_elements)
        }
        self.size = len(self.node_index) + len(self.branch_elements)
        self.diodes: List[Diode] = [
            e for e in netlist.elements() if isinstance(e, Diode)
        ]
        self._rhs: Optional[np.ndarray] = None
        #: The constant matrix per backend that asked for it.
        self._constant: Dict[str, object] = {}

    def _idx(self, node: str) -> Optional[int]:
        if _is_ground(node):
            return None
        return self.node_index[node]

    def stamp(
        self, triplets: _backends.Triplets, n1: str, n2: str, g: complex
    ) -> None:
        """Append the stamps of conductance ``g`` between ``n1`` and ``n2``
        to ``triplets``: ``+g`` on both diagonals, ``-g`` off them."""
        rows, cols, vals = triplets
        i, j = self._idx(n1), self._idx(n2)
        if i is not None:
            rows.append(i)
            cols.append(i)
            vals.append(g)
        if j is not None:
            rows.append(j)
            cols.append(j)
            vals.append(g)
        if i is not None and j is not None:
            rows.extend((i, j))
            cols.extend((j, i))
            vals.extend((-g, -g))

    def _stamp_current(
        self, rhs: np.ndarray, n_from: str, n_to: str, current: float
    ) -> None:
        """Current ``current`` flows out of ``n_from`` into ``n_to``."""
        i, j = self._idx(n_from), self._idx(n_to)
        if i is not None:
            rhs[i] -= current
        if j is not None:
            rhs[j] += current

    def _constant_parts(self) -> Tuple[_backends.Triplets, np.ndarray]:
        """Triplet stamps and RHS of the linear (non-diode) system.

        The stamps are emitted in exactly the historical sequential
        assembly order, so the dense materialisation (unbuffered
        ``np.add.at``) reproduces the old in-place assembly bit for bit,
        while the sparse backend builds its CSC matrix from the very same
        stream — both backends factorize the numerically identical system.

        Only the RHS is cached: the Python triplet lists are garbage once
        the backend's matrix exists (0.6 MB on a 2.5k-unknown grid).
        """
        triplets: _backends.Triplets = ([], [], [])
        rows, cols, vals = triplets
        rhs = np.zeros(self.size)

        def stamp(row: int, col: int, value: float) -> None:
            rows.append(row)
            cols.append(col)
            vals.append(value)

        for node_idx in self.node_index.values():
            stamp(node_idx, node_idx, self.gmin)

        for element in self.netlist.elements():
            if isinstance(element, Resistor):
                self.stamp(
                    triplets, element.node_pos, element.node_neg,
                    1.0 / element.resistance,
                )
            elif isinstance(element, Switch):
                resistance = (
                    element.on_resistance if element.closed else element.off_resistance
                )
                self.stamp(
                    triplets, element.node_pos, element.node_neg,
                    1.0 / resistance,
                )
            elif isinstance(element, CurrentSource):
                self._stamp_current(
                    rhs, element.node_pos, element.node_neg, element.current
                )
            elif isinstance(element, Capacitor):
                continue  # open at DC
            elif isinstance(element, Diode):
                continue  # nonlinear: stamped per Newton iteration
            elif isinstance(element, (VoltageSource, Ammeter, Inductor)):
                k = self.branch_index[element.name]
                i, j = self._idx(element.node_pos), self._idx(element.node_neg)
                if i is not None:
                    stamp(i, k, 1.0)
                    stamp(k, i, 1.0)
                if j is not None:
                    stamp(j, k, -1.0)
                    stamp(k, j, -1.0)
                if isinstance(element, VoltageSource):
                    rhs[k] += element.voltage
                elif isinstance(element, Inductor):
                    # DC: v = i * R_series (0 V branch when R_series == 0)
                    stamp(k, k, -element.series_resistance)
            else:  # pragma: no cover - guarded by Netlist.add
                raise CircuitError(
                    f"unsupported element type {type(element).__name__}"
                )
        if self._rhs is None:
            self._rhs = rhs
        return triplets, self._rhs

    def constant_rhs(self) -> np.ndarray:
        """The cached constant RHS (callers must not mutate it)."""
        if self._rhs is None:
            self._constant_parts()
        return self._rhs

    def constant_matrix(self, backend: str):
        """The linear stamps — everything except the diodes — as
        ``backend``'s matrix: CSC on ``sparse``, dense otherwise.

        Built once per system and backend and cached; callers must not
        mutate it (:func:`~repro.circuit.backends.add_triplets` copies).
        """
        matrix = self._constant.get(backend)
        if matrix is None:
            triplets, _ = self._constant_parts()
            matrix = _backends.triplets_to_matrix(self.size, triplets, backend)
            self._constant[backend] = matrix
        return matrix

    def stamp_diodes(
        self, biases: List[float], rhs: np.ndarray
    ) -> _backends.Triplets:
        """The diode companion models linearised at ``biases`` (one per
        diode, in order): their conductances as triplets, their equivalent
        currents added into ``rhs`` in place."""
        triplets: _backends.Triplets = ([], [], [])
        for diode, vd in zip(self.diodes, biases):
            g, ieq = self._diode_companion(diode, vd)
            self.stamp(triplets, diode.node_pos, diode.node_neg, g)
            self._stamp_current(rhs, diode.node_pos, diode.node_neg, ieq)
        return triplets

    @staticmethod
    def _diode_companion(diode: Diode, vd: float) -> Tuple[float, float]:
        """Linearised (conductance, equivalent current) at bias ``vd``."""
        n_vt = diode.ideality * diode.thermal_voltage
        vd = min(vd, 2.0)  # clamp: exp() overflow guard
        exp_term = math.exp(vd / n_vt)
        current = diode.saturation_current * (exp_term - 1.0)
        conductance = diode.saturation_current * exp_term / n_vt
        conductance = max(conductance, 1e-12)
        ieq = current - conductance * vd
        return conductance, ieq

    def diode_voltage(
        self, solution: np.ndarray, diode: Diode
    ) -> float:
        def node_voltage(node: str) -> float:
            idx = self._idx(node)
            return 0.0 if idx is None else float(solution[idx])

        return node_voltage(diode.node_pos) - node_voltage(diode.node_neg)

    def to_solution(self, vector: np.ndarray, iterations: int) -> DCSolution:
        return DCSolution.from_vector(
            vector, self.node_index, self.branch_index, iterations
        )


def system_size(netlist: Netlist) -> int:
    """Number of MNA unknowns ``netlist`` solves for (0 for an empty one).

    Cheap (index assignment only, no assembly), but it builds the index
    maps just to count them: a caller holding a :class:`PrimedSystem`
    reads its ``size`` instead.  Naive and transient campaigns, which
    prime nothing, use this to name their solve rule.
    """
    if len(netlist) == 0:
        return 0
    return _System(netlist, _DEFAULT_GMIN).size


def _diode_step(biases: List[float], voltages: List[float]) -> bool:
    """One Newton move of the diode biases, in place: each bias moves to
    its new voltage, by at most ``_MAX_DIODE_STEP``.  True when no diode
    moved by more than ``_NEWTON_TOLERANCE`` (converged)."""
    converged = True
    for k, new_vd in enumerate(voltages):
        step = new_vd - biases[k]
        if abs(step) > _MAX_DIODE_STEP:
            new_vd = biases[k] + math.copysign(_MAX_DIODE_STEP, step)
            converged = False
        elif abs(step) > _NEWTON_TOLERANCE:
            converged = False
        biases[k] = new_vd
    return converged


def dc_operating_point(
    netlist: Netlist,
    gmin: float = _DEFAULT_GMIN,
    _retries_left: int = _MAX_GMIN_RETRIES,
) -> DCSolution:
    """Solve the DC operating point of ``netlist``.

    The system's size picks the linear-solver engine (see
    :mod:`repro.circuit.backends`): dense LAPACK below
    :data:`~repro.circuit.backends.SPARSE_AUTO_MIN_SIZE` unknowns, sparse
    SuperLU at or above it.  Each Newton iteration adds the diode
    companions to the cached constant matrix and factorizes and solves
    that once.

    Raises :class:`CircuitError` if Newton iteration fails to converge or the
    system matrix is singular even after retrying with a stronger ``gmin``
    (each retry multiplies the caller's ``gmin`` by 1e3, floored at 1e-9, so
    a large caller-supplied value is never silently weakened; the retry
    depth is capped).
    """
    if len(netlist) == 0:
        raise CircuitError("cannot solve an empty netlist")
    system = _System(netlist, gmin)
    if system.size == 0:
        raise CircuitError("netlist has no unknowns (everything grounded?)")
    resolved = _backends.resolve_backend(system.size)
    constant = system.constant_matrix(resolved)
    constant_rhs = system.constant_rhs()

    biases = [0.6] * len(system.diodes)
    solution = np.zeros(system.size)
    iterations = 0
    with obs.span(
        "mna.newton",
        netlist=netlist.name,
        size=system.size,
        **{"solver.backend": resolved},
    ) as sp:
        for iterations in range(1, _MAX_NEWTON_ITERATIONS + 1):
            rhs = constant_rhs.copy()
            matrix = _backends.add_triplets(
                constant, system.stamp_diodes(biases, rhs)
            )
            try:
                new_solution = _backends.factorize(matrix, resolved).solve(rhs)
            except _backends.FactorizationError:
                # Retry (a bounded number of times) with a stronger gmin.
                stronger = max(gmin * 1e3, 1e-9)
                if _retries_left > 0 and stronger > gmin:
                    return dc_operating_point(
                        netlist, gmin=stronger,
                        _retries_left=_retries_left - 1,
                    )
                raise CircuitError(
                    f"singular MNA matrix for netlist {netlist.name!r}"
                ) from None
            converged = _diode_step(biases, [
                system.diode_voltage(new_solution, d) for d in system.diodes
            ])
            solution = new_solution
            if converged:
                break
        else:
            raise CircuitError(
                f"Newton iteration did not converge for netlist {netlist.name!r}"
            )
        sp.set(iterations=iterations)

    return system.to_solution(solution, iterations)


# ---------------------------------------------------------------------------
# Compiled systems: low-rank fault solves
# ---------------------------------------------------------------------------


@dataclass
class SolveStats:
    """Counters a :class:`CompiledSystem` keeps about its solve mix."""

    solves: int = 0  # DC solutions produced
    newton_iterations: int = 0
    factorization_reuses: int = 0  # linear solves against the cached factors
    smw_solves: int = 0  # solutions via Sherman–Morrison–Woodbury updates
    full_rebuilds: int = 0  # fault solves that fell back to full assembly
    baseline_reuses: int = 0  # faults electrically identical to the baseline
    batched_columns: int = 0  # RHS columns solved through multi-RHS blocks

    def merge(self, other: "SolveStats") -> None:
        self.solves += other.solves
        self.newton_iterations += other.newton_iterations
        self.factorization_reuses += other.factorization_reuses
        self.smw_solves += other.smw_solves
        self.full_rebuilds += other.full_rebuilds
        self.baseline_reuses += other.baseline_reuses
        self.batched_columns += other.batched_columns

    def to_dict(self) -> Dict[str, int]:
        return {
            "solves": self.solves,
            "newton_iterations": self.newton_iterations,
            "factorization_reuses": self.factorization_reuses,
            "smw_solves": self.smw_solves,
            "full_rebuilds": self.full_rebuilds,
            "baseline_reuses": self.baseline_reuses,
            "batched_columns": self.batched_columns,
        }


class _SmwFallback(Exception):
    """Internal: the low-rank path declined; use full assembly instead."""


#: Update gains below this magnitude drop out of a Woodbury solve.
_MIN_GAIN = 1e-18


(_gesv,) = get_lapack_funcs(("gesv",), (np.zeros((1, 1)),))


def _capacitance_solve(matrix: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Solve a small Woodbury capacitance system: LAPACK ``gesv``, an LU
    with partial pivoting.  Pivoting matters: the diagonal mixes ``1/g``
    terms spanning many orders of magnitude, so closed-form (Cramer)
    solutions lose enough digits to trip the residual check.  ``gesv`` is
    called directly, not through numpy's ``linalg`` wrapper, which costs
    more than the solve at these rank counts (K = 1 to 9); Newton calls
    this once per iteration.  ``matrix`` is overwritten.  Raises
    :class:`_SmwFallback` when the matrix is singular."""
    _, _, solution, info = _gesv(matrix, rhs, overwrite_a=True)
    if info != 0:
        raise _SmwFallback
    return solution


class _UpdateBasis:
    """The update directions ``U`` of a fault solve, with their
    solved columns ``W = A0⁻¹U`` (n × K) and ``S = UᵀW`` (K × K).

    A direction ``u = e_i - e_j`` is an index pair (-1: ground).  Built
    once per fault, a basis makes each Woodbury solve K × K work on
    ``Uᵀy`` plus, for a full-length solution, one ``W @ w``.
    """

    __slots__ = (
        "pairs", "columns", "gram", "_pos", "_pos_at", "_neg", "_neg_at",
    )

    def __init__(
        self, pairs: List[Tuple[int, int]], columns: np.ndarray
    ) -> None:
        self.pairs = pairs
        self.columns = columns
        pos = np.array([p[0] for p in pairs], dtype=np.intp)
        neg = np.array([p[1] for p in pairs], dtype=np.intp)
        self._pos_at = np.flatnonzero(pos >= 0)
        self._pos = pos[self._pos_at]
        self._neg_at = np.flatnonzero(neg >= 0)
        self._neg = neg[self._neg_at]
        self.gram = self.project(columns)

    def project(self, block: np.ndarray) -> np.ndarray:
        """``Uᵀ block`` for a vector or an n × m block."""
        out = np.zeros((len(self.pairs),) + block.shape[1:])
        out[self._pos_at] = block[self._pos]
        out[self._neg_at] -= block[self._neg]
        return out

    def spread(self, values: np.ndarray, target: np.ndarray) -> None:
        """``target -= U values``, in place."""
        np.subtract.at(target, self._pos, values[self._pos_at])
        np.add.at(target, self._neg, values[self._neg_at])

    def extend(
        self, pairs: List[Tuple[int, int]], columns: np.ndarray
    ) -> "_UpdateBasis":
        """This basis followed by ``pairs``, whose solved columns are
        ``columns`` (``S`` is a gather of 2K rows of ``W``, whatever the
        system size)."""
        return _UpdateBasis(
            self.pairs + pairs, np.hstack([self.columns, columns])
        )

    def weights(self, gains: List[float], projected: np.ndarray) -> np.ndarray:
        """Woodbury weights ``w`` with ``x = y - W w`` solving
        ``(A0 + U diag(gains) Uᵀ) x = A0 y``, given ``projected = Uᵀy``.
        Directions whose gain is 0 drop out (their weight is 0)."""
        if 0.0 not in gains:
            capacitance = self.gram.copy()
            capacitance.flat[:: len(gains) + 1] += [1.0 / g for g in gains]
            return _capacitance_solve(capacitance, projected)
        kept = [a for a, g in enumerate(gains) if g]
        weights = np.zeros(len(self.pairs))
        if kept:
            capacitance = self.gram[np.ix_(kept, kept)]
            capacitance.flat[:: len(kept) + 1] += [
                1.0 / gains[a] for a in kept
            ]
            weights[kept] = _capacitance_solve(capacitance, projected[kept])
        return weights


@dataclass(frozen=True)
class _UpdatePlan:
    """A fault expressed against the baseline system.

    ``conductance`` carries ``(node_pos, node_neg, delta_g)`` rank-one
    terms; ``rhs_current`` carries ``(node_from, node_to, delta_current)``
    independent-source changes; ``rhs_branch`` carries ``(branch_row,
    delta_voltage)`` source-value changes; ``branch_diag`` carries
    ``(branch_row, delta)`` diagonal updates (an inductor's series
    resistance changing).  ``diodes`` is the effective nonlinear set for
    the faulty circuit and ``removed`` names the element an *open* failure
    deleted (if any).
    """

    conductance: Tuple[Tuple[str, str, float], ...] = ()
    rhs_current: Tuple[Tuple[str, str, float], ...] = ()
    rhs_branch: Tuple[Tuple[int, float], ...] = ()
    branch_diag: Tuple[Tuple[int, float], ...] = ()
    diodes: Tuple[Diode, ...] = ()
    removed: Optional[str] = None


def _static_conductance(element: Element) -> Optional[float]:
    """The constant-matrix conductance of ``element`` (None: not that kind)."""
    if isinstance(element, Resistor):
        return 1.0 / element.resistance
    if isinstance(element, Switch):
        return 1.0 / (
            element.on_resistance if element.closed else element.off_resistance
        )
    if isinstance(element, Capacitor):
        return 0.0  # open at DC
    return None


class PrimedSystem:
    """The per-netlist part of a compiled system: everything no fault changes.

    Priming (the constructor) does the fault-independent work once:

    - the MNA index maps (:class:`_System`) and the node reference counts
      the update planner checks;
    - the constant matrix, dense or CSC as the system's size picks, and
      its factorization by that backend (a failed factorization is
      latched: every solve then falls back to full assembly);
    - the healthy baseline operating point (or the error that stopped it)
      and its diode biases for Newton warm starts;
    - ``A0⁻¹b0`` and the diode directions' ``A0⁻¹u`` columns (one
      multi-RHS solve) with their block of the Woodbury ``S = UᵀA0⁻¹U``.

    After that a primed system never changes, so every run over the same
    netlist — concurrent service jobs included — can share one, each
    through its own :class:`CompiledSystem`.  ``stats`` counts what
    priming cost.
    """

    def __init__(
        self,
        netlist: Netlist,
        gmin: float = _DEFAULT_GMIN,
    ) -> None:
        if len(netlist) == 0:
            raise CircuitError("cannot solve an empty netlist")
        self.netlist = netlist
        self.gmin = gmin
        self.system = _System(netlist, gmin)
        #: Number of MNA unknowns.
        self.size = self.system.size
        if self.size == 0:
            raise CircuitError("netlist has no unknowns (everything grounded?)")
        #: Concrete solver backend ('dense' | 'sparse') for this system.
        self.backend = _backends.resolve_backend(self.size)
        self._node_refs: Dict[str, int] = {}
        #: Per node, how many connections hold it at a definite potential:
        #: branch elements (extra KVL row) or static conductances > 0.
        #: Diodes at cutoff and capacitors (open at DC) do not count.
        self._stiff_refs: Dict[str, int] = {}
        for element in netlist.elements():
            if isinstance(element, (VoltageSource, Ammeter, Inductor)):
                stiff = True
            else:
                static = _static_conductance(element)
                stiff = static is not None and static > 0.0
            for node in element.nodes:
                if not _is_ground(node):
                    self._node_refs[node] = self._node_refs.get(node, 0) + 1
                    if stiff:
                        self._stiff_refs[node] = (
                            self._stiff_refs.get(node, 0) + 1
                        )
        self._factor: Optional[_backends.Factorization] = None
        self.baseline: Optional[DCSolution] = None
        self.baseline_error = ""
        #: Converged baseline diode biases, for Newton warm starts.
        self.warm_vd: Dict[str, float] = {}
        #: ``A0⁻¹b0``, the constant system's solution, which every fault
        #: that leaves the RHS alone starts from.
        self.static_solution: Optional[np.ndarray] = None
        #: The diode directions with their columns and ``S`` block, the
        #: head of every fault's update basis.
        self.diode_basis: Optional[_UpdateBasis] = None
        #: A0^{-1} u for the priming directions, keyed by (pos, neg) index.
        self.columns: Dict[Tuple[int, int], np.ndarray] = {}
        with obs.span(
            "mna.prime",
            netlist=netlist.name,
            size=self.size,
            **{"solver.backend": self.backend},
        ):
            self._factor = self._factorize()
            # The baseline is solved like any fault, by a solver over this
            # system; what that solve counts and caches becomes the priming.
            priming = CompiledSystem(self)
            try:
                self.baseline = priming._solve_baseline()
            except CircuitError as exc:
                self.baseline_error = str(exc)
            else:
                self.warm_vd = self._diode_biases(self.baseline)
            if priming._priming is not None:
                self.static_solution, self.diode_basis = priming._priming
                basis = self.diode_basis
                self.columns = {
                    pair: basis.columns[:, a]
                    for a, pair in enumerate(basis.pairs)
                }
            self.stats = priming.stats

    @property
    def matrix(self):
        """The constant matrix ``A0``: CSC on the sparse backend, dense
        otherwise (cached on the system; callers must not mutate it)."""
        return self.system.constant_matrix(self.backend)

    def _factorize(self) -> Optional[_backends.Factorization]:
        """The backend's factors of the constant matrix, or ``None``
        (counted and latched) when the matrix is singular or non-finite."""
        with obs.span(
            "mna.factorize",
            size=self.size,
            **{"solver.backend": self.backend},
        ):
            try:
                return _backends.factorize(self.matrix, self.backend)
            except _backends.FactorizationError as exc:
                if obs.enabled():
                    obs.counter("mna_lu_failures").inc()
                    with obs.span(
                        "mna.lu_failure",
                        size=self.size,
                        error=type(exc).__name__,
                    ):
                        pass
                return None

    def _factorization(self) -> _backends.Factorization:
        """The cached factorization of the constant matrix.

        A singular or non-finite constant matrix was latched at priming:
        every solve falls back to full assembly without re-trying the
        factorization.
        """
        if self._factor is None:
            raise _SmwFallback
        return self._factor

    def _diode_biases(self, baseline: DCSolution) -> Dict[str, float]:
        """Converged diode biases of the baseline, for Newton warm starts.

        Diode operating points barely move under most single faults; since
        Newton converges quadratically to the circuit's unique operating
        point, starting at the baseline bias instead of the generic 0.6 V
        reaches the same answer (to well under the convergence tolerance) in
        a fraction of the iterations.
        """
        warm: Dict[str, float] = {}
        for diode in self.system.diodes:
            try:
                warm[diode.name] = baseline.voltage_across(
                    diode.node_pos, diode.node_neg
                )
            except CircuitError:
                warm[diode.name] = 0.6
        return warm

    # -- update planning --------------------------------------------------

    def _is_baseline_plan(self, plan: _UpdatePlan) -> bool:
        return (
            not plan.conductance
            and not plan.rhs_current
            and not plan.rhs_branch
            and not plan.branch_diag
            and list(plan.diodes) == list(self.system.diodes)
        )

    def _plan_update(
        self, name: str, replacement: Optional[Element]
    ) -> Optional[_UpdatePlan]:
        """Express the fault as a low-rank update, or ``None`` if it changes
        the topology (the caller then re-assembles from scratch)."""
        original = self.netlist.element(name)
        system = self.system

        # Branch elements own an extra unknown: only value tweaks that keep
        # the exact same stamps stay low-rank — a source voltage change, or
        # an inductor's series resistance moving (its branch row reads
        # ``v_p - v_n - R i = 0``, so *short* re-weights R to the failed
        # resistance and *open* grows R to ``_OPEN_RESISTANCE``, pinching
        # the branch current off at the gmin floor instead of re-shaping
        # the unknown vector).
        if isinstance(original, (VoltageSource, Ammeter, Inductor)):
            if (
                isinstance(original, VoltageSource)
                and isinstance(replacement, VoltageSource)
                and replacement.nodes == original.nodes
            ):
                row = system.branch_index[name]
                delta = replacement.voltage - original.voltage
                return _UpdatePlan(
                    rhs_branch=((row, delta),) if delta != 0.0 else (),
                    diodes=tuple(system.diodes),
                )
            if isinstance(original, Inductor):
                if replacement is None:
                    new_resistance = _OPEN_RESISTANCE
                elif (
                    isinstance(replacement, Resistor)
                    and set(replacement.nodes) == set(original.nodes)
                ):
                    new_resistance = replacement.resistance
                else:
                    return None
                row = system.branch_index[name]
                delta = original.series_resistance - new_resistance
                return _UpdatePlan(
                    branch_diag=((row, delta),) if delta != 0.0 else (),
                    diodes=tuple(system.diodes),
                )
            return None

        if replacement is None:
            # Removal must not orphan a node: the naive path would drop it
            # from the unknown vector, changing the system layout.  Nor may
            # it leave an endpoint held only by gmin (remaining connections
            # all diodes/capacitors) — the Woodbury capacitance matrix then
            # cancels ~12 digits against the 1e12-stiff baseline inverse,
            # while the naive path computes the near-floating node directly.
            old_g = _static_conductance(original)
            removes_stiffness = old_g is not None and old_g > 0.0
            for node in original.nodes:
                if not _is_ground(node):
                    if self._node_refs.get(node, 0) <= 1:
                        return None
                    if (
                        removes_stiffness
                        and self._stiff_refs.get(node, 0) <= 1
                    ):
                        return None
        elif set(replacement.nodes) != set(original.nodes):
            return None  # rewired: stamps touch different unknowns

        conductance: List[Tuple[str, str, float]] = []
        rhs_current: List[Tuple[str, str, float]] = []
        diodes = list(system.diodes)

        # Remove the original element's contribution.
        if isinstance(original, Diode):
            diodes = [d for d in diodes if d.name != name]
        elif isinstance(original, CurrentSource):
            if original.current != 0.0:
                rhs_current.append(
                    (original.node_pos, original.node_neg, -original.current)
                )
        else:
            old_g = _static_conductance(original)
            if old_g is None:
                return None
            if old_g != 0.0:
                conductance.append(
                    (original.node_pos, original.node_neg, -old_g)
                )

        # Add the replacement's contribution.
        if replacement is None:
            pass
        elif isinstance(replacement, Diode):
            diodes.append(replacement)
        elif isinstance(replacement, CurrentSource):
            if replacement.current != 0.0:
                rhs_current.append(
                    (replacement.node_pos, replacement.node_neg,
                     replacement.current)
                )
        else:
            new_g = _static_conductance(replacement)
            if new_g is None:
                return None
            if new_g != 0.0:
                conductance.append(
                    (replacement.node_pos, replacement.node_neg, new_g)
                )

        if len(conductance) > 1:
            # Net out contributions on the same node pair at plan time, so
            # an equal-valued replacement degenerates to the baseline plan
            # (sign of the direction is irrelevant: g·uuᵀ == g·(−u)(−u)ᵀ).
            merged: Dict[Tuple[int, int], List[object]] = {}
            for n_pos, n_neg, delta_g in conductance:
                i, j = self._direction(n_pos, n_neg)
                key = (i, j) if i <= j else (j, i)
                entry = merged.get(key)
                if entry is None:
                    merged[key] = [n_pos, n_neg, delta_g]
                else:
                    entry[2] += delta_g
            conductance = [
                (n_pos, n_neg, delta_g)
                for n_pos, n_neg, delta_g in merged.values()
                if delta_g != 0.0
            ]

        return _UpdatePlan(
            conductance=tuple(conductance),
            rhs_current=tuple(rhs_current),
            diodes=tuple(diodes),
            removed=name if replacement is None else None,
        )

    def _direction(self, n_pos: str, n_neg: str) -> Tuple[int, int]:
        """Index pair of an update direction u = e_i - e_j (-1: ground)."""
        i = self.system._idx(n_pos)
        j = self.system._idx(n_neg)
        return (-1 if i is None else i, -1 if j is None else j)


class CompiledSystem:
    """A netlist's solver for repeated solves under single-element faults.

    The per-netlist work lives in a :class:`PrimedSystem`: built here from
    a netlist (and counted in this solver's ``stats``), or shared when one
    is passed in (its ``gmin`` applies).  The healthy operating point and
    any fault expressible as a same-node element replacement (shorts,
    resistive degradations, parameter drifts, opens that leave no node
    orphaned) are then solved without rebuilding the netlist.  Each fault
    is a low-rank Sherman–Morrison–Woodbury update of the primed
    factorization, with diode companion models folded into the update as
    rank-one terms.  Newton runs on the K update directions' projections
    ``Uᵀx`` until it converges, then verifies with full-length refined,
    residual-checked solves (:class:`_WoodburyNewton`).  The system's size
    picks only the factorization's ``backend``: dense LAPACK LU below
    :data:`~repro.circuit.backends.SPARSE_AUTO_MIN_SIZE` unknowns, SuperLU
    at or above.

    The solver owns only what one run adds: its ``stats`` and the update
    basis of its latest fault's own directions, which never enter the
    shared primed system.

    Whenever a fault changes the system topology (removing or retyping a
    branch element, orphaning a node) or an updated solve fails its residual
    check, :meth:`solve_replacement` falls back to exact full assembly via
    :func:`dc_operating_point`, so results never depend on the fast path
    being applicable.
    """

    def __init__(
        self,
        netlist: Union[Netlist, PrimedSystem],
        gmin: float = _DEFAULT_GMIN,
    ) -> None:
        if isinstance(netlist, PrimedSystem):
            self.primed = netlist
            self.stats = SolveStats()
        else:
            self.primed = PrimedSystem(netlist, gmin)
            # This run paid for the priming: count it as its own work.
            self.stats = replace(self.primed.stats)
        #: The latest fault's own directions and its update basis: a
        #: component's failure modes run back to back and share them.
        self._fault_basis: Tuple[tuple, Optional[_UpdateBasis]] = ((), None)
        #: While priming: ``A0⁻¹b0`` and the diode basis it solved.
        self._priming: Optional[Tuple[np.ndarray, _UpdateBasis]] = None

    @property
    def netlist(self) -> Netlist:
        return self.primed.netlist

    @property
    def gmin(self) -> float:
        return self.primed.gmin

    @property
    def backend(self) -> str:
        """Concrete solver backend ('dense' | 'sparse') for this system."""
        return self.primed.backend

    @property
    def size(self) -> int:
        """Number of MNA unknowns."""
        return self.primed.size

    # -- public API -------------------------------------------------------

    def solve(self) -> DCSolution:
        """The healthy (baseline) operating point, solved at priming.

        Raises the :class:`CircuitError` that stopped the baseline solve,
        if one did.
        """
        primed = self.primed
        if primed.baseline is None:
            raise CircuitError(primed.baseline_error)
        return primed.baseline

    def solve_replacement(
        self, name: str, replacement: Optional[Element]
    ) -> DCSolution:
        """Operating point with element ``name`` replaced (``None``: removed).

        Solves against the cached assembly when the replacement only
        re-weights existing stamps; falls back to exact full re-assembly for
        topology-changing faults.
        """
        primed = self.primed
        plan = primed._plan_update(name, replacement)
        if plan is not None:
            if primed._is_baseline_plan(plan):
                solution = self.solve()
                self.stats.baseline_reuses += 1
                return solution
            try:
                return self._solve_incremental(plan)
            except _SmwFallback:
                pass
        self.stats.full_rebuilds += 1
        with obs.span("mna.full_rebuild", element=name):
            if replacement is None:
                fault = primed.netlist.without(name)
            else:
                fault = primed.netlist.with_replacement(name, replacement)
            solution = dc_operating_point(fault, primed.gmin)
        self.stats.solves += 1
        return solution

    def _solve_baseline(self) -> DCSolution:
        """Priming's healthy solve, by full assembly if the rule declines."""
        plan = _UpdatePlan(diodes=tuple(self.primed.system.diodes))
        try:
            return self._solve_incremental(plan)
        except _SmwFallback:
            self.stats.full_rebuilds += 1
            baseline = dc_operating_point(self.primed.netlist, self.primed.gmin)
            self.stats.solves += 1
            return baseline

    # -- the Woodbury solver ----------------------------------------------

    def _base_solve(self, rhs: np.ndarray) -> np.ndarray:
        """``A0⁻¹ rhs`` through the cached factorization.

        ``rhs`` may be a vector or a 2-D column block — the multi-RHS form:
        one factorization, all columns solved in a single backend call.
        """
        try:
            return self.primed._factorization().solve(rhs)
        except _backends.FactorizationError:
            raise _SmwFallback from None

    def _solve_columns(
        self, pairs: List[Tuple[int, int]], lead: Optional[np.ndarray] = None
    ) -> np.ndarray:
        """``A0⁻¹ [lead | u_1 … u_m]`` for update directions, as ONE
        multi-RHS block — a matrix whose columns are the unit-difference
        vectors (after ``lead``, if given), handed to the backend in a
        single solve call instead of one factorized solve per direction."""
        first = 0 if lead is None else 1
        block = np.zeros((self.primed.size, first + len(pairs)))
        if lead is not None:
            block[:, 0] = lead
        for col, pair in enumerate(pairs, first):
            if pair[0] >= 0:
                block[pair[0], col] += 1.0
            if pair[1] >= 0:
                block[pair[1], col] -= 1.0
        solved = self._base_solve(block)
        self.stats.factorization_reuses += block.shape[1]
        self.stats.batched_columns += len(pairs)
        if obs.enabled():
            obs.counter("mna_batched_rhs_columns").inc(len(pairs))
        return solved

    def _basis_for(
        self, diode_basis: _UpdateBasis, own: List[Tuple[int, int]]
    ) -> _UpdateBasis:
        """The primed diode basis followed by a fault's own directions,
        whose ``A0⁻¹ u`` columns are solved as one block.

        The run keeps the latest one: the failure modes of a component
        are enumerated back to back and update the same directions.  It
        never enters the shared primed system.
        """
        key = tuple(own)
        if not key:
            return diode_basis
        if self._fault_basis[0] != key:
            self._fault_basis = (
                key, diode_basis.extend(own, self._solve_columns(own))
            )
        return self._fault_basis[1]

    def _primed_basis(self) -> Tuple[np.ndarray, _UpdateBasis]:
        """The primed system's ``A0⁻¹b0`` and diode basis, solved here when
        this solver is the one priming: the constant RHS and the diode
        directions go through the factorization as one block."""
        primed = self.primed
        if primed.diode_basis is not None:
            return primed.static_solution, primed.diode_basis
        if self._priming is None:
            system = primed.system
            pairs = list(dict.fromkeys(
                primed._direction(d.node_pos, d.node_neg)
                for d in system.diodes
            ))
            solved = self._solve_columns(pairs, system.constant_rhs())
            self._priming = (
                np.ascontiguousarray(solved[:, 0]),
                _UpdateBasis(pairs, np.ascontiguousarray(solved[:, 1:])),
            )
        return self._priming

    def _woodbury(
        self,
        basis: _UpdateBasis,
        gains: List[float],
        rhs: np.ndarray,
        y: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        """Solve ``(A0 + U diag(gains) Uᵀ) x = rhs`` against the cached
        factors.

        ``y`` short-circuits the base solve when the caller already knows
        ``A0⁻¹ rhs`` (Newton derives it from the basis columns).
        """
        if y is None:
            y = self._base_solve(rhs)
            self.stats.factorization_reuses += 1
        if not any(gains):
            return y
        return y - basis.columns @ basis.weights(gains, basis.project(y))

    def _solve_incremental(self, plan: _UpdatePlan) -> DCSolution:
        if not obs.enabled():
            return self._solve_incremental_impl(plan)[0]
        with obs.span(
            "mna.smw_solve",
            removed=plan.removed,
            size=self.primed.size,
            **{"solver.backend": self.backend},
        ) as sp:
            solution, full_steps = self._solve_incremental_impl(plan)
            sp.set(
                iterations=solution.iterations,
                reduced_iterations=solution.iterations - full_steps,
                full_steps=full_steps,
            )
            return solution

    def _solve_incremental_impl(
        self, plan: _UpdatePlan
    ) -> Tuple[DCSolution, int]:
        """Newton over a Woodbury update of the primed factorization.

        Returns the solution and how many of its iterations were
        full-length steps.  The fault's update basis (the primed diode
        directions, then its own) is built once.  Newton runs in that basis
        while it converges (reduced steps), then takes full-length steps at
        the converged biases, each the refined, residual-checked solve
        followed by the diode-step test on its vector, until one moves no
        diode by more than ``_NEWTON_TOLERANCE``.  A reduced step that
        fails hands over to full steps early.  So every solution returned
        is a full-length solve that passed its residual check at biases its
        own diode voltages confirm.
        """
        primed = self.primed
        system = primed.system
        primed._factorization()
        static_solution, diode_basis = self._primed_basis()

        if plan.rhs_current or plan.rhs_branch:
            rhs_static = system.constant_rhs().copy()
            for n_from, n_to, delta_i in plan.rhs_current:
                system._stamp_current(rhs_static, n_from, n_to, delta_i)
            for row, delta_v in plan.rhs_branch:
                rhs_static[row] += delta_v
            y_static = self._base_solve(rhs_static)
            self.stats.factorization_reuses += 1
        else:
            rhs_static = system.constant_rhs()
            y_static = static_solution

        # Unique update directions, the primed diode directions first (an
        # opened diode's keeps a zero gain and drops out of every solve).
        # Updates sharing a direction merge (a switch replaced by an
        # equal-conductance short cancels exactly) so the capacitance
        # matrix stays small and well-conditioned.  The static
        # contributions accumulate once; diode companion gains are added
        # into their slots every Newton iteration.
        directions = list(diode_basis.pairs)
        slot_of = {pair: index for index, pair in enumerate(directions)}
        static_gains = [0.0] * len(directions)

        def slot(pair: Tuple[int, int]) -> int:
            index = slot_of.get(pair)
            if index is None:
                index = len(directions)
                slot_of[pair] = index
                directions.append(pair)
                static_gains.append(0.0)
            return index

        for n_pos, n_neg, delta_g in plan.conductance:
            static_gains[slot(primed._direction(n_pos, n_neg))] += delta_g
        for row, delta in plan.branch_diag:
            static_gains[slot((row, -1))] += delta
        diodes = list(plan.diodes)
        diode_slots = [
            slot(primed._direction(d.node_pos, d.node_neg)) for d in diodes
        ]
        basis = self._basis_for(
            diode_basis, directions[len(diode_basis.pairs):]
        )

        newton = _WoodburyNewton(
            self, basis, static_gains, diodes, diode_slots,
            rhs_static, y_static,
        )
        reduced = bool(diodes)
        full_steps = 0
        for iterations in range(1, _MAX_NEWTON_ITERATIONS + 1):
            if reduced:
                try:
                    voltages = newton.reduced_step()
                except _SmwFallback:
                    reduced = False
            if not reduced:
                voltages = newton.full_step()
                full_steps += 1
            if newton.advance(voltages):
                if not reduced:
                    break
                reduced = False
        else:
            # Full assembly makes the call, and raises its canonical error
            # if it does not converge either.
            raise _SmwFallback

        self.stats.solves += 1
        self.stats.newton_iterations += iterations
        if newton.smw_used:
            self.stats.smw_solves += 1
        return system.to_solution(newton.vector, iterations), full_steps

    def _residual(
        self,
        basis: _UpdateBasis,
        gains: List[float],
        vector: np.ndarray,
        rhs: np.ndarray,
    ) -> np.ndarray:
        """rhs - (A0 + U diag(gains) Uᵀ) @ vector, with ``A0`` in the form
        the backend factored (CSC on the sparse backend, so large systems
        never materialise the dense constant matrix)."""
        residual = rhs - self.primed.matrix @ vector
        basis.spread(np.multiply(gains, basis.project(vector)), residual)
        return residual

    def _refined_solve(
        self,
        basis: _UpdateBasis,
        gains: List[float],
        rhs: np.ndarray,
        y: np.ndarray,
    ) -> np.ndarray:
        """Woodbury solve, iteratively refined and residual-checked.

        Large update gains (a diode companion can reach ~1e8) make the raw
        low-rank correction cancel up to ~11 digits.  Each refinement pass
        re-solves for the residual through the same cached factorization
        and shrinks the error by the same cancellation factor, so a couple
        of passes restore near-machine accuracy without ever
        re-factorizing.  If the error still exceeds ``_SMW_RESIDUAL_TOL``
        after refinement, the update direction is numerically hostile and
        the solve falls back to full assembly.
        """
        vector = self._woodbury(basis, gains, rhs, y)
        scale = 1.0 + float(abs(rhs).max())
        target = 1e-12 * scale
        error = math.inf
        for attempt in range(_MAX_SMW_REFINEMENTS + 1):
            if not np.isfinite(vector).all():
                raise _SmwFallback
            residual = self._residual(basis, gains, vector, rhs)
            error = float(abs(residual).max())
            if not math.isfinite(error):
                raise _SmwFallback
            if error <= target or attempt == _MAX_SMW_REFINEMENTS:
                break
            vector = vector + self._woodbury(basis, gains, residual)
        if error > _SMW_RESIDUAL_TOL * scale:
            raise _SmwFallback
        return vector


class _WoodburyNewton:
    """The Newton state of one fault solve: its diode biases and the
    two kinds of step that move them.

    A *reduced* step needs only ``Uᵀx``.  A diode's equivalent current
    adds ``-ieq · u`` to the RHS, so ``Uᵀy = Uᵀy_static - S_D ieq`` for
    ``y = A0⁻¹ rhs``; the Woodbury weights solve ``(G⁻¹ + S) w = Uᵀy``, and
    with ``x = y - W w``, ``Uᵀx = Uᵀy - S w = G⁻¹ w``.  That is K × K work
    per iteration.  The step reads the diode voltages as ``w / g``: the
    difference ``Uᵀy - S w`` cancels the digits of a large ``Uᵀy`` (a
    1 mΩ short left Newton oscillating by 2⁻²⁹ V about its fixed point).
    When the diodes share one direction ``d`` (the power supply's single
    diode), the static directions ``T`` are eliminated once per fault:
    with ``R = S_dT (G_T⁻¹ + S_TT)⁻¹``, ``q = S_dd - R S_Td`` and
    ``q0 = (Uᵀy_static)_d - R (Uᵀy_static)_T``, the step is the scalar
    ``v = (q0 - q ieq) / (q g + 1)``, with no array work per iteration.
    A *full* step solves the whole vector by the refined, residual-checked
    Woodbury solve.
    """

    __slots__ = (
        "_solver", "_basis", "_static_gains", "_diodes", "_slot_list",
        "_rhs_static", "_y_static", "_projected_static", "_gram_diodes",
        "_scalar", "biases", "vector", "smw_used",
    )

    def __init__(
        self,
        solver: CompiledSystem,
        basis: _UpdateBasis,
        static_gains: List[float],
        diodes: List[Diode],
        slots: List[int],
        rhs_static: np.ndarray,
        y_static: np.ndarray,
    ) -> None:
        self._solver = solver
        self._basis = basis
        self._static_gains = static_gains
        self._diodes = diodes
        self._slot_list = slots
        self._rhs_static = rhs_static
        self._y_static = y_static
        self._projected_static = basis.project(y_static)
        self._gram_diodes = basis.gram[:, slots]
        #: One diode direction: its slot with ``q`` and ``q0``.
        self._scalar = (
            self._diode_direction() if len(set(slots)) == 1 else None
        )
        warm = solver.primed.warm_vd
        #: Diode biases the next step linearises at (Newton warm start).
        self.biases = [warm.get(d.name, 0.6) for d in diodes]
        #: The last full step's solution vector.
        self.vector: Optional[np.ndarray] = None
        self.smw_used = False

    def _diode_direction(self) -> Optional[Tuple[int, float, float]]:
        """The slot of the one diode direction with ``q`` and ``q0``, the
        static directions eliminated (``None`` if their block is
        singular: the reduced steps then solve the whole K × K system)."""
        slot = self._slot_list[0]
        gram = self._basis.gram
        projected = self._projected_static
        static = [
            a for a, gain in enumerate(self._static_gains)
            if a != slot and abs(gain) >= _MIN_GAIN
        ]
        q = float(gram[slot, slot])
        q0 = float(projected[slot])
        if static:
            block = gram[np.ix_(static, static)].T.copy()
            block.flat[:: len(static) + 1] += [
                1.0 / self._static_gains[a] for a in static
            ]
            try:
                coupling = _capacitance_solve(block, gram[slot, static])
            except _SmwFallback:
                return None
            q -= float(coupling @ gram[static, slot])
            q0 -= float(coupling @ projected[static])
        return slot, q, q0

    def _companions(self) -> Tuple[List[float], List[float]]:
        """Update gains (static plus diode companions; 0 where negligible)
        and the diodes' equivalent currents, at the current biases."""
        gains = list(self._static_gains)
        currents = []
        for diode, bias, slot in zip(
            self._diodes, self.biases, self._slot_list
        ):
            g, ieq = _System._diode_companion(diode, bias)
            gains[slot] += g
            currents.append(ieq)
        gains = [g if abs(g) >= _MIN_GAIN else 0.0 for g in gains]
        self.smw_used = self.smw_used or any(gains)
        return gains, currents

    def reduced_step(self) -> List[float]:
        """The diode voltages of the next iterate, from ``Uᵀx`` alone.

        Newton takes one of these per iteration on K-vectors, so the
        per-diode work stays in Python floats and numpy sees only the
        K × K solve (none at all for one diode direction)."""
        if self._scalar is not None:
            slot, q, q0 = self._scalar
            gain = self._static_gains[slot]
            current = 0.0
            for diode, bias in zip(self._diodes, self.biases):
                g, ieq = _System._diode_companion(diode, bias)
                gain += g
                current += ieq
            if abs(gain) < _MIN_GAIN:
                raise _SmwFallback  # the diodes' direction dropped out
            self.smw_used = True
            voltage = (q0 - q * current) / (q * gain + 1.0)
            if not math.isfinite(voltage):
                raise _SmwFallback
            return [voltage] * len(self._diodes)
        gains, currents = self._companions()
        held = [gains[slot] for slot in self._slot_list]
        if not all(held):
            raise _SmwFallback  # a diode's direction dropped out
        projected = self._projected_static - self._gram_diodes @ currents
        weights = self._basis.weights(gains, projected).tolist()
        voltages = [
            weights[slot] / g for slot, g in zip(self._slot_list, held)
        ]
        if not all(map(math.isfinite, voltages)):
            raise _SmwFallback
        return voltages

    def full_step(self) -> List[float]:
        """Solve the whole vector at the current biases (kept as
        :attr:`vector`); returns its diode voltages."""
        basis = self._basis
        gains, currents = self._companions()
        stamped = np.zeros(len(basis.pairs))
        np.add.at(stamped, self._slot_list, currents)
        rhs = self._rhs_static.copy()
        basis.spread(stamped, rhs)
        y = self._y_static - basis.columns @ stamped
        self.vector = self._solver._refined_solve(basis, gains, rhs, y)
        return basis.project(self.vector)[self._slot_list].tolist()

    def advance(self, voltages: List[float]) -> bool:
        """Move the biases to ``voltages`` by :func:`_diode_step`; True
        when converged."""
        return _diode_step(self.biases, voltages)
