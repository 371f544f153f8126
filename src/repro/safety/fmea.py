"""FMEA data model and the injection-based analyzer for Simulink models.

The automated FME(D)A on Simulink models follows the paper's Section IV-D1:

1. **Initialise** — simulate the healthy model and record sensor readings;
2. **Iterate components / failure modes** — for every component with
   reliability data, inject each failure mode (via the block library's
   failure behaviours applied to the flattened netlist) and re-simulate;
3. **Compare results** — if any monitored sensor reading deviates from its
   healthy value by more than a threshold, the failure mode is marked
   *safety-related*;
4. **Output** — an :class:`FmeaResult` (the component safety analysis
   model), from which architectural metrics and the Excel-style FMEA table
   are derived.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from repro.circuit import CircuitError, Netlist, Resistor, dc_operating_point
from repro.reliability import ReliabilityModel
from repro.simulink import (
    FailureBehavior,
    SimulinkModel,
    to_netlist,
)
from repro.simulink.electrical import ElectricalConversion

#: Default relative-deviation threshold for "the value differs" (Step 2b).
DEFAULT_THRESHOLD = 0.2

#: Absolute change (in sensor units) below which a reading is considered
#: unchanged, regardless of the relative figure.  Near-zero baselines (e.g.
#: nano-amp leakage through an off switch) would otherwise turn noise-level
#: absolute changes into huge relative deviations.
DEFAULT_MIN_ABSOLUTE_DELTA = 1e-6

_EPSILON = 1e-12


class FmeaError(Exception):
    """Raised for analysis-level failures (no sensors, no reliability data)."""


@dataclass
class FmeaRow:
    """One (component, failure mode) line of an FMEA."""

    component: str
    component_class: str
    fit: float
    failure_mode: str
    nature: str
    distribution: float
    safety_related: bool = False
    effect: str = ""
    impact: str = "none"  # none | DVF | IVF
    sensor_deltas: Dict[str, float] = field(default_factory=dict)
    warning: str = ""

    @property
    def mode_rate(self) -> float:
        """Failure rate of this mode in FIT."""
        return self.fit * self.distribution


@dataclass
class FmeaResult:
    """A component safety analysis model: the output of DECISIVE Step 4a."""

    system: str
    method: str  # 'injection' | 'graph' | 'manual'
    rows: List[FmeaRow] = field(default_factory=list)
    baseline_readings: Dict[str, float] = field(default_factory=dict)
    uncovered: List[str] = field(default_factory=list)
    #: Why each uncovered component could not be analysed (component name
    #: -> reason).  Diagnostic only, excluded from equality.
    uncovered_reasons: Dict[str, str] = field(
        default_factory=dict, compare=False, repr=False
    )
    #: Structured :class:`repro.safety.resilience.JobFailure` records for
    #: injection jobs that could not produce a result (the campaign keeps
    #: running; the corresponding rows are conservatively classified).
    #: Execution diagnostics, excluded from equality like ``stats``.
    failures: List[object] = field(
        default_factory=list, compare=False, repr=False
    )
    #: Execution instrumentation (a :class:`repro.safety.campaign.CampaignStats`
    #: for injection campaigns); excluded from equality — two analyses that
    #: agree row-for-row are the same result however they were computed.
    stats: Optional[object] = field(default=None, compare=False, repr=False)

    def components(self) -> List[str]:
        seen: Dict[str, None] = {}
        for row in self.rows:
            seen.setdefault(row.component)
        return list(seen)

    def safety_related_components(self) -> List[str]:
        seen: Dict[str, None] = {}
        for row in self.rows:
            if row.safety_related:
                seen.setdefault(row.component)
        return list(seen)

    def safety_related_rows(self) -> List[FmeaRow]:
        return [row for row in self.rows if row.safety_related]

    def rows_for(self, component: str) -> List[FmeaRow]:
        return [row for row in self.rows if row.component == component]

    def row(self, component: str, failure_mode: str) -> FmeaRow:
        for candidate in self.rows:
            if (
                candidate.component == component
                and candidate.failure_mode == failure_mode
            ):
                return candidate
        raise FmeaError(
            f"no FMEA row for {component!r} / {failure_mode!r}"
        )

    def component_fit(self, component: str) -> float:
        rows = self.rows_for(component)
        if not rows:
            raise FmeaError(f"no FMEA rows for component {component!r}")
        return rows[0].fit

    def coverage_ratio(self) -> float:
        """Fraction of analysed components among analysed + uncovered (RQ2)."""
        analysed = len(self.components())
        total = analysed + len(self.uncovered)
        return 1.0 if total == 0 else analysed / total

    def failed_rows(self) -> List[FmeaRow]:
        """Rows whose injection job ended as a harness failure."""
        failed = {(f.component, f.failure_mode) for f in self.failures}
        return [
            row
            for row in self.rows
            if (row.component, row.failure_mode) in failed
        ]


def _relative_delta(
    baseline: float,
    observed: float,
    min_absolute: float = DEFAULT_MIN_ABSOLUTE_DELTA,
) -> float:
    difference = abs(observed - baseline)
    if difference < min_absolute:
        return 0.0
    if abs(baseline) < _EPSILON:
        return float("inf")
    return difference / abs(baseline)


def _behavior_replacement(
    netlist: Netlist,
    element_name: str,
    behavior: FailureBehavior,
    block_params: Dict[str, object],
):
    """The replacement element one failure behaviour maps to.

    Returns ``None`` for an *open* failure (the element is removed).  This
    is the single source of the failure physics — both the netlist-copy
    path (:func:`_apply_behavior`) and the incremental campaign path
    (:meth:`repro.circuit.CompiledSystem.solve_replacement`) consume it.
    """
    if behavior.kind == "open":
        netlist.element(element_name)  # raise early if missing
        return None
    if behavior.kind == "short":
        resistance = behavior.resistance or 1e-3
        original = netlist.element(element_name)
        return Resistor(
            element_name, original.node_pos, original.node_neg, resistance
        )
    if behavior.kind == "resistive":
        resistance = behavior.resistance
        if resistance is None:
            resistance = float(block_params.get("standby_resistance", 1e4))
        original = netlist.element(element_name)
        return Resistor(
            element_name, original.node_pos, original.node_neg, resistance
        )
    if behavior.kind == "param":
        original = netlist.element(element_name)
        parameter = behavior.parameter or "resistance"
        current = getattr(original, parameter, None)
        if current is None:
            raise FmeaError(
                f"element {element_name!r} has no parameter {parameter!r}"
            )
        value = behavior.value if behavior.value is not None else current * 2.0
        return replace(original, **{parameter: value})
    raise FmeaError(f"unknown failure behaviour kind {behavior.kind!r}")


def _apply_behavior(
    netlist: Netlist,
    element_name: str,
    behavior: FailureBehavior,
    block_params: Dict[str, object],
) -> Netlist:
    """Apply one failure behaviour to a copy of the netlist."""
    replacement = _behavior_replacement(
        netlist, element_name, behavior, block_params
    )
    if replacement is None:
        return netlist.without(element_name)
    return netlist.with_replacement(element_name, replacement)


def run_simulink_fmea(
    model: SimulinkModel,
    reliability: ReliabilityModel,
    sensors: Optional[Sequence[str]] = None,
    threshold: float = DEFAULT_THRESHOLD,
    assume_stable: Iterable[str] = (),
    min_absolute_delta: float = DEFAULT_MIN_ABSOLUTE_DELTA,
    behavior_overrides: Optional[
        Dict[Tuple[str, str], FailureBehavior]
    ] = None,
    analysis: str = "dc",
    t_stop: float = 5e-3,
    dt: float = 5e-5,
    incremental: bool = True,
    max_retries: int = 2,
    retry_backoff: float = 0.05,
    job_timeout: Optional[float] = None,
    checkpoint: Optional[object] = None,
    resume: bool = False,
) -> FmeaResult:
    """Automated FMEA by fault injection on a Simulink model.

    Parameters
    ----------
    model:
        the system design (DECISIVE Step 2 artefact);
    reliability:
        the component reliability model (Step 3 artefact);
    sensors:
        sensor block names whose readings define the safety goal; all
        current/voltage sensors are monitored when omitted;
    threshold:
        relative deviation above which a reading "differs" (Step 2b);
    assume_stable:
        block names excluded from injection (the case study assumes DC1
        stable, excluding over/under-voltage from scope);
    behavior_overrides:
        ``(component class, failure mode) -> FailureBehavior`` replacing
        the block library's failure physics — used by what-if and ablation
        studies (e.g. hard vs leaky capacitor shorts);
    analysis:
        ``"dc"`` (operating point, the default) or ``"transient"``
        (backward-Euler run over ``t_stop``/``dt``, comparing the settled
        sensor values — the right mode when reactive elements shape the
        healthy reading);
    incremental:
        solve DC injections through a shared compiled MNA system (direct
        delta-stamped solves for dense systems, low-rank updates of a
        cached sparse factorization for large ones) instead of per-mode
        full re-assembly; rows are identical either way;
    max_retries / retry_backoff / job_timeout / checkpoint / resume:
        fault-tolerance controls — bounded retry with exponential backoff,
        per-job wall-clock budgets, and checkpoint–resume of completed job
        outcomes; see :class:`repro.safety.campaign.FaultInjectionCampaign`.

    The function delegates to
    :class:`repro.safety.campaign.FaultInjectionCampaign`; campaign timing
    and solve statistics are attached to the result as ``result.stats``,
    and harness-level job failures (if any) as ``result.failures``.
    """
    from repro.safety.campaign import FaultInjectionCampaign

    return FaultInjectionCampaign(
        model,
        reliability,
        sensors=sensors,
        threshold=threshold,
        assume_stable=assume_stable,
        min_absolute_delta=min_absolute_delta,
        behavior_overrides=behavior_overrides,
        analysis=analysis,
        t_stop=t_stop,
        dt=dt,
        incremental=incremental,
        max_retries=max_retries,
        retry_backoff=retry_backoff,
        job_timeout=job_timeout,
        checkpoint=checkpoint,
        resume=resume,
    ).run()


def _select_sensors(
    conversion: ElectricalConversion,
    sensors: Optional[Sequence[str]],
    baseline: Dict[str, float],
) -> List[str]:
    all_sensors = list(conversion.current_sensors) + list(
        conversion.voltage_sensors
    )
    if not all_sensors:
        raise FmeaError(
            "model has no current or voltage sensors to compare readings at"
        )
    if sensors is None:
        return all_sensors
    chosen: List[str] = []
    for requested in sensors:
        matches = [
            path
            for path in all_sensors
            if path == requested or path.rsplit("/", 1)[-1] == requested
        ]
        if not matches:
            raise FmeaError(f"no sensor named {requested!r}")
        chosen.extend(matches)
    return chosen


def _solve_readings(
    conversion: ElectricalConversion, netlist: Netlist
) -> Dict[str, float]:
    solution = dc_operating_point(netlist)
    readings: Dict[str, float] = {}
    for path, element in conversion.current_sensors.items():
        if element in netlist:
            readings[path] = solution.current(element)
        else:
            readings[path] = 0.0
    for path, (npos, nneg) in conversion.voltage_sensors.items():
        try:
            readings[path] = solution.voltage_across(npos, nneg)
        except CircuitError:
            readings[path] = 0.0
    return readings


def _settled_mean(series, tail_fraction: float = 0.2) -> float:
    if len(series) < 2:
        raise FmeaError(
            f"transient run produced {len(series)} sample(s); cannot take a "
            f"settled mean — check t_stop/dt"
        )
    tail = series[max(1, int(len(series) * (1 - tail_fraction))) - 1 :]
    return sum(tail) / len(tail)


def _solve_readings_transient(
    conversion: ElectricalConversion,
    netlist: Netlist,
    t_stop: float,
    dt: float,
) -> Dict[str, float]:
    """Sensor readings from a transient run (mean of the settled tail).

    The paper's ``simulate()`` on a dynamic circuit is a transient
    simulation; the comparison quantity is the settled sensor value, which
    the backward-Euler run approaches from zero state.
    """
    from repro.circuit import transient

    result = transient(netlist, t_stop, dt)
    readings: Dict[str, float] = {}
    for path, element in conversion.current_sensors.items():
        if element in netlist:
            readings[path] = _settled_mean(result.current(element))
        else:
            readings[path] = 0.0
    for path, (npos, nneg) in conversion.voltage_sensors.items():
        try:
            pos = result.voltage(npos)
            neg = result.voltage(nneg)
            readings[path] = _settled_mean(
                [a - b for a, b in zip(pos, neg)]
            )
        except CircuitError:
            readings[path] = 0.0
    return readings
