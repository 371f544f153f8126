"""Batched fault-injection campaign engine (DECISIVE Step 4a at scale).

:func:`repro.safety.fmea.run_simulink_fmea` used to rebuild and re-solve
the full MNA system from scratch for every (component, failure mode) pair.
This module turns that loop into a campaign:

1. the model is flattened and its netlist primed **once**
   (:class:`~repro.circuit.PrimedSystem`: index maps, constant matrix,
   factorization and healthy baseline).  A caller that keeps the
   conversion and the primed system of a model (the analysis service)
   hands both to :meth:`FaultInjectionCampaign.run`, and the run then
   pays only for its own faults;
2. every injection is enumerated up front as an :class:`InjectionJob`;
3. jobs execute against a single :class:`~repro.circuit.CompiledSystem`
   over that primed system (Newton on Sherman–Morrison–Woodbury updates
   of its one factorization, dense LU or SuperLU as the system's size
   picks, with exact full-assembly fallback), serially, in enumeration
   order;
4. rows are classified in enumeration order, so the resulting
   :class:`~repro.safety.fmea.FmeaResult` is row-for-row identical to the
   historical per-mode re-solve, whatever the solve path.

Per-campaign instrumentation (job counts, solve mix, factorization reuses,
wall time) is attached to the result as :class:`CampaignStats` — the raw
material for the paper's Table V/VI efficiency story.

Execution is fault tolerant (see :mod:`repro.safety.resilience`): a job
that raises records a structured :class:`~repro.safety.resilience.JobFailure`
row instead of aborting the campaign, transient failures are retried with
exponential backoff, a runaway job is cut off by ``job_timeout``, and a
``checkpoint`` file lets ``resume`` skip already-completed jobs — also
after the process running the campaign was killed.
"""

from __future__ import annotations

import math
import time
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Dict, List, Mapping, Optional, Sequence, Set, Tuple, Union

from repro import obs
from repro.circuit import (
    CircuitError,
    CompiledSystem,
    PrimedSystem,
    SolveStats,
    resolve_backend,
    system_size,
)
from repro.reliability import ReliabilityModel
from repro.safety.fmea import (
    DEFAULT_MIN_ABSOLUTE_DELTA,
    DEFAULT_THRESHOLD,
    FmeaError,
    FmeaResult,
    FmeaRow,
    _apply_behavior,
    _behavior_replacement,
    _relative_delta,
    _select_sensors,
    _solve_readings,
    _solve_readings_transient,
)
from repro.safety.resilience import (
    TRANSIENT_ERRORS,
    CampaignCheckpoint,
    JobFailure,
    JobTimeoutError,
    RetryPolicy,
    campaign_fingerprint,
    job_deadline,
)
from repro.simulink import FailureBehavior, SimulinkError, SimulinkModel, to_netlist
from repro.simulink.electrical import ElectricalConversion

#: A campaign flushes its checkpoint every this many completed jobs.
_CHECKPOINT_EVERY = 25

#: Sensors whose relative deltas lie within this of the worst one are tied,
#: and the tie goes to the first in sensor order, so the sensor an effect
#: names cannot depend on which solver path produced the solution.  The
#: paths (naive re-assembly, Woodbury update) differ by ~1e-10 in a delta,
#: and sensors in series on one current path differ by gmin leakage,
#: ~1e-9; rounding the deltas to 9 decimals split such a pair whenever the
#: two paths' values straddled a rounding boundary.
_SENSOR_TIE_TOLERANCE = 1e-6



@dataclass(frozen=True)
class InjectionJob:
    """One planned fault injection: which element, which failure physics."""

    index: int
    component: str
    failure_mode: str
    element_name: str
    behavior: FailureBehavior
    block_params: Mapping[str, object]


@dataclass
class CampaignStats:
    """Execution instrumentation for one fault-injection campaign."""

    jobs: int = 0  # injection simulations requested
    rows: int = 0  # FMEA rows produced (jobs + uninjectable warnings)
    mode: str = "incremental"  # 'incremental' | 'naive'
    analysis: str = "dc"
    solver_backend: str = "dense"  # 'dense' | 'sparse', from the system size
    wall_time: float = 0.0  # whole campaign, seconds
    baseline_time: float = 0.0  # healthy solve, seconds
    solves: int = 0
    newton_iterations: int = 0
    factorization_reuses: int = 0
    smw_solves: int = 0
    full_rebuilds: int = 0
    baseline_reuses: int = 0
    batched_columns: int = 0  # SMW columns solved as multi-RHS blocks
    retries: int = 0  # transient-failure retries
    timeouts: int = 0  # jobs killed by the per-job wall-clock budget
    job_failures: int = 0  # jobs that ended as structured JobFailure rows
    resumed_jobs: int = 0  # jobs skipped because a checkpoint had them
    # Per-job wall-time distribution (all attempts + backoff, seconds);
    # 0.0 when no job executed this run (e.g. fully resumed).
    job_wall_p50: float = 0.0
    job_wall_p95: float = 0.0
    job_wall_p99: float = 0.0

    #: Counter fields published to the ``repro.obs`` metrics registry.
    _COUNTER_FIELDS = (
        "jobs", "rows", "solves", "newton_iterations",
        "factorization_reuses", "smw_solves", "full_rebuilds",
        "baseline_reuses", "retries", "timeouts", "job_failures",
        "resumed_jobs", "batched_columns",
    )

    def absorb(self, solve_stats: SolveStats) -> None:
        self.solves += solve_stats.solves
        self.newton_iterations += solve_stats.newton_iterations
        self.factorization_reuses += solve_stats.factorization_reuses
        self.smw_solves += solve_stats.smw_solves
        self.full_rebuilds += solve_stats.full_rebuilds
        self.baseline_reuses += solve_stats.baseline_reuses
        self.batched_columns += solve_stats.batched_columns

    def as_dict(self) -> Dict[str, object]:
        return asdict(self)

    def to_dict(self) -> Dict[str, object]:
        """Alias of :meth:`as_dict` — the exported-workbook/CLI spelling."""
        return self.as_dict()

    def publish(self) -> None:
        """Mirror the counters into the ``repro.obs`` metrics registry as
        first-class ``campaign_*`` metrics (no-op while obs is disabled).

        The registry values aggregate across campaigns (counters), so one
        traced session sums its campaigns exactly as the per-campaign
        ``CampaignStats`` instances do.
        """
        if not obs.enabled():
            return
        for name in self._COUNTER_FIELDS:
            obs.counter(f"campaign_{name}").inc(getattr(self, name))
        obs.gauge("campaign_wall_seconds").set(self.wall_time)
        obs.gauge("campaign_baseline_seconds").set(self.baseline_time)


#: Job outcome: ('ok', readings), ('error', message) — a circuit-level
#: failure, meaningful safety evidence — or ('failed', JobFailure dict) —
#: a harness-level failure recorded instead of aborting the campaign.
_Outcome = Tuple[str, object]


def _percentile(sorted_values: Sequence[float], q: float) -> float:
    """Linear-interpolated quantile ``q`` of an ascending sequence."""
    if not sorted_values:
        return 0.0
    position = q * (len(sorted_values) - 1)
    lower = int(position)
    upper = min(lower + 1, len(sorted_values) - 1)
    fraction = position - lower
    return (
        sorted_values[lower] * (1.0 - fraction)
        + sorted_values[upper] * fraction
    )


def _readings_from_solution(
    conversion: ElectricalConversion, solution, removed: Optional[str]
) -> Dict[str, float]:
    """Sensor readings off a DC solution (same semantics as
    :func:`~repro.safety.fmea._solve_readings` for the injected netlist)."""
    readings: Dict[str, float] = {}
    for path, element in conversion.current_sensors.items():
        if element == removed:
            readings[path] = 0.0
        else:
            readings[path] = solution.current(element)
    for path, (npos, nneg) in conversion.voltage_sensors.items():
        try:
            readings[path] = solution.voltage_across(npos, nneg)
        except CircuitError:
            readings[path] = 0.0
    return readings


def _execute_job(
    conversion: ElectricalConversion,
    compiled: Optional[CompiledSystem],
    job: InjectionJob,
    analysis: str,
    t_stop: float,
    dt: float,
) -> _Outcome:
    """Run one injection; never raises for circuit-level failures.

    With observability enabled, each execution is a ``campaign.job`` span
    and feeds the ``campaign_job_seconds`` histogram.
    """
    if not obs.enabled():
        return _execute_job_impl(conversion, compiled, job, analysis, t_stop, dt)
    with obs.span(
        "campaign.job",
        job=job.index,
        component=job.component,
        failure_mode=job.failure_mode,
    ) as sp:
        started = time.perf_counter()
        outcome = _execute_job_impl(
            conversion, compiled, job, analysis, t_stop, dt
        )
        obs.histogram("campaign_job_seconds").observe(
            time.perf_counter() - started
        )
        sp.set(outcome=outcome[0])
        return outcome


def _execute_job_impl(
    conversion: ElectricalConversion,
    compiled: Optional[CompiledSystem],
    job: InjectionJob,
    analysis: str,
    t_stop: float,
    dt: float,
) -> _Outcome:
    if compiled is not None and analysis == "dc":
        replacement = _behavior_replacement(
            conversion.netlist, job.element_name, job.behavior, job.block_params
        )
        try:
            solution = compiled.solve_replacement(job.element_name, replacement)
            removed = job.element_name if replacement is None else None
            return ("ok", _readings_from_solution(conversion, solution, removed))
        except CircuitError as exc:
            return ("error", str(exc))
    injected = _apply_behavior(
        conversion.netlist, job.element_name, job.behavior, job.block_params
    )
    try:
        if analysis == "transient":
            readings = _solve_readings_transient(conversion, injected, t_stop, dt)
        else:
            readings = _solve_readings(conversion, injected)
        return ("ok", readings)
    except CircuitError as exc:
        return ("error", str(exc))


def _run_job_isolated(
    conversion: ElectricalConversion,
    compiled: Optional[CompiledSystem],
    job: InjectionJob,
    analysis: str,
    t_stop: float,
    dt: float,
    policy: RetryPolicy,
    timeout: Optional[float],
) -> Tuple[_Outcome, int, int, float]:
    """Run one job under the fault-tolerance contract.

    Never raises: circuit-level failures stay ``('error', …)`` outcomes
    (handled inside :func:`_execute_job`), transient failures are retried
    with exponential backoff up to ``policy.max_retries``, runaway solves
    are cut off after ``timeout`` seconds, and anything else becomes a
    ``('failed', JobFailure dict)`` outcome.  Returns ``(outcome,
    retries_used, timeouts, wall_seconds)`` so the caller can aggregate
    counters — and the end-to-end per-job wall time (all attempts plus
    backoff sleeps, feeding ``campaign_job_wall_seconds`` and the
    ``--stats`` percentiles; ``campaign_job_seconds`` stays the
    per-*attempt* execution time).
    """
    started = time.perf_counter()
    outcome, retries, timeouts = _attempt_job(
        conversion, compiled, job, analysis, t_stop, dt, policy, timeout
    )
    wall = time.perf_counter() - started
    if obs.enabled():
        obs.histogram("campaign_job_wall_seconds").observe(wall)
    return outcome, retries, timeouts, wall


def _attempt_job(
    conversion: ElectricalConversion,
    compiled: Optional[CompiledSystem],
    job: InjectionJob,
    analysis: str,
    t_stop: float,
    dt: float,
    policy: RetryPolicy,
    timeout: Optional[float],
) -> Tuple[_Outcome, int, int]:
    """The retry loop behind :func:`_run_job_isolated`."""
    attempt = 0
    while True:
        try:
            with job_deadline(timeout):
                outcome = _execute_job(
                    conversion, compiled, job, analysis, t_stop, dt
                )
            return outcome, attempt, 0
        except JobTimeoutError as exc:
            # Deterministic work that ran away once will run away again:
            # record the timeout, don't burn retries on it.
            failure = JobFailure.from_exception(
                job, exc, kind="timeout", retries=attempt
            )
            return ("failed", failure.to_dict()), attempt, 1
        except TRANSIENT_ERRORS as exc:
            attempt += 1
            if attempt > policy.max_retries:
                failure = JobFailure.from_exception(
                    job, exc, retries=attempt - 1
                )
                return ("failed", failure.to_dict()), attempt - 1, 0
            obs.emit_event(
                "job_retried", level="warning", job=job.index,
                component=job.component, attempt=attempt,
                error=type(exc).__name__,
            )
            with obs.span(
                "campaign.retry", job=job.index, attempt=attempt,
                error=type(exc).__name__,
            ):
                time.sleep(policy.delay(attempt))
        except Exception as exc:  # noqa: BLE001 — per-job isolation
            failure = JobFailure.from_exception(job, exc, retries=attempt)
            return ("failed", failure.to_dict()), attempt, 0


class FaultInjectionCampaign:
    """A batched automated FMEA by fault injection on a Simulink model.

    Parameters match :func:`~repro.safety.fmea.run_simulink_fmea` plus:

    incremental:
        solve DC injections through a shared compiled system (low-rank
        Woodbury updates of one cached factorization, whose backend the
        system's size picks) instead of per-mode full re-assembly.
        Results are identical either way — topology-changing faults
        transparently fall back to full assembly;
    max_retries:
        bounded retry budget for transient (numerical) failures; a job
        that exhausts it is recorded as a :class:`JobFailure`;
    retry_backoff:
        base delay (seconds) of the exponential backoff between retries;
    job_timeout:
        per-job wall-clock budget in seconds (``None``: unlimited).  A
        runaway solve is cut off and recorded as a timeout
        :class:`JobFailure` instead of hanging the campaign;
    checkpoint:
        path of a JSONL file where completed job outcomes are persisted
        (keyed by a content hash of the model + reliability data, so stale
        entries are ignored automatically);
    resume:
        with ``checkpoint``, skip jobs whose outcomes the file already
        holds (``stats.resumed_jobs`` counts them).  Without ``resume``
        the checkpoint file is restarted from scratch.
    """

    def __init__(
        self,
        model: SimulinkModel,
        reliability: ReliabilityModel,
        sensors: Optional[Sequence[str]] = None,
        threshold: float = DEFAULT_THRESHOLD,
        assume_stable: Sequence[str] = (),
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
        checkpoint: Optional[Union[str, Path]] = None,
        resume: bool = False,
    ) -> None:
        if analysis not in ("dc", "transient"):
            raise FmeaError(
                f"analysis must be 'dc' or 'transient', got {analysis!r}"
            )
        if job_timeout is not None and job_timeout <= 0:
            raise FmeaError(
                f"job_timeout must be positive, got {job_timeout!r}"
            )
        if resume and checkpoint is None:
            raise FmeaError("resume=True requires a checkpoint path")
        self.model = model
        self.reliability = reliability
        self.sensors = sensors
        self.threshold = threshold
        self.assume_stable = assume_stable
        self.min_absolute_delta = min_absolute_delta
        self.behavior_overrides = behavior_overrides
        self.analysis = analysis
        self.t_stop = t_stop
        self.dt = dt
        self.incremental = incremental
        self.retry_policy = RetryPolicy(
            max_retries=max(0, int(max_retries)), backoff=retry_backoff
        )
        self.job_timeout = job_timeout
        self.checkpoint = checkpoint
        self.resume = resume
        self._fingerprint: Optional[str] = None
        self._job_wall_times: List[float] = []
        self._progress_total = 0
        self._progress_done = 0
        self._progress_resumed = 0
        self._progress_t0 = 0.0

    # -- progress events ---------------------------------------------------

    def _short_fingerprint(self) -> str:
        """The campaign fingerprint truncated for event payloads — enough
        to key `/healthz` per-campaign progress, cheap to repeat."""
        return self._campaign_token()[:16]

    def _emit_progress(self, newly_done: int) -> None:
        """One ``chunk_completed`` event advancing the done counter.

        The ETA extrapolates the measured per-job wall time of the jobs
        *executed this run* (resumed jobs were free, so they are excluded
        from the rate) over the jobs still pending.  No-op (one flag
        check) while the event plane is disabled."""
        if not obs.events_enabled():
            return
        self._progress_done += newly_done
        executed = self._progress_done - self._progress_resumed
        remaining = self._progress_total - self._progress_done
        eta: Optional[float]
        if remaining <= 0:
            eta = 0.0
        elif executed > 0:
            elapsed = time.perf_counter() - self._progress_t0
            eta = elapsed / executed * remaining
        else:
            eta = None  # nothing executed yet: no rate to extrapolate
        obs.emit_event(
            "chunk_completed",
            done=self._progress_done,
            total=self._progress_total,
            eta_seconds=eta,
            fingerprint=self._short_fingerprint(),
        )

    # -- enumeration ------------------------------------------------------

    def _enumerate(
        self, conversion: ElectricalConversion, result: FmeaResult
    ) -> Tuple[List[Tuple[FmeaRow, Optional[InjectionJob]]], List[InjectionJob]]:
        """All FMEA row slots in output order, plus the runnable jobs."""
        stable: Set[str] = set(self.assume_stable)
        slots: List[Tuple[FmeaRow, Optional[InjectionJob]]] = []
        jobs: List[InjectionJob] = []
        for block in self.model.all_blocks():
            # Scope first: a sampled campaign on a large model keeps a few
            # blocks of thousands, and resolving a block's type is the cost.
            if block.name in stable or block.path() in stable:
                continue
            etype = block.effective_type
            info = block.effective_info
            if block.block_type == "Subsystem" and not block.param(
                "annotated_type"
            ):
                continue  # plain subsystems are analysed through their contents
            if info.role in ("sensor", "reference", "support", "structural"):
                continue
            entry = self.reliability.get(etype)
            if entry is None:
                result.uncovered.append(block.name)
                result.uncovered_reasons[block.name] = (
                    f"no reliability data for component class {etype!r}"
                )
                continue
            try:
                element_name = conversion.element_name(block.path())
            except (SimulinkError, CircuitError, KeyError) as exc:
                # Only "this block has no electrical element" counts as
                # uncovered; a programming error must surface, not
                # masquerade as a coverage gap.
                result.uncovered.append(block.name)
                result.uncovered_reasons[block.name] = str(exc)
                continue
            for mode in entry.failure_modes:
                behavior = None
                if self.behavior_overrides is not None:
                    behavior = self.behavior_overrides.get((etype, mode.name))
                if behavior is None:
                    behavior = info.failure_behaviors.get(mode.name)
                row = FmeaRow(
                    component=block.name,
                    component_class=entry.component_class,
                    fit=entry.fit,
                    failure_mode=mode.name,
                    nature=mode.nature,
                    distribution=mode.distribution,
                )
                if behavior is None:
                    row.warning = (
                        f"no failure behaviour for {etype}/{mode.name}; "
                        f"not injectable"
                    )
                    slots.append((row, None))
                    continue
                job = InjectionJob(
                    index=len(jobs),
                    component=block.name,
                    failure_mode=mode.name,
                    element_name=element_name,
                    behavior=behavior,
                    block_params=block.parameters,
                )
                jobs.append(job)
                slots.append((row, job))
        return slots, jobs

    # -- execution --------------------------------------------------------

    def _campaign_token(self) -> str:
        """Content hash of this campaign's model and analysis parameters.

        Cached for the duration of ONE run only (:func:`campaign_fingerprint`
        hashes the whole model, so the checkpoint and every progress event
        must not pay it repeatedly) — :meth:`run` resets the cache at
        entry, to the fingerprint the caller passed to :meth:`run` or to
        nothing,
        because the iterate-and-rerun workflows (DECISIVE, service tenants)
        mutate the model or config between runs and a stale fingerprint
        would match the checkpoint of the *old* model state.
        """
        if self._fingerprint is None:
            self._fingerprint = campaign_fingerprint(
                self.model,
                self.reliability,
                self.analysis,
                self.t_stop,
                self.dt,
                self.behavior_overrides,
            )
        return self._fingerprint

    def _execute(
        self,
        conversion: ElectricalConversion,
        jobs: Sequence[InjectionJob],
        stats: CampaignStats,
        checkpoint: Optional[CampaignCheckpoint],
        compiled: Optional[CompiledSystem],
    ) -> Dict[int, _Outcome]:
        if not jobs:
            return {}
        outcomes: Dict[int, _Outcome] = {}
        emitted_at = 0
        for position, job in enumerate(jobs, start=1):
            outcome, retries, timeouts, wall = _run_job_isolated(
                conversion, compiled, job, self.analysis,
                self.t_stop, self.dt, self.retry_policy, self.job_timeout,
            )
            stats.retries += retries
            stats.timeouts += timeouts
            self._job_wall_times.append(wall)
            outcomes[job.index] = outcome
            if checkpoint is not None:
                checkpoint.record(job, outcome)
                if position % _CHECKPOINT_EVERY == 0:
                    checkpoint.flush()
            if position % _CHECKPOINT_EVERY == 0 or position == len(jobs):
                # Progress ticks at checkpoint granularity — cheap enough
                # to stay in the loop, frequent enough for an ETA.
                self._emit_progress(position - emitted_at)
                emitted_at = position
        if compiled is not None:
            stats.absorb(compiled.stats)
        return outcomes

    # -- classification ---------------------------------------------------

    def _classify(
        self,
        row: FmeaRow,
        outcome: _Outcome,
        baseline: Dict[str, float],
        monitored: Sequence[str],
    ) -> FmeaRow:
        kind, payload = outcome
        if kind == "failed":
            # The harness could not produce a result for this injection.
            # Conservative call: an unknown effect must be assumed
            # dangerous, and the structured failure keeps it visible
            # (result.failures) instead of silently shrinking the FMEA.
            failure: Mapping[str, object] = payload  # type: ignore[assignment]
            row.safety_related = True
            row.impact = "DVF"
            row.effect = (
                f"injection failed ({failure['exception']}): "
                f"{failure['message']}"
            )
            row.warning = (
                f"harness failure after {failure['retries']} retries "
                f"({failure['kind']}); effect assumed dangerous"
            )
            return row
        if kind == "error":
            # A non-convergent injected circuit is itself evidence of a
            # violent disturbance; treat as safety-related and record why.
            row.safety_related = True
            row.effect = f"simulation failed under fault: {payload}"
            row.impact = "DVF"
            return row
        readings: Dict[str, float] = payload  # type: ignore[assignment]
        deltas = {
            name: _relative_delta(
                baseline[name], readings[name], self.min_absolute_delta
            )
            for name in monitored
        }
        row.sensor_deltas = deltas
        unreadable = next(
            (name for name in monitored if not math.isfinite(readings[name])),
            None,
        )
        if unreadable is not None:
            # A NaN delta compares false with everything, so the worst
            # delta would depend on the sensor order.  A reading the solve
            # could not produce is an unknown effect: the conservative call.
            row.safety_related = True
            row.impact = "DVF"
            row.effect = (
                f"reading at {unreadable.rsplit('/', 1)[-1]} is not finite "
                f"({readings[unreadable]}); effect assumed dangerous"
            )
            return row
        worst = max(deltas.values()) if deltas else 0.0
        if worst > self.threshold:
            row.safety_related = True
            row.impact = "DVF"
            worst_sensor = next(
                name for name in monitored
                if deltas[name] >= worst - _SENSOR_TIE_TOLERANCE
            )
            row.effect = (
                f"reading at {worst_sensor.rsplit('/', 1)[-1]} deviates "
                f"by {worst * 100:.1f}%"
            )
        else:
            row.effect = (
                f"max sensor deviation {worst * 100:.1f}% (< threshold)"
            )
        return row

    # -- the campaign -----------------------------------------------------

    def run(
        self,
        fingerprint: Optional[str] = None,
        conversion: Optional[ElectricalConversion] = None,
        primed: Optional[PrimedSystem] = None,
    ) -> FmeaResult:
        """Execute the campaign and return the component safety analysis
        model, with :class:`CampaignStats` attached as ``result.stats``.

        ``fingerprint`` is this run's :func:`campaign_fingerprint` when the
        caller has already computed it (the analysis service hashes each
        request once and hands the value down).  It keys the checkpoint
        and the progress events for this run only; the next run without
        one hashes the model afresh.

        ``conversion`` is likewise this run's ``to_netlist(model)`` when the
        caller holds one (the analysis service keeps one per cached model).
        The campaign only reads it — every fault works on a copy of the
        netlist — so concurrent campaigns may share it.  The next run
        without one converts the (possibly mutated) model afresh.

        ``primed`` is likewise this run's :class:`~repro.circuit.PrimedSystem`
        of ``conversion.netlist`` when the caller holds one (the analysis
        service keeps one per cached model): a DC incremental run then
        solves its faults against that factorization and baseline instead of
        priming its own, and its stats count only its own solves.  Every
        other run ignores it.  The primed system is never changed, so
        concurrent campaigns may share it; the columns a run solves for its
        own faults stay with the run.

        With observability enabled the campaign is one ``campaign`` span
        over ``campaign.baseline`` / ``campaign.enumerate`` /
        ``campaign.execute`` (parenting one ``campaign.job`` span per
        executed injection) /
        ``campaign.classify`` phases, and the final counters are published
        as ``campaign_*`` metrics.

        Every event, span and log record the run produces carries the
        ambient correlation id (:func:`repro.obs.correlation`), when the
        caller installed one.
        """
        if primed is not None and (
            conversion is None or primed.netlist is not conversion.netlist
        ):
            raise FmeaError(
                "primed must be the primed system of conversion.netlist"
            )
        started = time.perf_counter()
        # The model/config may have been mutated since the previous run of
        # this campaign object; take the fingerprint afresh per run (the
        # caller's, or recomputed) so checkpoint keys always reflect
        # current content.
        self._fingerprint = fingerprint
        stats = CampaignStats(
            mode="incremental" if self.incremental else "naive",
            analysis=self.analysis,
        )

        with obs.span(
            "campaign",
            system=self.model.name,
            mode=stats.mode,
            analysis=self.analysis,
        ) as campaign_span:
            if conversion is None:
                conversion = to_netlist(self.model)
            compiled: Optional[CompiledSystem] = None
            baseline_started = time.perf_counter()
            with obs.span("campaign.baseline", analysis=self.analysis):
                if self.analysis == "transient":
                    baseline = _solve_readings_transient(
                        conversion, conversion.netlist, self.t_stop, self.dt
                    )
                elif self.incremental:
                    # Read the healthy baseline off the primed system: one
                    # Newton solve serves both the baseline readings and
                    # the warm start of every serial fault solve, instead
                    # of paying it twice (which is what used to put tiny
                    # incremental campaigns behind naive ones).
                    compiled = CompiledSystem(
                        conversion.netlist if primed is None else primed
                    )
                    try:
                        baseline = _readings_from_solution(
                            conversion, compiled.solve(), None
                        )
                    except CircuitError:
                        baseline = _solve_readings(
                            conversion, conversion.netlist
                        )
                else:
                    baseline = _solve_readings(conversion, conversion.netlist)
            stats.baseline_time = time.perf_counter() - baseline_started
            if compiled is not None:
                stats.solver_backend = compiled.backend
            else:
                stats.solver_backend = resolve_backend(
                    system_size(conversion.netlist)
                )
            monitored = _select_sensors(conversion, self.sensors, baseline)

            result = FmeaResult(
                system=self.model.name,
                method="injection",
                baseline_readings={name: baseline[name] for name in monitored},
            )
            with obs.span("campaign.enumerate") as enumerate_span:
                slots, jobs = self._enumerate(conversion, result)
                enumerate_span.set(jobs=len(jobs), rows=len(slots))
            stats.jobs = len(jobs)
            stats.rows = len(slots)

            checkpoint, preloaded = self._open_checkpoint(jobs, stats)
            pending = [job for job in jobs if job.index not in preloaded]
            self._job_wall_times = []
            self._progress_total = stats.jobs
            self._progress_done = len(preloaded)
            self._progress_resumed = len(preloaded)
            self._progress_t0 = time.perf_counter()
            if obs.events_enabled():
                obs.emit_event(
                    "campaign_started",
                    system=self.model.name,
                    analysis=self.analysis,
                    jobs=stats.jobs,
                    rows=stats.rows,
                    mode=stats.mode,
                    resumed=len(preloaded),
                    fingerprint=self._short_fingerprint(),
                )
            with obs.span(
                "campaign.execute", jobs=len(pending), resumed=len(preloaded)
            ):
                outcomes = self._execute(
                    conversion, pending, stats, checkpoint, compiled
                )
            outcomes.update(preloaded)
            if checkpoint is not None:
                # The loop records every outcome; write the tail that the
                # periodic flushes have not.
                checkpoint.flush()
            with obs.span("campaign.classify", rows=len(slots)):
                for row, job in slots:
                    if job is None:
                        result.rows.append(row)
                        continue
                    outcome = outcomes[job.index]
                    if outcome[0] == "failed":
                        result.failures.append(
                            JobFailure.from_dict(outcome[1])
                        )
                    result.rows.append(
                        self._classify(row, outcome, baseline, monitored)
                    )
            stats.job_failures = len(result.failures)
            if not result.rows:
                raise FmeaError(
                    "FMEA produced no rows: no component matched the "
                    "reliability model"
                )
            if self._job_wall_times:
                walls = sorted(self._job_wall_times)
                stats.job_wall_p50 = _percentile(walls, 0.50)
                stats.job_wall_p95 = _percentile(walls, 0.95)
                stats.job_wall_p99 = _percentile(walls, 0.99)
            stats.wall_time = time.perf_counter() - started
            campaign_span.set(
                jobs=stats.jobs,
                rows=stats.rows,
                retries=stats.retries,
                job_failures=stats.job_failures,
                resumed_jobs=stats.resumed_jobs,
            )
        result.stats = stats
        stats.publish()
        if obs.events_enabled():
            obs.emit_event(
                "campaign_finished",
                system=self.model.name,
                jobs=stats.jobs,
                rows=stats.rows,
                wall_seconds=stats.wall_time,
                retries=stats.retries,
                job_failures=stats.job_failures,
                fingerprint=self._short_fingerprint(),
            )
        return result

    def _open_checkpoint(
        self, jobs: Sequence[InjectionJob], stats: CampaignStats
    ) -> Tuple[Optional[CampaignCheckpoint], Dict[int, _Outcome]]:
        """Set up checkpointing; with ``resume``, load prior outcomes."""
        if self.checkpoint is None:
            return None, {}
        # The per-run fingerprint: one whole-model hash per run keys both
        # the checkpoint file and the progress events.
        fingerprint = self._campaign_token()
        checkpoint = CampaignCheckpoint(
            self.checkpoint, fingerprint, resume=self.resume
        )
        if not self.resume:
            return checkpoint, {}
        with obs.span("campaign.resume", path=str(self.checkpoint)) as sp:
            loaded = checkpoint.load()
            preloaded = {
                job.index: loaded[job.index]
                for job in jobs
                if job.index in loaded and checkpoint.job_matches(job)
            }
            stats.resumed_jobs = len(preloaded)
            sp.set(resumed=len(preloaded), recorded=len(loaded))
        return checkpoint, preloaded
